"""Exact component-vote densities by exhaustive state enumeration.

The paper proves that computing ``f_i`` in a general network is
#P-complete, so no polynomial algorithm is expected. For *small* networks,
though, we can enumerate all ``2^(n_sites + n_links)`` up/down states,
weight each by its probability, and accumulate the exact density. This
module is the library's ground-truth oracle: the closed forms
(:mod:`repro.analytic.ring`, :mod:`~repro.analytic.complete`,
:mod:`~repro.analytic.bus`), the Monte-Carlo estimator, and the simulator's
stationary behaviour are all validated against it in the test suite.

Component reliabilities may be uniform (scalars ``p``, ``r``) or per
component (arrays), which is how the star-with-perfect-spokes encoding of
the bus network is enumerated exactly.

Two kernels compute the same matrix (DESIGN.md §10 and §15), selected
with the ``backend=`` kwarg (``auto`` | ``vectorized`` | ``reference``):

``reference`` (kernel)
    the chunked scipy kernel — generates up/down states in chunks of
    bit-unpacked numpy masks, computes state probabilities as column-wise
    product reductions, labels every state of a chunk with one
    block-diagonal ``connected_components`` call
    (:func:`~repro.connectivity.components.batched_vote_totals`), and
    accumulates probabilities with an ordered unbuffered scatter-add.
    Every floating-point operation is sequenced exactly like the
    reference loop, so the output is **bitwise identical** to it.

``vectorized``
    the dependency-free subset-doubling DFS with branch collapse
    (:func:`repro.analytic.compiled.enumerate_vectorized`) — regrouped
    accumulation, equal to the reference to float round-off (≤1e-12
    differential tier), two orders of magnitude faster.

``auto`` (the default)
    ``vectorized``.

The vectorized backend raises the safety cap from
:data:`MAX_COMPONENTS` (2^24 states) to :data:`MAX_COMPONENTS_COMPILED`
(2^28).

``enumerate_density_matrix_reference`` is the retained per-state Python
loop — the auditable oracle the kernel equivalence tests compare
against.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

from repro.connectivity.components import (
    batched_vote_totals,
    component_labels,
    component_vote_totals,
)
from repro.errors import DensityError, TopologyError
from repro.topology.model import Topology

__all__ = [
    "BACKENDS",
    "enumerate_density",
    "enumerate_density_matrix",
    "enumerate_density_matrix_reference",
    "resolve_backend",
]

#: Refuse to enumerate beyond this many fallible components (2^24
#: states) on the ``reference`` backend.
MAX_COMPONENTS = 24

#: The vectorized backend pushes the cap to 2^28 states (memory-bounded;
#: see DESIGN.md §15 for the bounds).
MAX_COMPONENTS_COMPILED = 28

#: Selectable enumeration backends (``backend=`` kwarg).
BACKENDS = ("auto", "vectorized", "reference")

#: States unpacked and labelled per kernel chunk. Large enough that the
#: per-chunk numpy fixed costs amortize, small enough that the chunk's
#: mask/label arrays stay cache- and memory-friendly at 2^24 states.
DEFAULT_CHUNK_SIZE = 8_192

Reliability = Union[float, Sequence[float], np.ndarray]


def _as_reliability_vector(value: Reliability, count: int, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise DensityError(f"{label} must be scalar or length {count}, got shape {arr.shape}")
    if ((arr < 0.0) | (arr > 1.0)).any():
        raise DensityError(f"{label} values must be in [0, 1]")
    return arr


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name to ``vectorized`` or ``reference``.

    ``None`` and ``auto`` both pick the ``vectorized`` kernel.
    """
    name = backend if backend is not None else "auto"
    if name not in BACKENDS:
        raise DensityError(
            f"unknown enumeration backend {name!r}; choose from {BACKENDS}"
        )
    return "vectorized" if name == "auto" else name


def _backend_cap(backend: str) -> int:
    return MAX_COMPONENTS if backend == "reference" else MAX_COMPONENTS_COMPILED


def _free_components(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    backend: str = "reference",
) -> tuple:
    """Indices of fallible sites/links; components pinned at 0/1 are not
    enumerated, so a star with perfectly reliable spokes costs only
    ``2^(n_sites + 1)`` states rather than ``2^(2n + 1)``."""
    free_sites = np.nonzero((site_rel > 0.0) & (site_rel < 1.0))[0]
    free_links = np.nonzero((link_rel > 0.0) & (link_rel < 1.0))[0]
    n_free = free_sites.size + free_links.size
    cap = _backend_cap(backend)
    if n_free > cap:
        if backend == "reference" and n_free <= MAX_COMPONENTS_COMPILED:
            hint = (
                f"; the 'vectorized' backend raises the cap to "
                f"{MAX_COMPONENTS_COMPILED} (pass backend='vectorized')"
            )
        else:
            hint = "; use montecarlo_density for larger networks"
        raise DensityError(
            f"enumeration over {n_free} fallible components exceeds the "
            f"{cap}-component safety cap of the {backend!r} backend{hint}"
        )
    return free_sites, free_links, n_free


def enumerate_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    site: Optional[int] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Exact density matrix ``(n_sites, T+1)`` by full state enumeration.

    ``backend`` picks the kernel (see the module docstring; ``None``
    means ``auto``). The ``reference`` backend is bitwise identical to
    :func:`enumerate_density_matrix_reference` for every ``chunk_size``;
    ``vectorized`` regroups the accumulation and agrees to float
    round-off (its results are cached under a separate numerics tag so a
    bitwise caller never receives a regrouped entry). With ``site``
    given, only that site's row (length ``T+1``) is returned — the
    single-row fast path behind :func:`enumerate_density`.
    """
    if chunk_size <= 0:
        raise DensityError(f"chunk_size must be positive, got {chunk_size}")
    resolved = resolve_backend(backend)
    site_rel = _as_reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = _as_reliability_vector(r, topology.n_links, "link reliability")
    free_sites, free_links, n_free = _free_components(
        topology, site_rel, link_rel, backend=resolved
    )

    from repro.analytic import cache as density_cache

    numerics = "regrouped" if resolved == "vectorized" else "exact-order"
    key = density_cache.enumeration_key(
        topology, site_rel, link_rel, site, numerics=numerics
    )
    return density_cache.fetch(
        "enumeration",
        key,
        lambda: _dispatch_kernel(
            resolved, topology, site_rel, link_rel, free_sites, free_links,
            n_free, chunk_size=chunk_size, site=site,
        ),
    )


def _dispatch_kernel(
    backend: str,
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    free_sites: np.ndarray,
    free_links: np.ndarray,
    n_free: int,
    *,
    chunk_size: int,
    site: Optional[int],
) -> np.ndarray:
    if backend == "reference":
        return _enumeration_kernel(
            topology, site_rel, link_rel, free_sites, free_links, n_free,
            chunk_size=chunk_size, site=site,
        )
    from repro.analytic import compiled

    return compiled.enumerate_vectorized(
        topology, site_rel, link_rel, free_sites, free_links, n_free,
        chunk_size=chunk_size, site=site,
    )


def _enumeration_kernel(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    free_sites: np.ndarray,
    free_links: np.ndarray,
    n_free: int,
    *,
    chunk_size: int,
    site: Optional[int],
) -> np.ndarray:
    # Phase attribution resolves through the current recorder (the
    # kernel has no telemetry argument); with the NULL recorder every
    # phase block is a shared no-op.
    from repro.telemetry.recorder import current as _current_recorder

    prof = _current_recorder().phases

    n = topology.n_sites
    T = topology.total_votes
    if site is None:
        out = np.zeros(n * (T + 1), dtype=np.float64)
        row_offsets = np.arange(n, dtype=np.int64) * (T + 1)
    else:
        out = np.zeros(T + 1, dtype=np.float64)

    base_site_up = site_rel >= 1.0
    base_link_up = link_rel >= 1.0

    n_states = 1 << n_free
    # Bit j (j = 0 slowest-varying) of state k mirrors the reference
    # loop's ``product((False, True), repeat=n_free)`` enumeration order;
    # matching the order makes the scatter-add accumulation sequence —
    # and therefore the floating-point result — identical.
    shifts = np.arange(n_free - 1, -1, -1, dtype=np.int64)

    for start in range(0, n_states, chunk_size):
        stop = min(start + chunk_size, n_states)
        with prof.phase("enum.unpack"):
            idx = np.arange(start, stop, dtype=np.int64)
            bits = ((idx[:, None] >> shifts) & 1).astype(bool)
            count = idx.shape[0]

            site_masks = np.broadcast_to(base_site_up, (count, n)).copy()
            link_masks = np.broadcast_to(
                base_link_up, (count, topology.n_links)).copy()
            site_masks[:, free_sites] = bits[:, : free_sites.size]
            link_masks[:, free_links] = bits[:, free_sites.size:]

        # One factor per fallible component, multiplied column-by-column
        # in the same order the reference loop multiplies scalars.
        with prof.phase("enum.probs"):
            probs = np.ones(count, dtype=np.float64)
            for col, comp in enumerate(free_sites):
                rel = site_rel[comp]
                probs *= np.where(bits[:, col], rel, 1.0 - rel)
            for col, comp in enumerate(free_links):
                rel = link_rel[comp]
                probs *= np.where(
                    bits[:, free_sites.size + col], rel, 1.0 - rel)

        with prof.phase("enum.label"):
            totals = batched_vote_totals(topology, site_masks, link_masks)
        with prof.phase("enum.accumulate"):
            if site is None:
                # State-major flat bins reproduce the reference's
                # per-state ``matrix[arange(n), totals] += prob``
                # accumulation order; np.add.at applies the additions
                # unbuffered, in order.
                flat = (row_offsets[None, :] + totals).ravel()
                np.add.at(out, flat, np.repeat(probs, n))
            else:
                np.add.at(out, totals[:, site], probs)

    return out.reshape(n, T + 1) if site is None else out


def enumerate_density_matrix_reference(
    topology: Topology,
    p: Reliability,
    r: Reliability,
) -> np.ndarray:
    """The retained per-state loop: the oracle for the vectorized kernel.

    This is the original implementation, kept because the kernel
    equivalence tests assert the vectorized path reproduces it bitwise —
    every probability product and every accumulation happens in the same
    floating-point order.
    """
    site_rel = _as_reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = _as_reliability_vector(r, topology.n_links, "link reliability")
    free_sites, free_links, _ = _free_components(topology, site_rel, link_rel)
    n_free = free_sites.size + free_links.size

    T = topology.total_votes
    matrix = np.zeros((topology.n_sites, T + 1), dtype=np.float64)

    site_up = (site_rel >= 1.0).copy()
    link_up = (link_rel >= 1.0).copy()

    for bits in product((False, True), repeat=n_free):
        site_bits = bits[: free_sites.size]
        link_bits = bits[free_sites.size:]
        site_up[free_sites] = site_bits
        link_up[free_links] = link_bits

        prob = 1.0
        for idx, up in zip(free_sites, site_bits):
            prob *= site_rel[idx] if up else 1.0 - site_rel[idx]
        for idx, up in zip(free_links, link_bits):
            prob *= link_rel[idx] if up else 1.0 - link_rel[idx]
        if prob == 0.0:
            continue

        labels = component_labels(topology, site_up, link_up)
        totals = component_vote_totals(labels, topology.votes)
        matrix[np.arange(topology.n_sites), totals] += prob

    return matrix


def enumerate_density(
    topology: Topology,
    site: int,
    p: Reliability,
    r: Reliability,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Exact ``f_site(v)`` for one site (length ``T + 1``).

    Accumulates the single requested row inside the kernel instead of
    materializing the full ``(n_sites, T+1)`` matrix; the row is bitwise
    identical to ``enumerate_density_matrix(...)[site]``.
    """
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    return enumerate_density_matrix(topology, p, r, site=site, backend=backend)
