"""The collapse-DFS fast backend for exact enumeration.

The reference enumeration kernel (:mod:`repro.analytic.enumeration`)
treats the ``2^m`` up/down states independently and spends most of its
time labelling components (``repro profile enumeration`` attributes
this to ``enum.label``). :func:`enumerate_vectorized` — the
``vectorized`` backend — is a dependency-free numpy kernel that exploits
enumeration structure instead. It walks the fallible components in
column order, maintaining a growing array of per-partial-state
component-label rows and their probabilities; a link column only
doubles the rows where the link actually joins two distinct live
components — for every other row the link's probability marginal is
exactly ``r + (1 - r) = 1`` and both branches *collapse* into one.
Ring-like topologies collapse from ``2^28`` states to under a million
leaf rows, which is where the measured two-orders-of-magnitude speedup
comes from. Accumulation is regrouped, not resequenced, so results match
the reference to float round-off (≤1e-12 differential tier, DESIGN.md
§15), not bitwise. Memory is bounded by a row cap derived from
``chunk_size``; when a branch would exceed it, half the rows are pushed
on an explicit DFS stack and expanded later.

The kernel attributes its time to ``enum.compiled.*`` phases through the
current telemetry recorder so the perf-gate explainer can name them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.topology.model import Topology

__all__ = ["enumerate_vectorized"]


#: Row caps below this are clamped up; the DFS needs headroom to double.
MIN_ROW_CAP = 64


def _label_dtype(n_sites: int):
    """Smallest unsigned dtype whose max value can serve as the sentinel."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_sites < np.iinfo(dtype).max:
            return dtype
    return np.uint64


def enumerate_vectorized(
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
    """Exact density matrix by subset-doubling DFS with branch collapse.

    Components are consumed in column order: free sites first (each
    doubles the rows with probability factors ``1-p`` / ``p``), then
    links pinned fully up (merged in place, no branch), then free links.
    A free link only doubles the rows where both endpoints are live and
    in *distinct* components — everywhere else its up/down marginal is
    exactly 1 and the branch collapses. Leaf rows are flushed into the
    density bins via two ``bincount`` passes (per-row component vote
    totals, then ``(site, total)`` bins weighted by row probability).

    Peak live rows are capped at ``max(chunk_size, MIN_ROW_CAP)``; a
    branch that would exceed the cap defers half its rows to an explicit
    DFS stack. Results are deterministic for a fixed cap and agree with
    the reference loop to float round-off (regrouped accumulation — the
    ≤1e-12 differential tier, not bitwise).
    """
    from repro.telemetry.recorder import current as _current_recorder

    prof = _current_recorder().phases
    cap = max(int(chunk_size), MIN_ROW_CAP)

    n = topology.n_sites
    T = topology.total_votes
    u, v = topology.link_endpoint_arrays()
    dtype = _label_dtype(n)
    sent = dtype(np.iinfo(dtype).max)
    votes = topology.votes.astype(np.float64)

    pinned_live_links = np.nonzero(link_rel >= 1.0)[0]

    # Column order: sites, pinned live links, free links. Pinned-dead
    # links (r <= 0) never join anything and are simply absent.
    cols = (
        [("site", int(s)) for s in free_sites]
        + [("plink", int(e)) for e in pinned_live_links]
        + [("link", int(e)) for e in free_links]
    )
    n_cols = len(cols)

    root = np.arange(n, dtype=dtype)[None, :].copy()
    root[0, site_rel <= 0.0] = sent
    acc = np.zeros(n * (T + 1), dtype=np.float64)

    def flush(L: np.ndarray, P: np.ndarray) -> None:
        nonlocal acc
        rows = L.shape[0]
        up = L != sent
        # Per-(row, component) vote sums: one bincount over flat
        # row-offset labels (down sites park in a discard bin).
        flat = np.where(up, L, n).astype(np.int64)
        flat += np.arange(rows, dtype=np.int64)[:, None] * (n + 1)
        weights = np.where(up, np.broadcast_to(votes, (rows, n)), 0.0)
        sums = np.bincount(flat.ravel(), weights=weights.ravel(),
                           minlength=rows * (n + 1))
        totals = np.where(up, sums[flat], 0.0).astype(np.int64)
        bins = (np.arange(n, dtype=np.int64) * (T + 1))[None, :] + totals
        acc += np.bincount(bins.ravel(), weights=np.repeat(P, n),
                           minlength=n * (T + 1))

    stack = [(root, np.ones(1, dtype=np.float64), 0)]
    while stack:
        L, P, c = stack.pop()
        with prof.phase("enum.compiled.branch"):
            while c < n_cols:
                kind, comp = cols[c]
                if kind == "site":
                    if 2 * L.shape[0] > cap and L.shape[0] > 1:
                        half = L.shape[0] // 2
                        stack.append((L[half:].copy(), P[half:].copy(), c))
                        L, P = L[:half], P[:half]
                        continue
                    p_up = site_rel[comp]
                    down = L.copy()
                    down[:, comp] = sent
                    L = np.concatenate([down, L])
                    P = np.concatenate([P * (1.0 - p_up), P * p_up])
                else:
                    a, b = int(u[comp]), int(v[comp])
                    la = L[:, a]
                    lb = L[:, b]
                    joins = (la != sent) & (lb != sent) & (la != lb)
                    if kind == "plink":
                        if joins.any():
                            lo = np.minimum(la, lb)
                            hi = np.maximum(la, lb)
                            merge = joins[:, None] & (L == hi[:, None])
                            L = np.where(merge, lo[:, None], L)
                    else:
                        n_joins = int(joins.sum())
                        if n_joins == 0:
                            # Dead or redundant everywhere: the marginal
                            # r + (1 - r) is exactly 1 — collapse.
                            c += 1
                            continue
                        if L.shape[0] + n_joins > cap and L.shape[0] > 1:
                            half = L.shape[0] // 2
                            stack.append((L[half:].copy(), P[half:].copy(), c))
                            L, P = L[:half], P[:half]
                            continue
                        r_up = link_rel[comp]
                        idx = np.nonzero(joins)[0]
                        lo = np.minimum(la, lb)[idx]
                        hi = np.maximum(la, lb)[idx]
                        merged = L[idx]
                        merged = np.where(merged == hi[:, None],
                                          lo[:, None], merged)
                        P = np.concatenate(
                            [np.where(joins, P * (1.0 - r_up), P),
                             P[idx] * r_up]
                        )
                        L = np.concatenate([L, merged])
                c += 1
        with prof.phase("enum.compiled.flush"):
            flush(L, P)

    matrix = acc.reshape(n, T + 1)
    return matrix if site is None else matrix[int(site)].copy()
