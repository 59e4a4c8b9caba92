"""ENUM-COMP: the vectorized enumeration backend (DESIGN.md §15).

The chunked bit-unpack + scipy csgraph kernel (``backend="reference"``)
tops out around 2^20 states. ``auto`` routes to the dependency-free
collapse-DFS (``backend="vectorized"``), which raises the exact-density
ceiling to 2^28 states. Four measurements:

- **2^20 head-to-head** — reference kernel vs the auto backend on
  ring(10); the summary gates the speedup at the >=5x floor from the
  PR's acceptance criteria.
- **2^24 full matrix** — ring(12), gated under 60 s.
- **2^28 showcase** — ring(14), the new ceiling; recorded, not gated
  (the reference backend refuses this size outright).
- **Row-cap sweep** — the vectorized collapse-DFS at 2^20 across row
  caps 2^12..2^18, re-measuring DEFAULT_CHUNK_SIZE for the non-scipy
  labellers; the per-cap means land in the summary JSON.

Every timed callable runs with the density cache disabled, and the
2^20 auto result is checked against the reference matrix (<=1e-12: the
vectorized path regroups the accumulation).
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from conftest import _BENCH_JSON, timed
from repro.analytic import cache as density_cache
from repro.analytic.enumeration import (
    DEFAULT_CHUNK_SIZE,
    enumerate_density_matrix,
    resolve_backend,
)
from repro.topology.generators import ring

#: ring(10) -> 2^20 states: the largest size the reference loop can
#: stomach inside a benchmark round.
HEAD_TO_HEAD = ring(10)
#: ring(12) -> 2^24 states; ring(14) -> 2^28, the new ceiling.
BIG = ring(12)
CEILING = ring(14)

P, R = 0.9, 0.8

#: Row caps for the satellite-6 DEFAULT_CHUNK_SIZE re-measurement.
ROW_CAPS = (4_096, 8_192, 65_536, 262_144)

_STATE = {}


def _density(topo, **kwargs):
    with density_cache.disabled():
        return enumerate_density_matrix(topo, P, R, **kwargs)


def test_enum_reference_2e20(benchmark, report):
    matrix = timed(benchmark, lambda: _density(HEAD_TO_HEAD, backend="reference"))
    _STATE["ref_mean"] = benchmark.stats.stats.mean
    _STATE["ref_matrix"] = matrix
    report(f"=== ENUM-COMP: reference backend, 2^20 states ===\n"
           f"  mean {benchmark.stats.stats.mean:.3f}s")


def test_enum_auto_2e20(benchmark, report):
    matrix = timed(benchmark, lambda: _density(HEAD_TO_HEAD))
    _STATE["auto_mean"] = benchmark.stats.stats.mean
    backend = resolve_backend(None)
    delta = float(np.abs(matrix - _STATE["ref_matrix"]).max())
    assert delta <= 1e-12, f"vectorized drifted {delta:g} from reference"
    _STATE["auto_maxdiff"] = delta
    _STATE["auto_backend"] = backend
    report(f"=== ENUM-COMP: auto backend ({backend}), 2^20 states ===\n"
           f"  max |delta| vs reference {delta:.2e}, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_enum_auto_2e24(benchmark, report):
    matrix = timed(benchmark, lambda: _density(BIG))
    _STATE["big_mean"] = benchmark.stats.stats.mean
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    report(f"=== ENUM-COMP: auto backend, 2^24 states ===\n"
           f"  mean {benchmark.stats.stats.mean:.3f}s")


def test_enum_auto_2e28(benchmark, report):
    matrix = timed(benchmark, lambda: _density(CEILING))
    _STATE["ceiling_mean"] = benchmark.stats.stats.mean
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    report(f"=== ENUM-COMP: auto backend, 2^28 states (new ceiling) ===\n"
           f"  mean {benchmark.stats.stats.mean:.3f}s")


def test_row_cap_sweep(report):
    """Re-measure DEFAULT_CHUNK_SIZE for the collapse-DFS labeller.

    One timed pass per cap (the full benchmark fixture would multiply
    this by rounds for a measurement that only needs a ranking); results
    are recorded in the summary entry, which has no ``mean`` field and
    is therefore ignored by the regression gate.
    """
    sweep = {}
    reference = None
    for cap in ROW_CAPS:
        start = time.perf_counter()
        matrix = _density(HEAD_TO_HEAD, backend="vectorized", chunk_size=cap)
        sweep[cap] = time.perf_counter() - start
        if reference is None:
            reference = matrix
        else:
            np.testing.assert_allclose(matrix, reference, atol=1e-13)
    _STATE["row_cap_sweep"] = sweep
    best = min(sweep, key=sweep.get)
    _STATE["row_cap_best"] = best
    lines = "\n".join(
        f"  cap {cap:>7}: {elapsed * 1e3:7.1f}ms"
        f"{'   <- DEFAULT_CHUNK_SIZE' if cap == DEFAULT_CHUNK_SIZE else ''}"
        for cap, elapsed in sweep.items()
    )
    report(f"=== ENUM-COMP: vectorized row-cap sweep, 2^20 states ===\n"
           f"{lines}\n  fastest cap: {best}")


def test_enum_compiled_summary(report):
    speedup = _STATE["ref_mean"] / _STATE["auto_mean"]
    _BENCH_JSON.setdefault("enum_compiled", []).append({
        "test": "enum_compiled_summary",
        "backend": _STATE["auto_backend"],
        "speedup_2e20": round(speedup, 3),
        "auto_2e20_mean_s": round(_STATE["auto_mean"], 4),
        "auto_2e24_mean_s": round(_STATE["big_mean"], 4),
        "auto_2e28_mean_s": round(_STATE["ceiling_mean"], 4),
        "auto_2e20_maxdiff": _STATE["auto_maxdiff"],
        "row_cap_sweep_2e20_s": {
            str(cap): round(elapsed, 4)
            for cap, elapsed in _STATE["row_cap_sweep"].items()
        },
        "row_cap_fastest": _STATE["row_cap_best"],
        "default_chunk_size": DEFAULT_CHUNK_SIZE,
    })
    report(
        "=== ENUM-COMP: summary ===\n"
        f"  backend                  : {_STATE['auto_backend']}\n"
        f"  speedup vs reference 2^20: {speedup:.1f}x\n"
        f"  2^24 wall-clock          : {_STATE['big_mean']:.3f}s\n"
        f"  2^28 wall-clock          : {_STATE['ceiling_mean']:.3f}s\n"
        f"  fastest row cap at 2^20  : {_STATE['row_cap_best']}"
        f" (default {DEFAULT_CHUNK_SIZE})"
    )
    # Acceptance floors from the PR: >=5x at 2^20, 2^24 under a minute.
    assert speedup >= 5.0, f"vectorized backend only {speedup:.1f}x at 2^20"
    assert _STATE["big_mean"] < 60.0, (
        f"2^24 full matrix took {_STATE['big_mean']:.1f}s"
    )
