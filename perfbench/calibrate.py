"""A fixed calibration kernel: how fast this machine runs right now.

The kernel is the benchmark's own code and never changes with the
program. It mixes the three kinds of work the workloads do — pure-Python
graph search (the connectivity tracker), many small NumPy operations
(per-epoch grant masks and density updates) and larger vectorized
NumPy passes (item sampling and state enumeration) — so that a slow
spell of a shared machine slows it much as it slows a workload.
``perfbench/NOTES.md`` records how closely it tracked the workloads.

The benchmark times the kernel just before and just after each timed
run and scales the run's wall time by ``REFERENCE_S`` over their mean:
reported times are wall times at the speed where one kernel unit takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "unit_seconds"]

#: Seconds one kernel unit takes at the reference speed.
REFERENCE_S = 0.1

_N = 512
_RING = [[(i - 1) % _N, (i + 1) % _N, (i * 7 + 3) % _N] for i in range(_N)]


def _graph_search(rounds: int) -> int:
    reached = 0
    for start in range(rounds):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in _RING[node]:
                if nxt not in seen and (nxt + start) % 5:
                    seen.add(nxt)
                    stack.append(nxt)
        reached += len(seen)
    return reached


def _small_arrays(steps: int) -> float:
    totals = np.arange(101, dtype=np.int64) % 17
    weights = np.zeros((101, 18))
    rows = np.arange(101)
    acc = 0.0
    for step in range(steps):
        mask = totals >= (step % 9)
        acc += float(totals[mask].sum())
        np.add.at(weights, (rows, totals), 1.0)
        totals = np.roll(totals, 1)
    return acc + float(weights.sum())


def _large_arrays(passes: int) -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(passes):
        draws = rng.poisson(0.3, size=(2_000, 11))
        acc += float(np.bincount(draws.ravel(), minlength=8)[:8].sum())
        acc += float(np.cumsum(draws, axis=1)[:, -1].mean())
    return acc


def calibrate() -> float:
    """Seconds one fixed unit of mixed work takes now (about 0.1 s)."""
    started = perf_counter()
    _graph_search(150)
    _small_arrays(1_500)
    _large_arrays(40)
    return perf_counter() - started


def unit_seconds(span: float) -> float:
    """Mean seconds per kernel unit, sampled for about ``span / 10`` s.

    Longer runs get longer samples (at least one unit, about 0.1 s), so
    the calibration's own noise stays small next to the run it scales.
    """
    budget = 0.1 * span
    units = []
    # Collections would scan whatever the last run left alive, so they
    # are settled first and kept out of the kernel's own timing.
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        while not units or perf_counter() - started < budget:
            units.append(calibrate())
    finally:
        gc.enable()
    return statistics.fmean(units)
