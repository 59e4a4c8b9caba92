"""ANA-KERN: vectorized analytic kernels vs their reference loops (DESIGN.md §10).

Three speedup measurements, every one gated on *bitwise identical*
output — the vectorized kernels are resequenced, not renumbered:

- **Enumeration** — the chunked bit-unpacked kernel
  (``backend="reference"``, named explicitly because the default
  ``auto`` resolves to the regrouped collapse-DFS) vs the retained
  per-state reference on a ring(8) (2^16 up/down states), plus a chunk
  sweep at 2^18 and a single 2^20 point showing the kernel holds its
  throughput where the reference loop would take minutes.
- **Vote scoring** — ``_StateSample.density_matrix`` (one scatter-add
  over the precomputed label matrix) vs the per-state reference loop,
  reported as candidates scored per second.
- **Vote search end-to-end** — ``optimize_votes`` with delta-scored
  hillclimb moves vs the same search fully re-scored by the reference
  loop; identical vote vectors and availabilities, very different
  wall-clock.

The density cache is disabled inside every timed callable so rounds
measure the kernels, never a cache hit.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from conftest import _BENCH_JSON, timed
from repro.analytic import cache as density_cache
from repro.analytic.enumeration import (
    enumerate_density_matrix,
    enumerate_density_matrix_reference,
)
from repro.quorum.vote_optimizer import _StateSample, optimize_votes
from repro.topology.generators import ring

#: ring(8): 8 sites + 8 links -> 2^16 enumerated states.
ENUM_TOPO = ring(8)
#: ring(9) -> 2^18 states for the chunk sweep; ring(10) -> 2^20.
SWEEP_TOPO = ring(9)
BIG_TOPO = ring(10)

ENUM_P, ENUM_R = 0.9, 0.8

#: Vote-scoring workload: one shared sample, a fixed batch of candidates.
SCORE_SITES = 8
SCORE_SAMPLES = 800
SCORE_CANDIDATES = 20

#: End-to-end search workload.
SEARCH_P = np.array([0.95, 0.95, 0.55, 0.95, 0.95, 0.55, 0.95, 0.95])

_STATE = {}


def _candidates():
    rng = np.random.default_rng(123)
    votes = rng.integers(0, 4, size=(SCORE_CANDIDATES, SCORE_SITES))
    votes[:, 0] = np.maximum(votes[:, 0], 1)
    return votes


def test_enum_reference_2e16(benchmark, report):
    matrix = timed(
        benchmark,
        lambda: enumerate_density_matrix_reference(ENUM_TOPO, ENUM_P, ENUM_R),
    )
    _STATE["enum_ref_mean"] = benchmark.stats.stats.mean
    _STATE["enum_ref_matrix"] = matrix
    report(f"=== ANA-KERN: enumeration reference, 2^16 states ===\n"
           f"  mean {benchmark.stats.stats.mean:.3f}s")


def test_enum_vectorized_2e16(benchmark, report):
    def run():
        with density_cache.disabled():
            return enumerate_density_matrix(ENUM_TOPO, ENUM_P, ENUM_R,
                                            backend="reference")

    matrix = timed(benchmark, run)
    _STATE["enum_vec_mean"] = benchmark.stats.stats.mean
    np.testing.assert_array_equal(matrix, _STATE["enum_ref_matrix"])
    report(f"=== ANA-KERN: enumeration vectorized, 2^16 states ===\n"
           f"  bitwise identical to reference, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_enum_chunk_sweep_2e18(benchmark, report):
    def run():
        with density_cache.disabled():
            return {
                chunk: enumerate_density_matrix(
                    SWEEP_TOPO, ENUM_P, ENUM_R, chunk_size=chunk,
                    backend="reference",
                )
                for chunk in (2_048, 8_192, 32_768)
            }

    matrices = timed(benchmark, run)
    first = matrices[2_048]
    for matrix in matrices.values():
        np.testing.assert_array_equal(matrix, first)
    report(f"=== ANA-KERN: chunk sweep (2k/8k/32k), 2^18 states ===\n"
           f"  all chunk sizes bitwise identical, "
           f"combined mean {benchmark.stats.stats.mean:.2f}s")


def test_enum_vectorized_2e20(benchmark, report):
    def run():
        with density_cache.disabled():
            return enumerate_density_matrix(BIG_TOPO, ENUM_P, ENUM_R,
                                            backend="reference")

    timed(benchmark, run)
    _STATE["enum_big_mean"] = benchmark.stats.stats.mean
    report(f"=== ANA-KERN: enumeration vectorized, 2^20 states ===\n"
           f"  mean {benchmark.stats.stats.mean:.2f}s")


def test_vote_scoring_reference(benchmark, report):
    sample = _StateSample(ring(SCORE_SITES), SEARCH_P, 0.85,
                          n_samples=SCORE_SAMPLES, seed=42)
    candidates = _candidates()
    _STATE["score_sample"] = sample

    def run():
        return [sample.density_matrix_reference(v) for v in candidates]

    matrices = timed(benchmark, run)
    _STATE["score_ref_mean"] = benchmark.stats.stats.mean
    _STATE["score_ref_matrices"] = matrices
    rate = SCORE_CANDIDATES / benchmark.stats.stats.mean
    report(f"=== ANA-KERN: vote scoring reference loop ===\n"
           f"  {SCORE_SAMPLES} states x {SCORE_CANDIDATES} candidates, "
           f"{rate:.0f} candidates/s")


def test_vote_scoring_batched(benchmark, report):
    sample = _STATE["score_sample"]
    candidates = _candidates()

    def run():
        return [sample.density_matrix(v) for v in candidates]

    matrices = timed(benchmark, run)
    _STATE["score_batched_mean"] = benchmark.stats.stats.mean
    for got, want in zip(matrices, _STATE["score_ref_matrices"]):
        np.testing.assert_array_equal(got, want)
    rate = SCORE_CANDIDATES / benchmark.stats.stats.mean
    report(f"=== ANA-KERN: vote scoring batched scatter-add ===\n"
           f"  bitwise identical, {rate:.0f} candidates/s")


def _search(scoring):
    return optimize_votes(ring(SCORE_SITES), alpha=0.5, p=SEARCH_P, r=0.85,
                          n_samples=SCORE_SAMPLES, seed=7, scoring=scoring)


def test_optimize_votes_reference(benchmark, report):
    result = timed(benchmark, lambda: _search("reference"))
    _STATE["search_ref_mean"] = benchmark.stats.stats.mean
    _STATE["search_ref_result"] = result
    report(f"=== ANA-KERN: optimize_votes, reference scoring ===\n"
           f"  votes {result.votes}, mean {benchmark.stats.stats.mean:.2f}s")


def test_optimize_votes_delta(benchmark, report):
    result = timed(benchmark, lambda: _search("delta"))
    _STATE["search_delta_mean"] = benchmark.stats.stats.mean
    ref = _STATE["search_ref_result"]
    assert result.votes == ref.votes
    assert result.availability == ref.availability
    assert result.candidates_evaluated == ref.candidates_evaluated
    report(f"=== ANA-KERN: optimize_votes, delta scoring ===\n"
           f"  identical search trajectory, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_kernel_summary(report):
    enum_speedup = _STATE["enum_ref_mean"] / _STATE["enum_vec_mean"]
    score_speedup = _STATE["score_ref_mean"] / _STATE["score_batched_mean"]
    search_speedup = _STATE["search_ref_mean"] / _STATE["search_delta_mean"]
    _BENCH_JSON.setdefault("analytic_kernels", []).append({
        "test": "kernel_summary",
        "enumeration_speedup_2e16": round(enum_speedup, 3),
        "enumeration_2e20_mean_s": round(_STATE["enum_big_mean"], 4),
        "vote_scoring_speedup": round(score_speedup, 3),
        "optimize_votes_speedup": round(search_speedup, 3),
        "bitwise_identical": True,
    })
    report(
        "=== ANA-KERN: summary ===\n"
        f"  enumeration speedup (2^16)    : {enum_speedup:.1f}x\n"
        f"  enumeration 2^20 wall-clock   : {_STATE['enum_big_mean']:.2f}s\n"
        f"  vote scoring speedup          : {score_speedup:.1f}x\n"
        f"  optimize_votes delta speedup  : {search_speedup:.1f}x"
    )
    # Pure vectorization: these floors must hold on any machine.
    assert enum_speedup >= 10.0, f"enumeration only {enum_speedup:.1f}x"
    assert search_speedup >= 5.0, f"vote search only {search_speedup:.1f}x"
