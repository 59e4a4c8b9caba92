"""The benchmark's correctness checks must be able to fail.

Each test injects one fault from outside the program — a tracker that
mislabels components, a wrong shard plan, a digest that does not match —
into a small version of a workload and asserts that the failure is
counted. The small versions keep each test to a few seconds.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import workloads as wl
from perfbench.layers import PER_LAYER, install
from perfbench.tracer import Patcher, Tracer


def tiny_scale():
    from repro.experiments.paper import ExperimentScale

    return ExperimentScale("tiny", 21, 200.0, 2_000.0, 2)


def tiny(name: str, seed: int):
    if name == "paper-sparse":
        return wl.PaperSparse(seed, scale=tiny_scale())
    if name == "paper-dense":
        # A ring partitions often, so a mislabelling tracker shows.
        return wl.PaperDense(seed, scale=tiny_scale(), chords=0)
    if name == "serve-correlated":
        return wl.ServeCorrelated(seed, n_requests=2_000)
    return wl.ShardZipf(seed, n_items=1_000, sites=8, accesses_per_batch=300.0,
                        warmup=50.0)


@pytest.fixture
def small_workloads(monkeypatch):
    for name in wl.WORKLOADS:
        monkeypatch.setitem(wl.WORKLOADS, name,
                            lambda seed, name=name: tiny(name, seed))


def checked(workload):
    ledger = wl.Ledger()
    try:
        out = workload.check_pass(ledger)
    finally:
        workload.close()
    return ledger, out


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_check_passes_on_the_program_as_it_is(name):
    ledger, out = checked(tiny(name, 3))
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures
    assert out.units > 0 and out.failed_units == 0


def test_mislabelling_tracker_fails_the_oracle(monkeypatch):
    import repro.simulation.engine as engine
    from repro.connectivity.dynamic import ComponentTracker

    class MislabellingTracker(ComponentTracker):
        """Claims every up site sits in one component."""

        @property
        def labels(self):
            labels = ComponentTracker.labels.fget(self).copy()
            labels[labels >= 0] = 0
            return labels

    monkeypatch.setattr(engine, "ComponentTracker", MislabellingTracker)
    ledger, _ = checked(tiny("paper-dense", 3))
    assert ledger.failed > 0
    assert any("tracker" in what for what in ledger.failures)


def test_wrong_shard_plan_fails_the_plan_check(monkeypatch):
    import repro.sharding.optimizer as optimizer

    original = optimizer.optimize_shards

    def off_by_one(*args, **kwargs):
        plan = original(*args, **kwargs)
        if "density" in kwargs:  # the closed-form reference stays right
            return plan
        quorums = plan.read_quorums
        return dataclasses.replace(
            plan, read_quorums=np.where(quorums > 1, quorums - 1, quorums + 1))

    monkeypatch.setattr(optimizer, "optimize_shards", off_by_one)
    ledger, _ = checked(tiny("shard-zipf", 3))
    assert ledger.failures.get(
        "shard: per-item quorums match the ring closed form") == 1


def test_plan_check_holds_availabilities_to_1e9():
    best = SimpleNamespace(read_quorum=2, availability=0.9)
    group = SimpleNamespace(alpha=0.5, votes=(1, 1, 1))
    plan = SimpleNamespace(groups=(group,), group_results=(best,),
                           read_quorums=np.array([2, 2]))
    near = SimpleNamespace(
        groups=(group,), read_quorums=np.array([2, 2]),
        group_results=(SimpleNamespace(read_quorum=2, availability=0.9 + 5e-10),))
    far = SimpleNamespace(
        groups=(group,), read_quorums=np.array([2, 2]),
        group_results=(SimpleNamespace(read_quorum=2, availability=0.9 + 5e-9),))
    ledger = wl.Ledger()
    wl.check_plan(ledger, plan, near)
    assert ledger.failed == 0
    wl.check_plan(ledger, plan, far)
    assert ledger.failed == 1


def test_digest_mismatch_between_runs_is_counted():
    workload = tiny("serve-correlated", 3)
    ledger = wl.Ledger()
    try:
        samples = bench.repeat(workload, ledger, "0" * 64, budget=0.0)
    finally:
        workload.close()
    assert len(samples) == 1
    assert ledger.failures == {"digest equals the check pass's digest": 1}


def _args(name, seed, trace=0):
    return SimpleNamespace(workload=name, seed=seed, seconds=0.0, trace=trace,
                           record_baseline=False)


def _baseline(tmp_path, monkeypatch, kernels, digests):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"fingerprint": {}, "kernels": kernels,
                                "digests": digests}))
    monkeypatch.setattr(bench, "BASELINE", path)
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(bench, "measure_setup", lambda name, seed: [0.5])


def test_default_seed_digest_must_match_the_baseline(
        tmp_path, monkeypatch, small_workloads):
    kernels = wl.kernel_ids()
    _baseline(tmp_path, monkeypatch, kernels, {"paper-sparse": "f" * 64})
    result = bench.run(_args("paper-sparse", wl.DEFAULT_SEED))
    assert result["failed"] == 1 and not result["correct"]
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}


def test_differing_kernel_ids_are_refused(tmp_path, monkeypatch, small_workloads):
    kernels = {key: "some-other-kernel" for key in wl.kernel_ids()}
    _baseline(tmp_path, monkeypatch, kernels, {})
    result = bench.run(_args("paper-sparse", 1))
    assert result["failed"] == len(kernels) and not result["correct"]


@pytest.mark.parametrize("name, busy", [
    ("paper-sparse", ("connectivity.refreshes", "simulation.events",
                      "protocols.grant_masks_s", "experiments.chords-0_s")),
    ("serve-correlated", ("replication.reads", "telemetry.observations",
                          "faults.chaos_events", "serving.self_s")),
    ("shard-zipf", ("analytic.states", "sharding.groups", "sharding.sample_s")),
])
def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch,
                                               small_workloads, name, busy):
    kernels = dict(wl.kernel_ids(), shard_enumeration="reference")
    _baseline(tmp_path, monkeypatch, kernels, {})
    result = bench.run(_args(name, 1, trace=1))
    assert result["correct"], result
    assert set(result["metrics"]) == {key for key, _ in PER_LAYER}
    assert all(result["metrics"][key]["value"] > 0 for key in busy)
    assert result["metrics"]["trace.coverage_frac"]["value"] >= bench.COVERAGE_FLOOR
    assert (tmp_path / "out" / f"spans-{name}-seed1.json").is_file()


def test_dropping_a_hot_wrapper_fails_the_coverage_check(
        tmp_path, monkeypatch, capsys, small_workloads):
    import perfbench.layers as layers
    from repro.simulation.engine import SimulationEngine

    full_install = layers.install

    def without_simulation_loop(tracer, patcher):
        full_install(tracer, patcher)
        wrapper = SimulationEngine.__dict__["run_batch"]
        setattr(SimulationEngine, "run_batch", wrapper.__wrapped__)

    monkeypatch.setattr(layers, "install", without_simulation_loop)
    _baseline(tmp_path, monkeypatch, wl.kernel_ids(), {})
    result = bench.run(_args("paper-sparse", 1, trace=1))
    coverage = result["metrics"]["trace.coverage_frac"]["value"]
    assert coverage < bench.COVERAGE_FLOOR
    assert not result["correct"]
    assert f"trace coverage >= {bench.COVERAGE_FLOOR}" in capsys.readouterr().out


def test_optimizer_bypassing_the_reported_kernel_is_refused(
        tmp_path, monkeypatch, capsys, small_workloads):
    import repro.sharding.optimizer as optimizer
    from repro.analytic.enumeration import enumerate_density_matrix_reference
    from repro.topology.model import Topology

    def direct(topology, group, p, r, engine, n_samples, seed):
        revoted = Topology(topology.n_sites,
                           [(link.a, link.b) for link in topology.links],
                           votes=group.votes)
        return enumerate_density_matrix_reference(
            revoted, np.full(topology.n_sites, p), np.full(topology.n_links, r))

    monkeypatch.setattr(optimizer, "_group_density", direct)
    kernels = dict(wl.kernel_ids(), shard_enumeration="reference")
    _baseline(tmp_path, monkeypatch, kernels, {})
    result = bench.run(_args("shard-zipf", 1))
    assert result["failed"] == 1 and not result["correct"]
    assert ("kernel shard_enumeration is the baseline's 'reference' (got None)"
            in capsys.readouterr().out)


def test_failed_check_fails_the_command(tmp_path, monkeypatch, small_workloads):
    _baseline(tmp_path, monkeypatch, {"enum_auto": "some-other-kernel"}, {})
    assert bench.main(["--workload", "serve-correlated", "--seed", "1",
                       "--seconds", "0"]) == 1


def test_untraced_code_is_restored_after_tracing():
    import repro.connectivity.dynamic as dynamic
    import repro.serving.service as service

    before = (dict(vars(dynamic.ComponentTracker)), service.run_serve)
    tracer, patcher = Tracer(), Patcher()
    install(tracer, patcher)
    assert service.run_serve is not before[1]
    patcher.restore()
    assert (dict(vars(dynamic.ComponentTracker)), service.run_serve) == before
