"""The benchmark's four workloads and the correctness checks on their outputs.

Each workload is built once from a seed (its set-up), then run many
times. :meth:`Workload.run` is the only timed call; everything else —
digests, counts, the check pass with its oracles — runs outside the
timer. Workloads call the program through module attributes (never
names bound at import) so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from perfbench.tracer import Patcher

__all__ = [
    "DEFAULT_SEED",
    "Ledger",
    "Outcome",
    "WORKLOADS",
    "TrackerOracle",
    "kernel_ids",
    "make_workload",
]

#: The seed whose output digests ``baseline.json`` records.
DEFAULT_SEED = 0


class Ledger:
    """Attempted and failed units: batches, runs and correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1
        return ok

    def units(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures[what] = self.failures.get(what, 0) + failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark reports."""

    digest: str
    accesses: float
    events: float
    units: int
    failed_units: int = 0
    #: Wall seconds of the part of the run that applies the events, when
    #: that is not the whole run (``None``: the whole run).
    event_wall: Optional[float] = None


def kernel_ids() -> Dict[str, str]:
    """Kernels the program resolves on this machine (no workload run)."""
    from repro.analytic.enumeration import resolve_backend

    return {"enum_auto": resolve_backend("auto")}


def _hash_floats(h, *values) -> None:
    h.update(np.asarray(values, dtype=np.float64).tobytes())


def _hash_array(h, array) -> None:
    array = np.ascontiguousarray(array)
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())


def _same_partition(labels: np.ndarray, oracle: np.ndarray) -> bool:
    if not np.array_equal(labels < 0, oracle < 0):
        return False
    up = oracle >= 0
    if not up.any():
        return True
    pairs = np.unique(np.stack([labels[up], oracle[up]]), axis=1).shape[1]
    return pairs == np.unique(labels[up]).size == np.unique(oracle[up]).size


class TrackerOracle:
    """Change observer: the tracker must agree with a full relabel.

    Called by the simulation engine after every applied network change;
    compares the tracker's partition and per-site vote totals with
    ``component_labels``/``component_vote_totals`` computed from scratch.
    """

    def __init__(self, ledger: Ledger) -> None:
        from repro.connectivity import components

        self.ledger = ledger
        self._components = components

    def __call__(self, now, tracker, protocol) -> None:
        state = tracker.state
        oracle = self._components.component_labels(
            state.topology, state.site_up, state.link_up
        )
        totals = self._components.component_vote_totals(oracle, tracker.votes)
        self.ledger.check(
            "tracker partition and vote totals match a full relabel",
            _same_partition(tracker.labels, oracle)
            and np.array_equal(tracker.vote_totals, totals),
        )


class Workload:
    """Set up once from a seed; :meth:`run` is the timed call."""

    name = ""
    #: Kernel ids the check pass must resolve, beside ``kernel_ids()``.
    KERNELS: Tuple[str, ...] = ()
    #: Kernel ids this workload resolved during its check pass.
    kernels: Dict[str, str]

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.kernels = {}
        self._patcher = Patcher()

    def prepare(self) -> None:
        """Untimed reset before each run: a fresh process has a cold cache."""
        from repro.analytic import cache

        cache.get_cache().clear()

    def run(self):
        raise NotImplementedError

    def outcome(self, raw) -> Outcome:
        raise NotImplementedError

    def check_pass(self, ledger: Ledger) -> Outcome:
        """One untimed run under the workload's oracles and output checks."""
        raise NotImplementedError

    def close(self) -> None:
        self._patcher.restore()


# ----------------------------------------------------------------------
# The paper's campaign
# ----------------------------------------------------------------------
class _PaperWorkload(Workload):
    """Shared plumbing of the two workloads that run the paper's simulation.

    ``run_simulation`` is routed through a shim that passes
    ``fail_fast=False``, so a failing batch is quarantined and counted
    rather than fatal, and that attaches the check pass's change
    observer.
    """

    def __init__(self, seed: int, scale) -> None:
        super().__init__(seed)
        self.scale = scale
        self.observer: Optional[Callable] = None

        def make(original):
            def keep_going(config, protocol, *args, **kwargs):
                kwargs.setdefault("fail_fast", False)
                if self.observer is not None:
                    kwargs["change_observer"] = self.observer
                return original(config, protocol, *args, **kwargs)
            return keep_going

        importlib.import_module("repro.experiments.campaign")
        self._patcher.function("repro.simulation.runner", "run_simulation", make)

    @staticmethod
    def _hash_figure(h, fig) -> None:
        result = fig.result
        for b in result.batches:
            _hash_floats(h, b.reads_submitted, b.reads_granted,
                         b.writes_submitted, b.writes_granted, b.surv_read,
                         b.surv_write, b.measured_time, b.n_epochs, b.n_events)
        _hash_array(h, result.density_matrix("time"))
        _hash_array(h, result.density_matrix("access"))
        _hash_array(h, result.max_component_density())
        for series in fig.series:
            _hash_array(h, series.availability)
        h.update(f"quarantined={len(result.quarantined)}".encode())

    @staticmethod
    def _tally(figures) -> Dict[str, float]:
        batches = [b for fig in figures for b in fig.result.batches]
        quarantined = sum(len(fig.result.quarantined) for fig in figures)
        return dict(
            accesses=sum(b.accesses_submitted for b in batches),
            events=float(sum(b.n_events for b in batches)),
            units=len(batches) + quarantined,
            failed_units=quarantined,
        )

    def check_pass(self, ledger: Ledger) -> Outcome:
        self.observer = TrackerOracle(ledger)
        try:
            self.prepare()
            raw = self.run()
        finally:
            self.observer = None
        return self.outcome(raw)


class PaperSparse(_PaperWorkload):
    """``run_campaign``: topologies 0-256 on 101 sites plus the 5.4/5.5 tables."""

    name = "paper-sparse"

    def __init__(self, seed: int, scale=None) -> None:
        from repro.experiments.paper import ExperimentScale

        if scale is None:
            scale = ExperimentScale("perfbench-sparse", 101, 1_000.0, 15_000.0, 2)
        super().__init__(seed, scale)
        self._campaign = importlib.import_module("repro.experiments.campaign")

    def run(self):
        return self._campaign.run_campaign(scale=self.scale, seed=self.seed)

    def outcome(self, raw) -> Outcome:
        h = hashlib.sha256()
        for number, fig in raw.figures:
            h.update(f"figure {number} {fig.topology_name}".encode())
            self._hash_figure(h, fig)
        for row in raw.write_constraint_rows + raw.rw_rows:
            h.update(repr(row).encode())
        figures = [fig for _, fig in raw.figures]
        return Outcome(digest=h.hexdigest(), **self._tally(figures))


class PaperDense(_PaperWorkload):
    """``figure_data`` on the fully connected topology (4949 chords)."""

    name = "paper-dense"

    def __init__(self, seed: int, scale=None, chords: int = 4949) -> None:
        from repro.experiments.paper import ExperimentScale

        if scale is None:
            scale = ExperimentScale("perfbench-dense", 101, 150.0, 1_500.0, 2)
        super().__init__(seed, scale)
        self.chords = chords
        self._figures = importlib.import_module("repro.experiments.figures")

    def run(self):
        return self._figures.figure_data(
            chords=self.chords, scale=self.scale, seed=self.seed
        )

    def outcome(self, raw) -> Outcome:
        h = hashlib.sha256()
        h.update(raw.topology_name.encode())
        self._hash_figure(h, raw)
        return Outcome(digest=h.hexdigest(), **self._tally([raw]))


# ----------------------------------------------------------------------
# Adaptive serving
# ----------------------------------------------------------------------
class ServeCorrelated(Workload):
    """``run_serve`` on ring-13 + 2 chords, correlated chaos, 2 clients."""

    name = "serve-correlated"
    SITES = 13
    N_CLIENTS = 2

    def __init__(self, seed: int, n_requests: int = 20_000) -> None:
        super().__init__(seed)
        from repro.quorum.assignment import QuorumAssignment
        from repro.serving import ServeConfig, serving_schedule
        from repro.simulation.workload import AccessWorkload
        from repro.topology.generators import ring_with_chords

        topology = ring_with_chords(self.SITES, 2)
        self.config = ServeConfig(
            topology=topology,
            workload=AccessWorkload.uniform(self.SITES, 0.7),
            initial_assignment=QuorumAssignment.from_read_quorum(
                topology.total_votes, 1
            ),
            n_requests=n_requests,
            n_clients=self.N_CLIENTS,
            seed=self.seed,
            scenario="correlated",
        )
        self.config.fault_schedule = serving_schedule(
            "correlated", topology, self.config.horizon
        )
        self._service = importlib.import_module("repro.serving.service")
        #: Network events the run applies (counted in the check pass).
        self.chaos_events = 0

    def run(self):
        return self._service.run_serve(self.config)

    def outcome(self, report) -> Outcome:
        return Outcome(
            digest=report.digest(),
            accesses=float(report.served),
            events=float(self.chaos_events),
            units=1,
        )

    def check_pass(self, ledger: Ledger) -> Outcome:
        from repro.replication.database import ReplicatedDatabase

        events = [0]

        def make(original):
            def counted(*args, **kwargs):
                events[0] += 1
                return original(*args, **kwargs)
            return counted

        with Patcher() as patcher:
            for attr in ("fail_site", "repair_site", "fail_link", "repair_link"):
                patcher.method(ReplicatedDatabase, attr, make)
            self.prepare()
            report = self.run()
        self.chaos_events = events[0]
        ledger.check("serve: audit reconciliation is exact", report.reconciled)
        ledger.check("serve: no invariant violations", not report.violations)
        ledger.check("serve: verdict is PASS", report.passed)
        return self.outcome(report)


# ----------------------------------------------------------------------
# Sharded multi-item database
# ----------------------------------------------------------------------
class ShardZipf(Workload):
    """``optimize_shards`` + ``run_sharded`` on ring-11, Zipf items, 5 classes.

    Ring-11 has 22 fallible components, the optimizer's cap for exact
    enumeration, so each vote class's plan comes from a 2^22-state
    enumeration. That fixed cost is most of a run, which keeps the run
    time from following the seed-dependent number of failure events.
    """

    name = "shard-zipf"
    KERNELS = ("shard_enumeration",)
    ALPHA_CLASSES = (0.1, 0.3, 0.5, 0.7, 0.9)
    N_BATCHES = 2
    #: Site and link reliability.
    P = R = 0.96

    def __init__(self, seed: int, n_items: int = 10_000, sites: int = 11,
                 accesses_per_batch: float = 1_500.0,
                 warmup: float = 200.0) -> None:
        super().__init__(seed)
        from repro.sharding import ItemWorkload, ShardConfig
        from repro.topology.generators import ring

        self.topology = ring(sites)
        rng = np.random.default_rng(self.seed)
        self.alphas = rng.permutation(
            np.resize(np.asarray(self.ALPHA_CLASSES), n_items)
        )
        self.workload = ItemWorkload.zipf(n_items, sites, self.alphas, exponent=1.0)
        self.shard_config = dict(
            topology=self.topology,
            workload=self.workload,
            warmup_accesses=warmup,
            accesses_per_batch=accesses_per_batch,
            n_batches=self.N_BATCHES,
            seed=self.seed,
        )
        self._ShardConfig = ShardConfig
        self._optimizer = importlib.import_module("repro.sharding.optimizer")
        self._runner = importlib.import_module("repro.sharding.runner")

    def run(self):
        plan = self._optimizer.optimize_shards(
            self.topology, self.alphas, self.P, self.R, seed=self.seed
        )
        config = self._ShardConfig(read_quorums=plan.read_quorums,
                                   **self.shard_config)
        started = perf_counter()
        result = self._runner.run_sharded(config)
        return plan, result, perf_counter() - started

    def outcome(self, raw) -> Outcome:
        plan, result, simulated = raw
        h = hashlib.sha256()
        _hash_array(h, plan.read_quorums)
        _hash_array(h, plan.availabilities)
        for best in plan.group_results:
            _hash_floats(h, best.read_quorum, best.availability)
        for b in result.batches:
            for name in ("reads_submitted", "reads_granted", "writes_submitted",
                         "writes_granted", "surv_read_time", "surv_write_time",
                         "density_time", "density_access"):
                _hash_array(h, getattr(b, name))
            _hash_floats(h, b.measured_time, b.n_epochs, b.n_events)
        return Outcome(
            digest=h.hexdigest(),
            accesses=float(sum(int(b.reads_submitted.sum() + b.writes_submitted.sum())
                               for b in result.batches)),
            events=float(sum(b.n_events for b in result.batches)),
            units=len(result.batches),
            event_wall=simulated,
        )

    def check_pass(self, ledger: Ledger) -> Outcome:
        from repro.analytic import closed_form_density
        from repro.analytic.enumeration import resolve_backend

        def make(original):
            def recorded(*args, **kwargs):
                self.kernels["shard_enumeration"] = resolve_backend(
                    kwargs.get("backend"))
                return original(*args, **kwargs)
            return recorded

        with Patcher() as patcher:
            patcher.function("repro.analytic.enumeration",
                             "enumerate_density_matrix", make)
            self.prepare()
            raw = self.run()
        plan, result, _ = raw
        closed = self._optimizer.optimize_shards(
            self.topology, self.alphas,
            density=closed_form_density("ring", self.topology.n_sites,
                                        self.P, self.R),
        )
        check_plan(ledger, plan, closed)
        check_pooled_counts(ledger, result)
        return self.outcome(raw)


#: How far a plan's availabilities may lie from the closed-form plan's.
PLAN_TOLERANCE = 1e-9


def check_plan(ledger: Ledger, plan, reference) -> None:
    """Per-class quorums equal and availabilities within ``PLAN_TOLERANCE``."""
    ledger.check(
        "shard: plan has the reference's classes",
        len(plan.groups) == len(reference.groups)
        and all(a.alpha == b.alpha and a.votes == b.votes
                for a, b in zip(plan.groups, reference.groups)),
    )
    for ours, theirs in zip(plan.group_results, reference.group_results):
        ledger.check(
            "shard: per-class plan matches the ring closed form",
            ours.read_quorum == theirs.read_quorum
            and abs(ours.availability - theirs.availability) <= PLAN_TOLERANCE,
        )
    ledger.check(
        "shard: per-item quorums match the ring closed form",
        np.array_equal(plan.read_quorums, reference.read_quorums),
    )


def check_pooled_counts(ledger: Ledger, result) -> None:
    """Pooled counts equal the sums of the per-batch, per-item counts."""
    for name in ("reads_submitted", "reads_granted",
                 "writes_submitted", "writes_granted"):
        per_item = np.sum([getattr(b, name) for b in result.batches], axis=0)
        ledger.check(f"shard: pooled {name} equals the per-item sum",
                     np.array_equal(getattr(result, name), per_item))
    submitted = sum(int(b.reads_submitted.sum() + b.writes_submitted.sum())
                    for b in result.batches)
    granted = sum(int(b.reads_granted.sum() + b.writes_granted.sum())
                  for b in result.batches)
    ledger.check("shard: pooled ACC equals granted / submitted item accesses",
                 submitted > 0 and result.availability == granted / submitted)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    PaperSparse.name: PaperSparse,
    PaperDense.name: PaperDense,
    ServeCorrelated.name: ServeCorrelated,
    ShardZipf.name: ShardZipf,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
