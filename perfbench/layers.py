"""Which ``repro`` entry points the traced run wraps, and what it reports.

:func:`install` wraps the public entry points of each ``src/repro``
module named in the layer table of ``perfbench/NOTES.md``; every wrapper
opens a span named ``<layer>.<what>`` or bumps a counter.
:func:`layer_metrics` turns one traced iteration's spans and counters
into the per-layer metrics of ``BENCHMARK.json``.

The workload's own entry points (a campaign, a figure, a serving run, a
shard plan or run) are wrapped too, but only to attribute time: their
self time is not inside any layer, so ``trace.coverage_frac`` counts
only the time under the layer spans below them.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

import numpy as np

from perfbench.tracer import Patcher, Tracer, covered_time, self_times, span_wrapper

__all__ = ["CHORD_COUNTS", "ENTRY_SPANS", "PER_LAYER", "install", "layer_metrics"]

#: The paper's topologies (ring + this many chords; 4949 = fully connected).
CHORD_COUNTS = (0, 1, 2, 4, 16, 256, 4949)

#: Spans of the workloads' entry points; the time they cover is not
#: layer time (see ``trace.coverage_frac``).
ENTRY_SPANS = frozenset((
    "experiments.campaign",
    "experiments.figure",
    *(f"experiments.chords-{c}" for c in CHORD_COUNTS),
    "serving.run",
    "sharding.optimize",
    "sharding.run",
))

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("connectivity.refreshes", "count"),
    ("connectivity.refresh_fail_s", "s"),
    ("connectivity.refresh_repair_s", "s"),
    ("connectivity.refresh_p50_us", "us"),
    ("connectivity.refresh_p99_us", "us"),
    ("connectivity.full_recomputes", "count"),
    ("connectivity.incremental_share", "ratio"),
    ("simulation.events", "count"),
    ("simulation.epochs", "count"),
    ("simulation.sample_s", "s"),
    ("simulation.loop_self_s", "s"),
    ("protocols.grant_masks_s", "s"),
    ("protocols.on_change_s", "s"),
    ("protocols.density_observe_s", "s"),
    ("protocols.reassignments", "count"),
    ("quorum.model_s", "s"),
    ("quorum.optimize_s", "s"),
    ("quorum.optimizations", "count"),
    ("experiments.tables_s", "s"),
    *((f"experiments.chords-{c}_s", "s") for c in CHORD_COUNTS),
    ("analytic.enumerate_s", "s"),
    ("analytic.states", "count"),
    ("analytic.states_per_s", "1/s"),
    ("sharding.optimize_s", "s"),
    ("sharding.sample_s", "s"),
    ("sharding.engine_self_s", "s"),
    ("sharding.groups", "count"),
    ("replication.reads", "count"),
    ("replication.writes", "count"),
    ("replication.read_s", "s"),
    ("replication.write_s", "s"),
    ("replication.granted_share", "ratio"),
    ("serving.self_s", "s"),
    ("serving.attempts_per_request", "ratio"),
    ("serving.retries", "count"),
    ("serving.breaker_rejections", "count"),
    ("faults.monitor_s", "s"),
    ("faults.chaos_events", "count"),
    ("telemetry.observe_s", "s"),
    ("telemetry.observations", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)

#: Modules whose classes and functions the wrappers reach.
_MODULES = (
    "repro.connectivity.dynamic",
    "repro.simulation.engine",
    "repro.simulation.workload",
    "repro.protocols.base",
    "repro.protocols.estimator",
    "repro.protocols.majority",
    "repro.protocols.quorum_consensus",
    "repro.protocols.reassignment",
    "repro.quorum.availability",
    "repro.quorum.optimizer",
    "repro.quorum.constraints",
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.campaign",
    "repro.analytic.enumeration",
    "repro.sharding.optimizer",
    "repro.sharding.workload",
    "repro.sharding.engine",
    "repro.sharding.runner",
    "repro.replication.database",
    "repro.serving.service",
    "repro.faults.monitor",
    "repro.telemetry.metrics",
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


def _count_free(value, count: int) -> int:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return count if 0.0 < float(arr) < 1.0 else 0
    return int(((arr > 0.0) & (arr < 1.0)).sum())


def _install_tracker(tracer: Tracer, patcher: Patcher, mod) -> None:
    """Spans around the tracker getters, kept only when they refreshed.

    Between network changes the getters are O(1) lookups; a span is
    recorded only when the tracker's own maintenance counters
    (``n_incremental``/``n_full``) show that the call refreshed. Each
    refresh is labelled by its change journal: ``fail`` when the journal
    since the previous refresh holds a failure, ``repair`` otherwise
    (repairs, no-op flips, the first labelling of a new tracker).
    """
    cls = mod.ComponentTracker
    probe = tracer.name_id("connectivity.refresh")
    fail = tracer.name_id("connectivity.refresh.fail")
    repair = tracer.name_id("connectivity.refresh.repair")
    seen: Dict[int, int] = {}

    def make_init(original):
        def wrapper(self, *args, **kwargs):
            seen.pop(id(self), None)
            original(self, *args, **kwargs)
        return wrapper

    def make_getter(original):
        open_, close, cancel = tracer.open, tracer.close, tracer.cancel

        def wrapper(self):
            version = self.state.version
            previous = seen.get(id(self))
            if previous == version:
                return original(self)
            before_full = self.n_full
            before = self.n_incremental + before_full
            index = open_(probe)
            try:
                value = original(self)
            finally:
                close(index)
            seen[id(self)] = version
            if self.n_incremental + self.n_full == before:
                cancel(index)
                return value
            changes = (
                self.state.changes_since(previous) if previous is not None else None
            )
            failed = bool(changes) and any(
                c.was_up and not c.up for c in changes
            )
            tracer.span_name[index] = fail if failed else repair
            tracer.count("connectivity.full_recomputes", self.n_full - before_full)
            return value
        return wrapper

    patcher.method(cls, "__init__", make_init)
    patcher.getter(cls, "labels", make_getter)
    patcher.getter(cls, "vote_totals", make_getter)


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced entry point (undone by ``patcher.restore()``)."""
    mods = {name: importlib.import_module(name) for name in _MODULES}

    def m(name):
        return mods["repro." + name]

    _install_tracker(tracer, patcher, m("connectivity.dynamic"))

    # -- simulation ----------------------------------------------------
    def after_batch(args, kwargs, result):
        tracer.count("simulation.events", result.n_events)
        tracer.count("simulation.epochs", result.n_epochs)

    patcher.method(m("simulation.engine").SimulationEngine, "run_batch",
                   span_wrapper(tracer, "simulation.loop", after_batch))
    patcher.method(m("simulation.workload").AccessWorkload, "sample_epoch",
                   span_wrapper(tracer, "simulation.sample"))

    # -- protocols -----------------------------------------------------
    base = m("protocols.base").ReplicaControlProtocol
    for cls in _subclasses(base):
        for attr, name in (("grant_masks", "protocols.grant_masks"),
                           ("on_network_change", "protocols.on_change")):
            if attr in cls.__dict__:
                patcher.method(cls, attr, span_wrapper(tracer, name))
    estimator = m("protocols.estimator").OnlineDensityEstimator
    for attr in ("observe", "observe_all", "observe_counts"):
        patcher.method(estimator, attr,
                       span_wrapper(tracer, "protocols.density_observe"))

    def after_reassign(args, kwargs, result):
        if result:
            tracer.count("protocols.reassignments")

    patcher.method(m("protocols.reassignment").QuorumReassignmentProtocol,
                   "try_reassign", span_wrapper(tracer, "protocols.reassign",
                                                after_reassign))

    # -- quorum --------------------------------------------------------
    model = m("quorum.availability").AvailabilityModel
    patcher.method(model, "__post_init__", span_wrapper(tracer, "quorum.model"))
    patcher.class_method(model, "from_density_matrix",
                         span_wrapper(tracer, "quorum.model"))
    for attr in ("curve", "availability", "read_availability",
                 "write_availability_at"):
        patcher.method(model, attr, span_wrapper(tracer, "quorum.model"))

    def after_optimize(args, kwargs, result):
        tracer.count("quorum.optimizations")

    patcher.function("repro.quorum.optimizer", "optimal_read_quorum",
                     span_wrapper(tracer, "quorum.optimize", after_optimize))
    patcher.function("repro.quorum.constraints", "optimize_with_write_floor",
                     span_wrapper(tracer, "quorum.optimize", after_optimize))

    # -- experiments ---------------------------------------------------
    def make_figure(original):
        names = {c: tracer.name_id(f"experiments.chords-{c}") for c in CHORD_COUNTS}
        other = tracer.name_id("experiments.figure")

        def wrapper(*args, **kwargs):
            index = tracer.open(names.get(kwargs.get("chords"), other))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper

    patcher.function("repro.experiments.figures", "figure_data", make_figure)
    for attr in ("write_constraint_table", "read_write_ratio_table"):
        patcher.function("repro.experiments.tables", attr,
                         span_wrapper(tracer, "experiments.tables"))
    patcher.function("repro.experiments.campaign", "run_campaign",
                     span_wrapper(tracer, "experiments.campaign"))

    # -- analytic ------------------------------------------------------
    def after_enumerate(args, kwargs, result):
        topology = args[0]
        p = args[1] if len(args) > 1 else kwargs["p"]
        r = args[2] if len(args) > 2 else kwargs["r"]
        free = (_count_free(p, topology.n_sites)
                + _count_free(r, topology.n_links))
        tracer.count("analytic.states", float(2 ** free))

    patcher.function("repro.analytic.enumeration", "enumerate_density_matrix",
                     span_wrapper(tracer, "analytic.enumerate", after_enumerate))

    # -- sharding ------------------------------------------------------
    def after_plan(args, kwargs, result):
        tracer.count("sharding.groups", len(result.groups))

    patcher.function("repro.sharding.optimizer", "optimize_shards",
                     span_wrapper(tracer, "sharding.optimize", after_plan))
    patcher.method(m("sharding.workload").ItemWorkload, "sample_epoch",
                   span_wrapper(tracer, "sharding.sample"))
    patcher.method(m("sharding.engine")._ShardEngineBase, "run_batch",
                   span_wrapper(tracer, "sharding.engine"))
    patcher.function("repro.sharding.runner", "run_sharded",
                     span_wrapper(tracer, "sharding.run"))

    # -- replication ---------------------------------------------------
    db = m("replication.database").ReplicatedDatabase

    def after_access(args, kwargs, result):
        if result.granted:
            tracer.count("replication.granted")

    patcher.method(db, "submit_read",
                   span_wrapper(tracer, "replication.read", after_access))
    patcher.method(db, "submit_write",
                   span_wrapper(tracer, "replication.write", after_access))

    def after_fault(args, kwargs, result):
        tracer.count("faults.chaos_events")

    for attr in ("fail_site", "repair_site", "fail_link", "repair_link"):
        patcher.method(db, attr, span_wrapper(tracer, "replication.fault",
                                              after_fault))

    # -- serving, faults, telemetry -----------------------------------
    def after_serve(args, kwargs, report):
        tracer.count("serving.requests", report.n_requests)
        tracer.count("serving.attempts", float(np.sum(report.attempt_counts)))
        tracer.count("serving.retries", report.retries_scheduled)
        tracer.count("serving.breaker_rejections", report.breaker_rejections)

    patcher.function("repro.serving.service", "run_serve",
                     span_wrapper(tracer, "serving.run", after_serve))
    # The sequencer's steps have no public entry point; without them the
    # sequencer's own work would fall outside every layer.
    service = m("serving.service").AdaptiveQuorumService
    for attr in ("_admit", "_attempt", "_apply_fault", "_control_tick",
                 "_watchdog_tick"):
        patcher.method(service, attr, span_wrapper(tracer, "serving.step"))
    patcher.method(m("faults.monitor").InvariantMonitor, "observe",
                   span_wrapper(tracer, "faults.monitor"))
    patcher.method(m("telemetry.metrics").Histogram, "observe",
                   span_wrapper(tracer, "telemetry.observe"))


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration spanning ``window``.

    ``trace.overhead_frac`` needs the untraced runs, so the caller adds it.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    busy: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    refresh_us: List[float] = []
    names = tracer.names
    for nid, start, end, self_s in zip(tracer.span_name, tracer.start,
                                       tracer.end, selfs):
        name = names[nid]
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("connectivity.refresh."):
            refresh_us.append((end - start) * 1e6)
    counts = tracer.counts

    def c(key: str) -> float:
        return float(counts.get(key, 0.0))

    refreshes = len(refresh_us)
    full = c("connectivity.full_recomputes")
    enumerate_s = own.get("analytic.enumerate", 0.0)
    states = c("analytic.states")
    accesses = calls.get("replication.read", 0) + calls.get("replication.write", 0)
    requests = c("serving.requests")
    wall = window[1] - window[0]
    out = {
        "connectivity.refreshes": float(refreshes),
        "connectivity.refresh_fail_s": own.get("connectivity.refresh.fail", 0.0),
        "connectivity.refresh_repair_s": own.get("connectivity.refresh.repair", 0.0),
        "connectivity.refresh_p50_us": _percentile(refresh_us, 50),
        "connectivity.refresh_p99_us": _percentile(refresh_us, 99),
        "connectivity.full_recomputes": full,
        "connectivity.incremental_share": (
            (refreshes - full) / refreshes if refreshes else 0.0
        ),
        "simulation.events": c("simulation.events"),
        "simulation.epochs": c("simulation.epochs"),
        "simulation.sample_s": own.get("simulation.sample", 0.0),
        "simulation.loop_self_s": own.get("simulation.loop", 0.0),
        "protocols.grant_masks_s": own.get("protocols.grant_masks", 0.0),
        "protocols.on_change_s": own.get("protocols.on_change", 0.0),
        "protocols.density_observe_s": own.get("protocols.density_observe", 0.0),
        "protocols.reassignments": c("protocols.reassignments"),
        "quorum.model_s": own.get("quorum.model", 0.0),
        "quorum.optimize_s": own.get("quorum.optimize", 0.0),
        "quorum.optimizations": c("quorum.optimizations"),
        "experiments.tables_s": busy.get("experiments.tables", 0.0),
        **{
            f"experiments.chords-{ch}_s": busy.get(f"experiments.chords-{ch}", 0.0)
            for ch in CHORD_COUNTS
        },
        "analytic.enumerate_s": enumerate_s,
        "analytic.states": states,
        "analytic.states_per_s": states / enumerate_s if enumerate_s > 0 else 0.0,
        "sharding.optimize_s": own.get("sharding.optimize", 0.0),
        "sharding.sample_s": own.get("sharding.sample", 0.0),
        "sharding.engine_self_s": own.get("sharding.engine", 0.0),
        "sharding.groups": c("sharding.groups"),
        "replication.reads": float(calls.get("replication.read", 0)),
        "replication.writes": float(calls.get("replication.write", 0)),
        "replication.read_s": own.get("replication.read", 0.0),
        "replication.write_s": own.get("replication.write", 0.0),
        "replication.granted_share": (
            c("replication.granted") / accesses if accesses else 0.0
        ),
        "serving.self_s": own.get("serving.run", 0.0) + own.get("serving.step", 0.0),
        "serving.attempts_per_request": (
            c("serving.attempts") / requests if requests else 0.0
        ),
        "serving.retries": c("serving.retries"),
        "serving.breaker_rejections": c("serving.breaker_rejections"),
        "faults.monitor_s": own.get("faults.monitor", 0.0),
        "faults.chaos_events": c("faults.chaos_events"),
        "telemetry.observe_s": own.get("telemetry.observe", 0.0),
        "telemetry.observations": float(calls.get("telemetry.observe", 0)),
        "trace.coverage_frac": (
            covered_time(tracer.start, tracer.end,
                         [names[nid] not in ENTRY_SPANS for nid in tracer.span_name],
                         window) / wall
            if wall > 0 else 0.0
        ),
    }
    return out


def self_shares(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Share of ``wall`` spent in each span name's own code (for notes)."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    shares: Dict[str, float] = {}
    for nid, self_s in zip(tracer.span_name, selfs):
        name = tracer.names[nid]
        shares[name] = shares.get(name, 0.0) + self_s / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
