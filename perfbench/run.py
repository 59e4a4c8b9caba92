"""Run one benchmark workload against the ``repro`` sources in this checkout.

    python3 perfbench/run.py --workload paper-sparse --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # each workload in turn

Each run builds the workload from ``--seed``, makes one untimed check
pass under the workload's oracles, then repeats the workload for about
``--seconds`` seconds. With ``--trace 0`` it reports the end-to-end
metrics: medians over the repeats, with run times scaled to the
reference machine speed of ``perfbench/calibrate.py`` (the raw medians
are printed beside them), and set-up as the median of seven fresh
processes.
With ``--trace 1`` it spends half the time untraced and half traced and
reports the per-layer metrics, with the tracing overhead as the ratio of
the two medians. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of the
last traced repeat are written to ``perfbench/out/``.

``--record-baseline`` stores this machine's fingerprint, the resolved
kernel ids and (at the default seed) the output digest in
``perfbench/baseline.json`` instead of checking against them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BASELINE = BENCH / "baseline.json"
OUT = BENCH / "out"
READY = "perfbench: set-up done"
SETUP_SAMPLES = 7
COVERAGE_FLOOR = 0.9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("accesses_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def fingerprint() -> dict:
    import importlib.util

    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


@dataclass
class Sample:
    """One timed run: raw wall seconds and the machine-speed factor."""

    wall: float
    factor: float
    outcome: object = None
    layers: Optional[dict] = None

    @property
    def scaled(self) -> float:
        return self.wall * self.factor


class Speed:
    """Calibration samples taken between timed runs (see calibrate.py)."""

    def __init__(self, span: float) -> None:
        from perfbench.calibrate import REFERENCE_S, unit_seconds

        self._reference, self._unit_seconds = REFERENCE_S, unit_seconds
        self._last = unit_seconds(span)

    def factor_since_last(self, span: float) -> float:
        """Factor for a run that just took ``span`` s since the last sample."""
        now = self._unit_seconds(span)
        factor = self._reference / ((self._last + now) / 2)
        self._last = now
        return factor


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from process start to a built workload, in fresh processes."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready - started)
    return samples


def repeat(workload, ledger, reference: str, budget: float,
           tracer=None) -> List[Sample]:
    """Run ``workload`` until ``budget`` seconds are spent (at least once).

    Each outcome's digest must equal ``reference``, the check pass's
    digest. With a ``tracer`` installed, each sample carries the
    per-layer metrics of its run.
    """
    from perfbench.layers import layer_metrics

    samples: List[Sample] = []
    started = perf_counter()
    speed = Speed(budget / 10)
    while True:
        workload.prepare()
        if tracer is not None:
            tracer.clear()
        t0 = perf_counter()
        try:
            raw = workload.run()
        except Exception:
            traceback.print_exc()
            raw = None
        t1 = perf_counter()
        factor = speed.factor_since_last(t1 - t0)
        if raw is None:
            ledger.units(1, 1, "run raised")
        else:
            out = workload.outcome(raw)
            ledger.units(out.units, out.failed_units, "quarantined batches")
            ledger.check("digest equals the check pass's digest",
                         out.digest == reference)
            sample = Sample(t1 - t0, factor, out)
            if tracer is not None:
                sample.layers = layer_metrics(tracer, (t0, t1))
                ledger.check(f"trace coverage >= {COVERAGE_FLOOR}",
                             sample.layers["trace.coverage_frac"] >= COVERAGE_FLOOR)
            samples.append(sample)
        spent = perf_counter() - started
        typical = statistics.median(s.wall for s in samples) if samples else t1 - t0
        if spent + typical > budget:
            return samples


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(setup: List[float], samples: List[Sample]) -> dict:
    """The end-to-end metrics; run times are scaled to the reference speed.

    Set-up time is reported as measured: it is mostly imports, which a
    compute kernel does not calibrate.
    """

    def event_seconds(s: Sample) -> float:
        wall = s.wall if s.outcome.event_wall is None else s.outcome.event_wall
        return wall * s.factor

    return {
        "setup_s": _median(setup),
        "wall_s": _median(s.scaled for s in samples),
        "accesses_per_s": _median(s.outcome.accesses / s.scaled for s in samples),
        "events_per_s": _median(s.outcome.events / event_seconds(s) for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _write_spans(tracer, name: str, seed: int, extra: dict) -> Path:
    from perfbench.layers import self_shares

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    wall = (max(tracer.end) - min(tracer.start)) if tracer.start else 0.0
    payload = dict(extra, spans=tracer.to_json(),
                   self_share=self_shares(tracer, wall) if wall > 0 else {})
    path.write_text(json.dumps(payload))
    return path


def _load_baseline() -> dict:
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text())
    return {"fingerprint": {}, "kernels": {}, "digests": {}}


def check_kernels(ledger, workload, kernels: dict, recorded: dict) -> None:
    """Runs whose kernels differ are not comparable: refuse them.

    Every id the workload is expected to resolve must be present and
    equal to the recorded one; an id that went missing (the program
    stopped calling the entry point that reports it) fails as well.
    """
    from perfbench.workloads import kernel_ids

    expected = set(kernel_ids()) | set(workload.KERNELS) | set(kernels)
    for key in sorted(expected):
        value = kernels.get(key)
        ledger.check(f"kernel {key} is the baseline's "
                     f"{recorded.get(key)!r} (got {value!r})",
                     value is not None and recorded.get(key) == value)


def run(args) -> dict:
    from perfbench.layers import PER_LAYER, install
    from perfbench.tracer import Patcher, Tracer
    from perfbench.workloads import DEFAULT_SEED, Ledger, kernel_ids, make_workload

    name, seed = args.workload, args.seed
    setup = [] if args.trace else measure_setup(name, seed)
    workload = make_workload(name, seed)
    ledger = Ledger()
    metrics = {}
    try:
        checked = workload.check_pass(ledger)
        ledger.units(checked.units, checked.failed_units, "quarantined batches")
        reference = checked.digest
        machine = fingerprint()
        kernels = dict(kernel_ids(), **workload.kernels)
        baseline = _load_baseline()
        if args.record_baseline:
            baseline["fingerprint"] = machine
            baseline["kernels"].update(kernels)
            if seed == DEFAULT_SEED:
                baseline["digests"][name] = reference
            BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        else:
            check_kernels(ledger, workload, kernels, baseline["kernels"])
            if seed == DEFAULT_SEED:
                ledger.check("digest at the default seed equals the baseline's",
                             baseline["digests"].get(name) == reference)

        print(f"perfbench {name} seed={seed} seconds={args.seconds} trace={args.trace}")
        print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
        print("kernels: " + ", ".join(f"{k}={v}" for k, v in sorted(kernels.items())))
        print(f"digest: {reference}")

        budget = args.seconds / 2 if args.trace else args.seconds
        samples = repeat(workload, ledger, reference, budget)
        if args.trace:
            tracer, patcher = Tracer(), Patcher()
            install(tracer, patcher)
            try:
                traced = repeat(workload, ledger, reference, budget, tracer=tracer)
            finally:
                patcher.restore()
            if samples and traced:
                overhead = (_median(s.scaled for s in traced)
                            / _median(s.scaled for s in samples) - 1)
                for key, unit in PER_LAYER:
                    value = (overhead if key == "trace.overhead_frac"
                             else _median(s.layers[key] for s in traced))
                    metrics[key] = {"value": value, "unit": unit}
                path = _write_spans(tracer, name, seed, dict(
                    workload=name, seed=seed, machine=machine, kernels=kernels,
                    untraced_walls=[s.wall for s in samples],
                    traced_walls=[s.wall for s in traced]))
                print(f"spans of the last traced run: {path}")
        elif samples:
            values = end_to_end(setup, samples)
            for key, unit in END_TO_END:
                metrics[key] = {"value": values[key], "unit": unit}
            print(f"raw medians: wall {_median(s.wall for s in samples):.6g} s; speed factor "
                  f"{_median(s.factor for s in samples):.4g} "
                  f"({len(samples)} timed runs, {len(setup)} set-ups)")
    finally:
        workload.close()

    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {ledger.failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} attempted)")
    for what, count in sorted(ledger.failures.items()):
        print(f"FAILED x{count}: {what}")
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)

    _use_checkout_sources()
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload == "all":
        # Each workload in its own process, so peak memory is its own.
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
