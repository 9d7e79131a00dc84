"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the timed phase untraced and then traced, and
prints every per-layer metric from the traced spans plus the span
coverage and the tracing overhead. The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is non-zero when any output check failed.

``--pin`` rewrites the workload's pinned record digests in
``perfbench/pinned.json`` (only at the default seed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "pinned.json"
SETUP_REPS = 3

#: Per-layer metric -> the span name whose self time it sums.
LAYER_SPANS = {
    "trace.generate_s": "trace.generate",
    "trace.compose_s": "trace.compose",
    "trace.spool_s": "trace.spool",
    "trace.read_s": "trace.read",
    "ooo.baseline_s": "ooo.baseline",
    "core.build_s": "core.build",
    "sim.run_s": "sim.run",
    "service.store_get_s": "service.store_get",
    "service.store_put_s": "service.store_put",
    "service.client_self_s": "service.client",
    "runner.self_s": "runner.execute_spec",
    "experiments.ground_truth_s": "experiments.ground_truth",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The host's vCPUs slow down independently of each other (each
    shares its core with other tenants), so a thread the scheduler
    moves between them changes speed mid-spec, and the calibrator's
    sampler thread only measures the CPU it runs on. One busy thread
    runs at a time anyway: one worker executes the specs while the
    client waits.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scrub_environment() -> None:
    """Drop every inherited ``REPRO_*`` knob so program defaults hold
    and the user's result store and trace spool are never touched."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


class Run:
    """Timed rounds of one workload, with their output checks."""

    def __init__(self, workload, pinned: dict | None):
        self.workload = workload
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.model: dict = {}

    def check_digests(self, records, label: str) -> int:
        from perfbench.workloads import record_digest

        got = {r.spec.cache_key(): record_digest(r) for r in records}
        expected = self.pinned if self.pinned is not None \
            else self.reference
        if expected is None:
            self.reference = got
            return 0
        wrong = sorted(k for k in expected.keys() | got.keys()
                       if expected.get(k) != got.get(k))
        if wrong:
            source = "pinned" if self.pinned is not None else "round 1"
            self.failures.append(
                f"{label}: {len(wrong)} records differ from {source} "
                f"digests (first key {wrong[0][:12]})")
        return len(wrong)

    def check(self, rnd) -> None:
        rnd.committed = sum(r.result.committed for r in rnd.records)
        self.attempted += rnd.specs
        wrong = self.check_digests(rnd.records, "round") \
            if self.workload.digest_rounds else 0
        extra, reasons = self.workload.wrong_outputs(rnd)
        self.failures.extend(rnd.failures + reasons)
        self.failed += min(rnd.specs, rnd.failed + wrong + extra)
        if not self.model and not rnd.failed:
            self.model = self.workload.model(rnd)

    def measure(self, seconds: float, min_rounds: int = 3,
                windows: bool = False) -> "Summary":
        summary = Summary(windows=[] if windows else None)
        start = perf_counter()
        while summary.rounds < min_rounds \
                or perf_counter() - start < seconds:
            if self.workload.collect_between_rounds:
                gc.collect()
            rnd = self.workload.round()
            self.check(rnd)
            summary.add(rnd)
            if rnd.failures:
                break
        return summary


@dataclass
class Summary:
    """What the measured rounds leave behind.

    Complete rounds keep their raw clock readings until :meth:`finish`
    turns them into times, after the calibrator has sampled past the
    last one. Metrics take means over rounds: what calibration leaves
    of the host's drift is noise on single specs, and a mean follows
    a spec whose times split between two levels smoothly where a
    median jumps. Readings are kept in flat arrays, so thousands of
    warm-store rounds barely move the peak RSS.
    """

    rounds: int = 0
    #: Raw wall seconds of all rounds.
    wall: float = 0.0
    specs: int = 0
    committed: int = 0
    first_records: list = field(default_factory=list)
    windows: list[tuple[float, float]] | None = None
    #: Start and end of each complete round, then its ``specs + 1``
    #: marks, one round after another.
    bounds: array = field(default_factory=lambda: array("d"))
    marks: array = field(default_factory=lambda: array("d"))
    round_seconds: array = field(default_factory=lambda: array("d"))
    spec_samples: list[array] = field(default_factory=list)

    def add(self, rnd) -> None:
        if not self.rounds:
            self.specs, self.committed = rnd.specs, rnd.committed
            self.first_records = rnd.records
        self.rounds += 1
        self.wall += rnd.end - rnd.start
        if self.windows is not None:
            self.windows.append((rnd.start, rnd.end))
        if rnd.complete and len(rnd.marks) == self.specs + 1:
            self.bounds.extend((rnd.start, rnd.end))
            self.marks.extend(rnd.marks)

    def finish(self, clock) -> "Summary":
        """Time every complete round and its specs with ``clock``."""
        bounds, marks, width = self.bounds, self.marks, self.specs + 1
        self.round_seconds = array("d", (
            clock.seconds(bounds[i], bounds[i + 1])
            for i in range(0, len(bounds), 2)))
        self.spec_samples = [array("d", (
            clock.seconds(marks[j + i], marks[j + i + 1])
            for j in range(0, len(marks), width)))
            for i in range(self.specs)]
        return self

    def round_s(self) -> float:
        """Mean time of a complete round (0 without one)."""
        return statistics.fmean(self.round_seconds) \
            if self.round_seconds else 0.0

    def spec_times(self) -> list[float]:
        """Each spec's mean time over the complete rounds."""
        return [statistics.fmean(s) for s in self.spec_samples if s]


def end_to_end(run: Run, summary: Summary,
               setup_s: float) -> tuple[dict, list]:
    from perfbench.hostspeed import REFERENCE_S
    from perfbench.metrics import tail_percentile

    specs, round_s = summary.spec_times(), summary.round_s()
    # A failed first round leaves no complete round to measure.
    pct, tail_value, n = tail_percentile(specs) \
        or (100.0, max(specs, default=0.0), len(specs))
    values = {
        "setup_s": setup_s,
        "specs_per_s": summary.specs / round_s if round_s else 0.0,
        "spec_p50_s": statistics.median(specs) if specs else 0.0,
        "spec_tail_s": tail_value,
        "sim_kips": summary.committed / round_s / 1000.0
        if round_s else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"times in host-normalised seconds (reference kernel "
             f"{REFERENCE_S * 1000:g} ms CPU), means over "
             f"{len(summary.round_seconds)} complete rounds; spec_tail_s "
             f"is p{pct:.1f} of n={n} specs",
             f"raw: {summary.rounds * summary.specs / summary.wall:.6g} "
             "specs/s over all rounds",
             f"error_rate {run.failed / max(run.attempted, 1):.4f} "
             f"({run.failed}/{run.attempted})"]
    notes += [f"{k} {v:.6g} [sim]" for k, v in sorted(run.model.items())]
    return values, notes


def per_layer(tracer, traced, untraced) -> tuple[dict, list]:
    from perfbench.tracing import (
        RESULT_COUNTERS,
        SESSION_COUNTERS,
        coverage,
        self_times,
    )

    n = traced.rounds
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    busy: dict[str, float] = {}
    for span in tracer.spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + selfs[span.sid]
        busy[span.name] = busy.get(span.name, 0.0) + span.busy
    counts = tracer.counts
    values = {metric: by_name.get(name, 0.0) / n
              for metric, name in LAYER_SPANS.items()}
    for key in ("trace.records_generated", "trace.spool_bytes",
                "ooo.baseline_runs", "core.systems_built",
                "service.store_hits", "service.store_misses",
                "service.store_writes", "sim.runs", "sim.detections",
                *("sim." + f for f in RESULT_COUNTERS),
                *("sim." + f for f in SESSION_COUNTERS)):
        values[key] = counts.get(key, 0) / n
    traces = counts.get("trace.traces", 0)
    values["trace.specs_per_trace"] = \
        counts.get("sim.runs", 0) / traces if traces else 0.0
    cycles = counts.get("sim.cycles", 0)
    values["sim.host_us_per_kcycle"] = \
        busy.get("sim.run", 0.0) * 1e6 / (cycles / 1000.0) if cycles \
        else 0.0
    values["bench.span_coverage"] = coverage(tracer.spans,
                                             tracer.windows)
    values["bench.trace_overhead"] = \
        traced.round_s() / untraced.round_s() - 1.0
    timed = sum(end - start for start, end in tracer.windows)
    notes = ["self time by span (share of timed wall):"]
    for name, value in sorted(by_name.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {name:28s} {value / n:10.4f} s/round "
                     f"{value / timed:7.1%}")
    if tracer.missing:
        notes.append("untraced (entry point not found): "
                     + ", ".join(tracer.missing))
    return values, notes


def host_context() -> dict:
    """Which program ran, read from the first simulation session."""
    from repro.sim.session import SimulationSession

    context = {"nproc": os.cpu_count(),
               "python": platform.python_version(),
               "backend": None, "hotpath_compiled": None}
    original = SimulationSession.run

    def probe(session, *args, **kwargs):
        result = original(session, *args, **kwargs)
        if context["backend"] is None:
            context["backend"] = getattr(session, "backend", "")
        context["hotpath_compiled"] = bool(
            context["hotpath_compiled"]
            or getattr(session, "hotpath_compiled", False))
        return result

    SimulationSession.run = probe
    return context


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import Calibrator, Stopwatch
    from perfbench.metrics import load_benchmark

    bench = load_benchmark(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    scrub_environment()
    # The traced run reports raw times: calibrating inside its spans
    # would be counted as program time.
    clock = Calibrator() if args.trace == 0 else Stopwatch()
    clock.start()
    try:
        return run_workload(args, bench, clock)
    finally:
        clock.stop()


def run_workload(args, bench: dict, clock) -> int:
    started = perf_counter()
    try:
        from perfbench import workloads
        from perfbench.tracing import Tracer, install
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    imported = perf_counter()
    pins = json.loads(PINNED.read_text())
    if args.pin and args.seed != pins["default_seed"]:
        print("perfbench: --pin needs the default seed "
              f"{pins['default_seed']}", file=sys.stderr)
        return 2

    sandbox = workloads.Sandbox(ROOT / ".perfbench_tmp")
    os.environ["REPRO_TRACE_SPOOL"] = str(sandbox.spool)
    tempfile.tempdir = str(sandbox.root)
    try:
        context = host_context()
        workload = workloads.WORKLOADS[args.workload](args.seed, sandbox)
        pinned = None
        if not args.pin and (not workload.seeded
                             or args.seed == pins["default_seed"]):
            pinned = pins["records"].get(workload.name)
            if pinned is None:
                print(f"perfbench: no pinned digests for "
                      f"{workload.name}; run with --pin", file=sys.stderr)
                return 2
        setups = []
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            gc.collect()
            t0 = perf_counter()
            workload.setup()
            setups.append((t0, perf_counter()))
        run = Run(workload, pinned)
        cold = workload.cold_records()
        if cold:
            # Warm answers are checked against these, so pin them too.
            run.attempted += len(cold)
            run.failed += run.check_digests(cold, "cold fill")

        if args.trace == 0:
            summary = run.measure(args.seconds)
        else:
            untraced = run.measure(args.seconds / 2, min_rounds=1)
            tracer = Tracer()
            install(tracer)
            try:
                summary = run.measure(args.seconds / 2, min_rounds=1,
                                      windows=True)
            finally:
                tracer.unpatch()
            tracer.windows = summary.windows

        if args.pin:
            source = cold or summary.first_records
            pins["records"][workload.name] = {
                r.spec.cache_key(): workloads.record_digest(r)
                for r in source}
            PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True)
                              + "\n")
    finally:
        sandbox.remove()

    clock.stop()
    summary.finish(clock)
    if args.trace == 0:
        setup_s = clock.seconds(started, imported) + statistics.median(
            clock.seconds(a, b) for a, b in setups)
        values, notes = end_to_end(run, summary, setup_s)
        declared = bench["end_to_end"]
    else:
        values, notes = per_layer(tracer, summary, untraced.finish(clock))
        declared = bench["per_layer"]

    correct = not run.failures and run.failed == 0
    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace} rounds={summary.rounds} "
          f"timed={summary.wall:.2f}s")
    for metric in declared:
        print(f"  {metric['name']:28s} {values[metric['name']]:14.6g} "
              f"{metric['unit']}")
    for note in notes:
        print(f"  {note}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
