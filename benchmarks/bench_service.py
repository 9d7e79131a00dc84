"""Cold-vs-warm result store benchmark (BENCH_service.json).

Runs a representative figure grid twice through the service client
against one persistent store: the cold pass simulates and writes
back, the warm pass — fresh client, per-process worker caches
dropped — must answer entirely from disk.  Records the wall-clock
ratio to ``BENCH_service.json`` (repo root or ``REPRO_BENCH_OUT``),
which CI uploads as an artifact to build the perf trajectory over
PRs.

The warm pass doubles as an end-to-end acceptance check: zero
simulations (client dispatch counter and the worker's own simulation
counter both stay flat) and bit-identical records.  The issue's
acceptance bar is a >= 5x warm speedup; loading a few JSON documents
beats a few hundred thousand simulated cycles by far more than that
on any machine, so the default gate is strict (set
``REPRO_SERVICE_STRICT=0`` to only guard against gross regression).

Every run *appends* one trend entry — git SHA, date, cold/warm
seconds, warm answer rate — so the artifact accumulates the store's
perf trajectory across PRs; under ``REPRO_PERF_GATE=1`` the run fails
if the warm answer rate (specs served per second) drops more than
15 % below the best recorded rate for the same grid shape.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import (
    PERF_GATE,
    PERF_GATE_DROP,
    append_trend,
    bench_set,
    load_trend,
    trend_stamp,
)

from repro.runner import simulations_executed, sweep
from repro.runner import worker as runner_worker
from repro.service import Client, ResultStore

TRACE_LEN = int(os.environ.get("REPRO_TRACE_LEN", "6000"))
STRICT = os.environ.get("REPRO_SERVICE_STRICT", "1") == "1"
MIN_SPEEDUP = 5.0 if STRICT else 1.0


def _out_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent \
        / "BENCH_service.json"


def _grid():
    return sweep(bench_set(), kernels=[("pmc",), ("asan",)],
                 engines_per_kernel=[2, 4], length=TRACE_LEN)


def test_cold_vs_warm_store():
    specs = _grid()
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")

    runner_worker.clear_caches()
    with Client(workers=1, store=store_dir, cache=False) as cold:
        t0 = time.perf_counter()
        first = cold.run(specs)
        cold_s = time.perf_counter() - t0
        assert cold.stats.executed == len(specs)
    assert ResultStore(store_dir).count() == len(specs)

    runner_worker.clear_caches()
    sims_before = simulations_executed()
    with Client(workers=1, store=store_dir, cache=False) as warm:
        t0 = time.perf_counter()
        second = warm.run(specs)
        warm_s = time.perf_counter() - t0
        assert warm.stats.executed == 0
        assert warm.stats.store_hits == len(specs)
    assert simulations_executed() == sims_before
    assert second == first  # store round trip is bit-identical

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    warm_rate = len(specs) / warm_s if warm_s > 0 else float("inf")
    payload = {
        "grid_specs": len(specs),
        "benchmarks": list(bench_set()),
        "trace_len": TRACE_LEN,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 1),
        "warm_rate": round(warm_rate, 1),
        "warm_simulations": 0,
        "strict": STRICT,
    }
    out = _out_path()
    trend = load_trend(out)
    if PERF_GATE:
        reference = [entry.get("warm_rate") for entry in trend
                     if entry.get("grid_specs") == len(specs)
                     and entry.get("trace_len") == TRACE_LEN
                     and entry.get("warm_rate")]
        if reference:
            floor = max(reference) * (1.0 - PERF_GATE_DROP)
            assert warm_rate >= floor, (
                f"warm store answer rate regressed: {warm_rate:.1f} "
                f"specs/s vs best recorded {max(reference)}/s "
                f"(floor {floor:.1f}/s)")
    trend = append_trend(
        trend,
        [{**trend_stamp(),
          **{k: payload[k] for k in (
              "grid_specs", "trace_len", "cold_s", "warm_s",
              "speedup", "warm_rate")}}],
        config_keys=("grid_specs", "trace_len"))
    out.write_text(json.dumps({**payload, "trend": trend},
                              indent=2) + "\n")
    print(f"\ncold {cold_s:.2f}s -> warm {warm_s:.3f}s "
          f"({speedup:.0f}x, {len(specs)} specs)")
    assert speedup >= MIN_SPEEDUP, payload
