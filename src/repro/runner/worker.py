"""Spec execution with per-process build/trace/baseline caches.

This module is the unit of work shared by the serial backend and the
``ProcessPoolExecutor`` backend: :func:`execute_spec` turns one
:class:`~repro.runner.spec.RunSpec` into a
:class:`~repro.runner.spec.RunRecord`.

The module-level caches are deliberate: under the process pool each
worker imports this module once and keeps its caches for the life of
the pool, so a sweep that runs many traces through the same system
configuration pays the expensive build (filter SRAM programming,
kernel assembly, engine construction) once per worker and resets the
session between traces — the ARTIQ-style "initialise once, run the
batch" idiom.  Everything here is deterministic, so cached and fresh
executions are bit-identical — including across the session's two
cycle-loop implementations (event-driven by default, the dense
reference with ``SimulationSession(dense=True)``; see repro.sched and
DESIGN.md).

Streamed specs (``RunSpec.stream``) spool their workload to disk as
FGTRACE1 and simulate through a bounded-memory reader.  The spool is
content-addressed: each file is renamed to its sha256 digest, and the
trace cache maps spec workload keys to digests — two specs that
compose identical bytes share one file, and the digest is the
determinism witness the cross-worker tests compare
(``RunRecord.trace_digest``).  The trace caches also keep the injected
attack sites, which :func:`scenario_sites` hands to the fuzz harness
as ground truth.

Every run on a trace — the baseline and each monitored system — starts
from the same :class:`~repro.ooo.core.PreparedTrace` (warmed hierarchy
snapshot, replayed branch verdicts).  The most recent one is kept,
keyed by the workload key the baseline cache uses, so a batch that
runs one trace through several systems back to back prepares it once.

On top of the per-process caches sits the *persistent* layer:
:func:`execute_spec` reads through and writes back a
:class:`~repro.service.store.ResultStore` (explicit argument, or the
directory named by ``REPRO_RESULT_STORE``), so identical
configurations are simulated once per store, not once per process.
``REPRO_REQUIRE_STORE_HIT=1`` turns a store miss into a
:class:`~repro.errors.StoreError` — CI's warm-store job uses it to
prove a second pass over a figure grid simulates nothing.  The
``cancel`` hook makes long submissions abortable: the zero-argument
callable is polled at the expensive boundaries (before trace
materialisation, before the baseline run, before the monitored run)
and a True return raises :class:`~repro.errors.RunCancelled`.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.baselines import SCHEMES, instrument_trace
from repro.errors import ConfigError, RunCancelled, StoreError
from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.ooo.core import MainCore, PreparedTrace
from repro.runner.spec import RunRecord, RunSpec
from repro.sim.session import SimulationSession
from repro.trace.attacks import AttackSite, inject_attacks
from repro.trace.generator import TraceGenerator, generate_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.record import Trace
from repro.trace.scenario import (
    Scenario,
    ScenarioComposer,
    compose_trace,
    make_scenario,
)
from repro.trace.stream import StreamedTrace, TraceWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.store import ResultStore

#: ``store=`` sentinel: resolve the store from ``REPRO_RESULT_STORE``.
ENV_STORE = object()

#: ``REPRO_REQUIRE_STORE_HIT=1`` forbids simulation: every spec must be
#: answered by the result store (the warm-rerun assertion).
ENV_REQUIRE_HIT = "REPRO_REQUIRE_STORE_HIT"

# Per-process caches (worker lifetime).
_SESSIONS: dict[tuple, SimulationSession] = {}
_TRACES: dict[tuple, Trace] = {}
_BASELINES: dict[tuple, int] = {}
# Composed scenario traces: never mutated after composition (attacks
# are injected phase by phase inside the compositor), so one copy is
# shared process-wide like clean traces are.
_SCENARIO_TRACES: dict[tuple, tuple[Trace, tuple[AttackSite, ...]]] = {}
# Streamed workloads: workload key -> (digest, injected attack sites).
# Files live in the spool directory under their digest, so identical
# workloads reached through different keys share bytes on disk.
_STREAMED: dict[tuple, tuple[str, tuple[AttackSite, ...]]] = {}
# The most recent prepared trace: {workload key: PreparedTrace}, at
# most one entry.  Batches visit one trace's systems back to back, so
# one entry catches their reuse.
_PREPARED: dict[tuple, PreparedTrace] = {}

_SPOOL_DIR: Path | None = None
# Spool file names; next() on a count is atomic, so the client thread
# and the submitting thread never share a temporary name.
_SPOOL_SEQ = itertools.count(1)

# Simulations actually executed by this process (store hits excluded):
# the witness the warm-store tests assert stays at zero.
_SIM_EXECUTIONS = 0

# Lazily resolved REPRO_RESULT_STORE store (False = not resolved yet).
_ENV_STORE_CACHE: "ResultStore | None | bool" = False


def simulations_executed() -> int:
    """How many specs this process simulated (rather than answered
    from the persistent store or a cache)."""
    return _SIM_EXECUTIONS


def _resolve_store(store) -> "ResultStore | None":
    """Normalise the ``store=`` argument: an explicit store instance,
    ``None``/``False`` to disable, or :data:`ENV_STORE` to read
    ``REPRO_RESULT_STORE`` once per process."""
    global _ENV_STORE_CACHE
    if store is not ENV_STORE:
        return None if (store is None or store is False) else store
    if _ENV_STORE_CACHE is False:
        from repro.service.store import ResultStore

        _ENV_STORE_CACHE = ResultStore.from_env()
    return _ENV_STORE_CACHE


def _check_cancel(cancel: Callable[[], bool] | None,
                  spec: RunSpec) -> None:
    if cancel is not None and cancel():
        raise RunCancelled(
            f"run of {spec.benchmark!r} (key "
            f"{spec.cache_key()[:12]}…) was cancelled")


def _spool_dir() -> Path:
    """The per-process trace spool (``REPRO_TRACE_SPOOL`` or a
    temporary directory removed at interpreter exit)."""
    global _SPOOL_DIR
    if _SPOOL_DIR is None:
        configured = os.environ.get("REPRO_TRACE_SPOOL")
        if configured:
            _SPOOL_DIR = Path(configured)
            _SPOOL_DIR.mkdir(parents=True, exist_ok=True)
        else:
            _SPOOL_DIR = Path(tempfile.mkdtemp(prefix="repro-traces-"))
            atexit.register(shutil.rmtree, _SPOOL_DIR,
                            ignore_errors=True)
    return _SPOOL_DIR


def clear_caches() -> None:
    """Drop every per-process cache (tests and memory control), and
    re-resolve the environment store on next use."""
    global _ENV_STORE_CACHE
    _SESSIONS.clear()
    _TRACES.clear()
    _BASELINES.clear()
    _SCENARIO_TRACES.clear()
    _STREAMED.clear()
    _PREPARED.clear()
    _ENV_STORE_CACHE = False


def cached_trace(benchmark: str, seed: int, length: int) -> Trace:
    """The (cached) clean trace for a workload.  Runs never mutate
    traces, so one copy is shared process-wide."""
    key = (benchmark, seed, length)
    trace = _TRACES.get(key)
    if trace is None:
        trace = generate_trace(PARSEC_PROFILES[benchmark], seed=seed,
                               length=length)
        _TRACES[key] = trace
    return trace


def _resolved_scenario(spec: RunSpec) -> Scenario:
    """The spec's scenario instance, rescaled to the spec's length."""
    scenario = spec.scenario
    if isinstance(scenario, str):
        scenario = make_scenario(scenario)
    return scenario.with_length(spec.resolved_length())


def _spool_path(digest: str) -> Path:
    return _spool_dir() / f"{digest}.fgt"


def _admit_spooled(writer_path: Path, digest: str) -> Path:
    """Move a freshly finalized trace into the content-addressed
    spool; identical bytes spooled earlier win."""
    target = _spool_path(digest)
    if target.exists():
        writer_path.unlink()
    else:
        writer_path.replace(target)
    return target


def _workload_key(spec: RunSpec) -> tuple:
    """The key of the spec's record stream, shared by the trace,
    baseline and prepared-trace caches.  Streamed and in-memory
    variants of one workload share it (their records are
    bit-identical); clean and attacked variants never do."""
    if spec.scenario is not None:
        scenario = _resolved_scenario(spec)
        return ("scenario", scenario.cache_token(), spec.seed)
    attacks = spec.attacks
    token = None if attacks is None else (
        attacks.kind.name, attacks.count, attacks.pmc_bounds,
        attacks.placement)
    return (spec.benchmark, spec.seed, spec.resolved_length(), token)


def _spooled_scenario(spec: RunSpec
                      ) -> tuple[str, tuple[AttackSite, ...]]:
    """Compose the spec's scenario to disk (phase-bounded memory) once
    per process; returns the spooled file's digest and the injected
    attack sites."""
    key = _workload_key(spec)
    cached = _STREAMED.get(key)
    if cached is None:
        scenario = _resolved_scenario(spec)
        tmp = _spool_dir() / (f"compose-{os.getpid()}-"
                              f"{next(_SPOOL_SEQ)}.fgt")
        composer = ScenarioComposer(scenario, spec.seed)
        with TraceWriter(tmp, name=scenario.name,
                         seed=spec.seed) as writer:
            for records in composer.phases():
                writer.extend(records)
            digest = writer.finalize(**composer.meta_kwargs())
        _admit_spooled(tmp, digest)
        cached = (digest, tuple(composer.sites))
        _STREAMED[key] = cached
    return cached


def _stream_scenario(spec: RunSpec) -> tuple[StreamedTrace, int, str]:
    """A reader over the spec's spooled scenario composition."""
    digest, sites = _spooled_scenario(spec)
    return (StreamedTrace(_spool_path(digest), digest=digest),
            len(sites), digest)


def _stream_plain(spec: RunSpec) -> tuple[StreamedTrace, int, str]:
    """Spool a single-profile workload.

    Clean traces stream straight from the generator (bounded memory);
    attacked traces are injected in memory first — the injector scans
    whole-trace candidate sets — then spooled, so only the simulation
    is bounded.  Long attacked workloads should use scenarios, whose
    phase-wise injection keeps composition bounded too.
    """
    length = spec.resolved_length()
    attacks = spec.attacks
    key = _workload_key(spec)
    cached = _STREAMED.get(key)
    if cached is None:
        tmp = _spool_dir() / f"gen-{os.getpid()}-{next(_SPOOL_SEQ)}.fgt"
        sites: tuple[AttackSite, ...] = ()
        profile = PARSEC_PROFILES[spec.benchmark]
        if attacks is None:
            gen = TraceGenerator(profile, seed=spec.seed, length=length)
            with TraceWriter(tmp, name=profile.name,
                             seed=spec.seed) as writer:
                writer.extend(gen.iter_records())
                digest = writer.finalize(**gen.final_meta())
        else:
            trace = generate_trace(profile, seed=spec.seed,
                                   length=length)
            sites = tuple(inject_attacks(
                trace, attacks.kind, attacks.count,
                pmc_bounds=attacks.pmc_bounds,
                placement=attacks.placement))
            with TraceWriter(tmp, name=trace.name,
                             seed=trace.seed) as writer:
                writer.extend(trace.records)
                digest = writer.finalize(
                    objects=trace.objects, heap_base=trace.heap_base,
                    heap_end=trace.heap_end,
                    global_base=trace.global_base,
                    global_end=trace.global_end,
                    warm_end=trace.warm_end)
        _admit_spooled(tmp, digest)
        cached = (digest, sites)
        _STREAMED[key] = cached
    digest, sites = cached
    return (StreamedTrace(_spool_path(digest), digest=digest),
            len(sites), digest)


def _composed_trace(spec: RunSpec
                    ) -> tuple[Trace, tuple[AttackSite, ...]]:
    """The (cached) in-memory composition of the spec's scenario and
    its injected attack sites."""
    key = _workload_key(spec)
    cached = _SCENARIO_TRACES.get(key)
    if cached is None:
        trace, sites = compose_trace(_resolved_scenario(spec), spec.seed)
        cached = (trace, tuple(sites))
        _SCENARIO_TRACES[key] = cached
    return cached


def scenario_sites(spec: RunSpec) -> tuple[str, tuple[AttackSite, ...]]:
    """The on-disk digest ("" for in-memory workloads) and the
    injected attack sites of a scenario spec's trace.

    This is the composition the spec's run used when it ran in this
    process — the fuzz harness's ground truth, checked against the
    record's ``trace_digest``.  A spec answered elsewhere (a store hit,
    a process pool, the fabric) is composed here on first use.
    """
    if spec.scenario is None:
        raise ConfigError(
            f"spec for {spec.benchmark!r} has no scenario, so no "
            f"composed attack sites")
    if spec.stream:
        return _spooled_scenario(spec)
    return "", _composed_trace(spec)[1]


def _trace_for(spec: RunSpec) -> tuple["Trace | StreamedTrace", int, str]:
    """The spec's trace source, injected-attack count, and on-disk
    digest ("" for in-memory workloads).

    Single-profile attacked traces are generated fresh because
    ``inject_attacks`` mutates records in place; scenario traces are
    composed with their attacks baked in and therefore cacheable.
    """
    if spec.scenario is not None:
        if spec.stream:
            return _stream_scenario(spec)
        trace, sites = _composed_trace(spec)
        return trace, len(sites), ""
    if spec.stream:
        return _stream_plain(spec)
    length = spec.resolved_length()
    if spec.attacks is None:
        return cached_trace(spec.benchmark, spec.seed, length), 0, ""
    trace = generate_trace(PARSEC_PROFILES[spec.benchmark],
                           seed=spec.seed, length=length)
    sites = inject_attacks(trace, spec.attacks.kind, spec.attacks.count,
                           pmc_bounds=spec.attacks.pmc_bounds,
                           placement=spec.attacks.placement)
    return trace, len(sites), ""


def _prepared_for(key: tuple, trace) -> PreparedTrace:
    """The :class:`~repro.ooo.core.PreparedTrace` of the trace behind
    workload ``key``, prepared unless it is the one kept from the last
    call.  Every core the runner builds uses the default parameters,
    which the restore checks."""
    prepared = _PREPARED.get(key)
    if prepared is None:
        prepared = MainCore().prepare(trace)
        _PREPARED.clear()
        _PREPARED[key] = prepared
    return prepared


def _baseline_for(key: tuple, trace) -> int:
    """Unmonitored-core cycles for the trace behind workload ``key``
    (clean, attacked or composed), cached process-wide.  A streamed
    spec runs the baseline on its streamed source, so stream=True
    never materialises the workload just for the denominator."""
    cycles = _BASELINES.get(key)
    if cycles is None:
        cycles = MainCore().run_standalone(
            trace, prepared=_prepared_for(key, trace)).cycles
        _BASELINES[key] = cycles
    return cycles


def baseline_cycles(benchmark: str, seed: int, length: int) -> int:
    """Unmonitored-core cycles for a clean workload (the slowdown
    denominator), cached process-wide."""
    return _baseline_for((benchmark, seed, length, None),
                         cached_trace(benchmark, seed, length))


def _session_for(spec: RunSpec) -> SimulationSession:
    """A clean session for the spec's system configuration, building
    the system only on first use in this process."""
    key = spec.system_key()
    session = _SESSIONS.get(key)
    if session is None:
        kernels = [make_kernel(name, strategy=spec.strategy)
                   for name in spec.kernels]
        if spec.block_size is not None:
            for kernel in kernels:
                kernel.block_size = spec.block_size
        system = FireGuardSystem(
            kernels,
            config=spec.config,
            engines_per_kernel={name: spec.engines_per_kernel
                                for name in spec.kernels},
            accelerated=spec.accelerated,
            isax_style=spec.isax_style)
        session = system.session()
        _SESSIONS[key] = session
    elif session.dirty:
        session.reset()
    return session


def _run_software(spec: RunSpec, trace: Trace) -> "SystemResult":
    """Run the trace under an LLVM-instrumentation baseline scheme on
    an unmonitored core (Fig 7a's software columns)."""
    from repro.core.system import SystemResult

    scheme = SCHEMES[spec.software]
    instrumented = instrument_trace(trace, scheme)
    core_result = MainCore().run_standalone(instrumented)
    return SystemResult(cycles=core_result.cycles,
                        committed=core_result.committed,
                        time_ns=0.0,
                        stall_backpressure=0)


def execute_spec(spec: RunSpec, store=ENV_STORE,
                 cancel: Callable[[], bool] | None = None) -> RunRecord:
    """Execute one spec in this process and return its record.

    ``store`` — a :class:`~repro.service.store.ResultStore` to read
    through and write back, ``None``/``False`` to disable persistence,
    or the default :data:`ENV_STORE` to honour ``REPRO_RESULT_STORE``.
    ``cancel`` — optional zero-argument callable polled at the
    expensive boundaries; returning True raises
    :class:`~repro.errors.RunCancelled`.
    """
    global _SIM_EXECUTIONS
    _check_cancel(cancel, spec)
    resolved = _resolve_store(store)
    key = spec.cache_key() if resolved is not None else None
    if resolved is not None:
        record = resolved.get(key)
        if record is not None:
            return record
    if os.environ.get(ENV_REQUIRE_HIT) == "1":
        raise StoreError(
            f"{ENV_REQUIRE_HIT}=1 but spec {spec.cache_key()[:12]}… "
            f"({spec.benchmark!r}) missed the result store"
            + ("" if resolved is not None
               else " (no store is configured)"))
    _SIM_EXECUTIONS += 1
    trace, injected, digest = _trace_for(spec)
    workload = _workload_key(spec)
    _check_cancel(cancel, spec)
    baseline = _baseline_for(workload, trace) if spec.need_baseline \
        else 0
    _check_cancel(cancel, spec)
    if spec.software is not None:
        result = _run_software(spec, trace)
    else:
        result = _session_for(spec).run(
            trace, prepared=_prepared_for(workload, trace))
    record = RunRecord(spec=spec, result=result,
                       baseline_cycles=baseline,
                       injected_attacks=injected, trace_digest=digest)
    if resolved is not None:
        resolved.put(key, record)
    return record
