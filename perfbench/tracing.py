"""Span tracing for the benchmark's traced run.

The tracer records a span at each layer boundary of the program by
wrapping that layer's public entry points from outside: nothing under
``src/`` is edited, and the untraced run never installs a wrapper.
Spans live in memory (name, start, end, parent, request id) and are
summarised when the run ends.

Three wrapper shapes cover the boundaries:

* a *call* span times one call (``execute_spec``, ``ResultStore.get``,
  ``SimulationSession.run``, ...);
* a *generator* span times a generator function from its first step
  to its exhaustion (``Client.map``, which waits on the worker while
  it is open);
* an *iterator* span accumulates only the time spent inside the
  iterator's ``__next__`` (trace generation pulled by the spool
  writer, chunk reads pulled by the simulated core). Its ``busy`` time
  is therefore shorter than ``end - start``.

Self time of a span is its busy time minus the busy time of its direct
children. Children of one span never run at the same moment: a thread
runs its spans strictly nested, and the one worker thread runs specs
one after another while the submitting thread waits, so the children's
busy times add. Self times therefore partition the covered wall.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator


@dataclass(eq=False)
class Span:
    """One traced interval. ``parent`` is the parent's ``sid`` or -1."""

    sid: int
    name: str
    start: float
    end: float = 0.0
    busy: float = 0.0
    parent: int = -1
    rid: str = ""
    opaque: bool = False


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: busy time minus its children's busy time."""
    spans = list(spans)
    inner: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            inner[span.parent] += span.busy
    return {span.sid: span.busy - inner[span.sid] for span in spans}


def _merge(intervals: Iterable[tuple[float, float]]) -> list[list[float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def coverage(spans: Iterable[Span],
             windows: Iterable[tuple[float, float]]) -> float:
    """Share of the timed windows covered by the union of root spans."""
    roots = _merge((s.start, s.end) for s in spans if s.parent < 0)
    windows = _merge(windows)
    total = sum(end - start for start, end in windows)
    covered = 0.0
    i = 0
    for w_start, w_end in windows:
        while i < len(roots) and roots[i][1] <= w_start:
            i += 1
        j = i
        while j < len(roots) and roots[j][0] < w_end:
            covered += min(roots[j][1], w_end) - max(roots[j][0], w_start)
            j += 1
    return covered / total if total > 0 else 0.0


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.windows: list[tuple[float, float]] = []
        self.missing: list[str] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, stack: list[Span],
             rid: str, opaque: bool) -> Span:
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            # A worker thread's outermost span belongs to whatever the
            # submitting thread is waiting in.
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            span = Span(len(self.spans), name, start,
                        parent=parent.sid if parent else -1,
                        rid=rid or (parent.rid if parent else ""),
                        opaque=opaque)
            self.spans.append(span)
        return span

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    # -- wrapper shapes ----------------------------------------------------
    def call(self, name: str, fn: Callable, rid: Callable | None = None,
             after: Callable | None = None,
             opaque: bool = False) -> Callable:
        """Wrap ``fn`` so each call is a span; ``rid(args)`` names the
        request and ``after(args, result)`` records counters."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].opaque:
                return fn(*args, **kwargs)
            span = tracer._new(name, perf_counter(), stack,
                               rid(args, kwargs) if rid else "", opaque)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
                span.busy = span.end - span.start
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span from its first step to
        its end, parent of whatever other threads do meanwhile."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._new(name, perf_counter(), stack, "", False)
            stack.append(span)
            try:
                yield from fn(*args, **kwargs)
            finally:
                stack.remove(span)
                span.end = perf_counter()
                span.busy = span.end - span.start

        traced.__wrapped__ = fn
        return traced

    def iterator(self, name: str, fn: Callable,
                 count: str | None = None) -> Callable:
        """Wrap a function returning an iterator: the span accumulates
        the time spent producing items; ``count`` tallies them."""
        tracer = self

        def traced(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs), count)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, module: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` (``Class.method`` allowed) by
        ``make(original)``. A module-level function is also replaced in
        every ``repro`` module that imported it by name. A target that
        no longer exists is listed in :attr:`missing`, not fatal."""
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        holders: list[tuple[object, str]] = [(owner, leaf)]
        if not isinstance(owner, type):
            for name, mod in list(sys.modules.items()):
                if mod is None or mod is owner or not (
                        name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        holders.append((mod, key))
        for holder, key in holders:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


class _TimedIterator:
    """Iterator proxy behind :meth:`Tracer.iterator`."""

    __slots__ = ("_tracer", "_name", "_it", "_count", "_span")

    def __init__(self, tracer: Tracer, name: str, it: Iterator,
                 count: str | None):
        self._tracer = tracer
        self._name = name
        self._it = iter(it)
        self._count = count
        self._span: Span | None = None

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1].opaque:
            return next(self._it)
        start = perf_counter()
        span = self._span
        if span is None:
            span = self._span = tracer._new(self._name, start, stack, "",
                                            False)
        stack.append(span)
        try:
            item = next(self._it)
        finally:
            stack.pop()
            span.end = perf_counter()
            span.busy += span.end - start
        if self._count is not None:
            tracer.counts[self._count] += 1
        return item


# -- the program's layer boundaries -------------------------------------------

#: ``SystemResult`` fields summed into ``sim.<field>`` per run.
RESULT_COUNTERS = (
    "cycles", "committed", "engine_instructions", "packets_filtered",
    "packets_delivered", "noc_words", "stall_backpressure",
    "filter_full_cycles", "mapper_blocked_cycles", "cdc_full_cycles",
    "msgq_full_cycles")

#: ``SimulationSession.stats()`` keys read after each run.
SESSION_COUNTERS = (
    "engine_ticks_skipped", "low_cycles_skipped",
    "high_cycles_fastforwarded", "sched_low_events_fired",
    "sched_low_wakeups_posted")


def _spec_key(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return spec.cache_key()


def _store_key(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["key"]


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points with ``tracer`` spans."""
    add = tracer.add

    def after_get(args, record) -> None:
        add("service.store_hits" if record is not None
            else "service.store_misses")

    def after_put(args, path) -> None:
        add("service.store_writes")

    def after_generate(args, trace) -> None:
        add("trace.traces")

    def after_finalize(args, digest) -> None:
        add("trace.traces")
        add("trace.spool_bytes", os.path.getsize(args[0].path))

    def after_sim(args, result) -> None:
        add("sim.runs")
        for field in RESULT_COUNTERS:
            add("sim." + field, getattr(result, field, 0))
        add("sim.detections", len(getattr(result, "detections", ())))
        stats = args[0].stats()
        for key in SESSION_COUNTERS:
            add("sim." + key, stats.get(key, 0))

    def after_build(args, _) -> None:
        add("core.systems_built")

    def after_baseline(args, _) -> None:
        add("ooo.baseline_runs")

    call, gen, it = tracer.call, tracer.generator, tracer.iterator
    patches = [
        ("repro.service.client", "Client.__init__",
         lambda f: call("service.client", f)),
        ("repro.service.client", "Client.map",
         lambda f: gen("service.client", f)),
        ("repro.service.client", "Client.submit",
         lambda f: call("service.client", f)),
        ("repro.service.client", "Client.close",
         lambda f: call("service.client", f)),
        ("repro.service.client", "RunHandle.result",
         lambda f: call("service.client", f)),
        ("repro.service.store", "ResultStore.get",
         lambda f: call("service.store_get", f, rid=_store_key,
                        after=after_get)),
        ("repro.service.store", "ResultStore.put",
         lambda f: call("service.store_put", f, rid=_store_key,
                        after=after_put)),
        ("repro.runner.worker", "execute_spec",
         lambda f: call("runner.execute_spec", f, rid=_spec_key)),
        ("repro.trace.generator", "TraceGenerator.generate",
         lambda f: call("trace.generate", f, after=after_generate)),
        ("repro.trace.generator", "TraceGenerator.iter_records",
         lambda f: it("trace.generate", f,
                      count="trace.records_generated")),
        ("repro.trace.generator", "TraceGenerator.unwind_records",
         lambda f: it("trace.generate", f,
                      count="trace.records_generated")),
        ("repro.trace.scenario", "ScenarioComposer.phases",
         lambda f: it("trace.compose", f)),
        ("repro.trace.stream", "TraceWriter.extend",
         lambda f: call("trace.spool", f)),
        ("repro.trace.stream", "TraceWriter.finalize",
         lambda f: call("trace.spool", f, after=after_finalize)),
        ("repro.trace.stream", "TraceReader.__iter__",
         lambda f: it("trace.read", f)),
        ("repro.trace.stream", "TraceReader.iter_columns",
         lambda f: it("trace.read", f)),
        ("repro.ooo.core", "MainCore.run_standalone",
         lambda f: call("ooo.baseline", f, after=after_baseline)),
        ("repro.kernels.registry", "make_kernel",
         lambda f: call("core.build", f)),
        ("repro.core.system", "FireGuardSystem.__init__",
         lambda f: call("core.build", f, after=after_build)),
        ("repro.core.system", "FireGuardSystem.session",
         lambda f: call("core.build", f)),
        ("repro.sim.session", "SimulationSession.run",
         lambda f: call("sim.run", f, after=after_sim)),
        ("repro.trace.fuzz", "FuzzCase.ground_truth",
         lambda f: call("experiments.ground_truth", f, opaque=True)),
        ("repro.experiments.fuzz", "run",
         lambda f: call("experiments.fuzz", f)),
    ]
    for module, attr, make in patches:
        tracer.patch(module, attr, make)
