"""The main OoO core's cycle-stepped timing model.

This is a trace-driven model of a 4-wide SonicBOOM: instructions are
scheduled at dispatch (completion time = operand readiness + functional
unit + memory latency), held in the ROB, and committed in order up to
the commit width.  The model exists to reproduce the phenomena
FireGuard's evaluation measures:

* commit back-pressure when the event filter's FIFOs fill (§IV-C),
* PRF read-port contention when the forwarding channel preempts a
  port (§III-A),
* front-end redirects from the TAGE/BTB/RAS predictor,
* cache/TLB miss latency through the Table II hierarchy.

The timing-independent part of a run — the functional warm-up of the
hierarchy and the predictor's verdict on every control record — is
computed once per trace by :meth:`MainCore.prepare` into a
:class:`PreparedTrace`, which every :meth:`MainCore.begin` on that
trace restores (DESIGN.md: "Main core").

A ``CommitObserver`` (FireGuard's frontend) may veto commit in a given
lane — that is exactly the paper's back-pressure mechanism.

The per-cycle commit/dispatch/schedule walk lives in
:mod:`repro.hotpath.ooo_kernel` (DESIGN.md: hotpath layer): this class
owns the flattened run state — ROB rings, LSQ occupancy counters and
the register-ready scoreboard as preallocated arrays — and delegates
:meth:`step` to :func:`~repro.hotpath.ooo_kernel.core_step`.  The
:class:`~repro.ooo.rob.ReorderBuffer` and
:class:`~repro.ooo.lsq.LoadStoreQueues` classes remain in
:mod:`repro.ooo` as the unit-tested reference structures the rings
flatten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Protocol

from repro.branch.predictor import FrontEndPredictor, PredictorParams
from repro.errors import SimulationError
from repro.hotpath import ooo_kernel as _ok
from repro.hotpath.ooo_kernel import core_step
from repro.isa.opcodes import InstrClass
from repro.mem.hierarchy import HierarchyParams, MemoryHierarchy
from repro.ooo.issue import FunctionalUnitPool, FuParams
from repro.ooo.params import CoreParams
from repro.ooo.prf import PhysicalRegisterFile
from repro.trace.record import InstrRecord, Trace

#: Architectural register space preallocated in the ready scoreboard
#: (grown on demand by the kernel for out-of-range trace registers).
_REG_SPACE = 64


class CommitObserver(Protocol):
    """FireGuard's hook into the commit stage."""

    def offer(self, record: InstrRecord, lane: int, cycle: int) -> bool:
        """Observe a committing instruction.  Returning False stalls
        commit (the filter FIFO for this lane is full)."""
        ...

    @property
    def lanes(self) -> int:
        """Number of commit lanes the observer can watch per cycle
        (the event-filter width; Fig 9 sweeps 1/2/4)."""
        ...


@dataclass
class CoreResult:
    """Timing outcome of one run."""

    cycles: int
    committed: int
    stall_backpressure: int = 0
    stall_rob_full: int = 0
    stall_lsq_full: int = 0
    stall_fetch: int = 0
    stall_fetch_redirect: int = 0
    stall_fetch_icache: int = 0
    mispredicts: int = 0
    commit_times: dict[int, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


@dataclass(frozen=True, eq=False)
class PreparedTrace:
    """Everything about running one trace that does not depend on
    timing, computed once by :meth:`MainCore.prepare` and restored by
    every :meth:`MainCore.begin` on that trace.

    * ``hierarchy`` — the memory hierarchy's snapshot after the
      functional warm-up: cache sets, MSHR heaps, TLB pages, DRAM grant
      state and counters;
    * ``mispredicts`` — one byte per record, 1 where the front-end
      predictor (warmed on the same prefix) mispredicts the record when
      the run dispatches it.  The front end predicts at dispatch, and
      dispatch walks the trace in record order whatever the
      back-pressure, so each verdict is fixed before the run.

    The parameters and warm-up length it was built for are kept so a
    mismatched restore fails loudly instead of timing the wrong core.
    """

    length: int
    warmup_records: int
    hierarchy_params: HierarchyParams
    predictor_params: PredictorParams
    hierarchy: tuple
    mispredicts: bytes


class MainCore:
    """Cycle-stepped trace-driven OoO core."""

    _LINE_SHIFT = _ok.LINE_SHIFT

    def __init__(self, params: CoreParams | None = None,
                 hierarchy: MemoryHierarchy | None = None,
                 predictor: FrontEndPredictor | None = None):
        self.params = params or CoreParams()
        self.hierarchy = hierarchy or MemoryHierarchy(self.params.hierarchy)
        self.predictor = predictor or FrontEndPredictor(self.params.predictor)
        self.prf = PhysicalRegisterFile(self.params.prf_read_ports,
                                        self.params.phys_regs)
        self.fu_pool = self._build_fu_pool()
        self._observer: CommitObserver | None = None

        self._trace: list[InstrRecord] = []
        self._mispredicts = b""
        p = self.params
        st = [0] * _ok.ST_LEN
        st[_ok.LAST_FETCH_LINE] = -1
        st[_ok.ROB_CAP] = p.rob_entries
        st[_ok.LDQ_CAP] = p.ldq_entries
        st[_ok.STQ_CAP] = p.stq_entries
        st[_ok.WIDTH] = p.width
        st[_ok.REDIRECT_PENALTY] = p.redirect_penalty
        st[_ok.LAT_STORE] = p.lat_store
        st[_ok.L2_HIT] = self.hierarchy.params.l2.hit_latency
        st[_ok.L1I_HIT] = self.hierarchy.params.l1i.hit_latency
        self._st = st
        self._rob_rec: list = [None] * p.rob_entries
        self._rob_done: list[int] = [0] * p.rob_entries
        self._reg_ready: list[int] = [0] * _REG_SPACE
        self.result = CoreResult(cycles=0, committed=0)

    def reset(self) -> None:
        """Return the core to its just-constructed state: cold caches
        and TLBs, empty queues and run state.

        ``begin`` resets only the per-run bookkeeping and restores the
        hierarchy from a :class:`PreparedTrace`; ``reset`` is the
        stronger guarantee the simulation session needs to make a
        reused core bit-identical to a fresh one.  The predictor is
        left alone: runs replay the verdicts :meth:`prepare` recorded,
        and :meth:`prepare` retrains it from cold."""
        self.hierarchy.reset()
        self.prf.reset()
        self.fu_pool.reset()
        self._observer = None
        self._trace = []
        self._mispredicts = b""
        self._clear_run_state()

    def _clear_run_state(self) -> None:
        st = self._st
        st[_ok.NEXT_DISPATCH] = 0
        st[_ok.FETCH_STALL_UNTIL] = 0
        st[_ok.LAST_FETCH_LINE] = -1
        st[_ok.IN_FLIGHT] = 0
        st[_ok.STALL_REDIRECT] = 0
        st[_ok.ROB_HEAD] = 0
        st[_ok.ROB_COUNT] = 0
        st[_ok.LDQ_COUNT] = 0
        st[_ok.STQ_COUNT] = 0
        st[_ok.RECORD_TIMES] = 0
        st[_ok.TRACE_LEN] = 0
        rob_rec = self._rob_rec
        for index in range(len(rob_rec)):
            rob_rec[index] = None
        self._reg_ready = [0] * _REG_SPACE
        self.result = CoreResult(cycles=0, committed=0)

    def _build_fu_pool(self) -> FunctionalUnitPool:
        p = self.params
        units = {
            "int": FuParams(count=p.n_int_alu, latency=p.lat_int_alu),
            "fp": FuParams(count=p.n_fp_muldiv, latency=p.lat_fp),
            "mul": FuParams(count=p.n_fp_muldiv, latency=p.lat_mul),
            "div": FuParams(count=p.n_fp_muldiv, latency=p.lat_div,
                            initiation_interval=p.lat_div),
            "mem": FuParams(count=p.n_mem, latency=1),
            "jump": FuParams(count=p.n_jump, latency=p.lat_jump),
            "csr": FuParams(count=p.n_csr, latency=p.lat_csr),
        }
        class_map = {
            InstrClass.INT_ALU: "int",
            InstrClass.INT_MUL: "mul",
            InstrClass.INT_DIV: "div",
            InstrClass.FP_ALU: "fp",
            InstrClass.LOAD: "mem",
            InstrClass.STORE: "mem",
            InstrClass.BRANCH: "jump",
            InstrClass.JUMP: "jump",
            InstrClass.CALL: "jump",
            InstrClass.RET: "jump",
            InstrClass.CSR: "csr",
            InstrClass.FENCE: "int",
            InstrClass.CUSTOM: "int",
            InstrClass.SYSTEM: "csr",
        }
        return FunctionalUnitPool(units, class_map)

    # -- wiring ---------------------------------------------------------
    def attach_observer(self, observer: CommitObserver) -> None:
        """Attach FireGuard's commit-stage observer."""
        self._observer = observer

    # -- run control ------------------------------------------------------
    DEFAULT_WARMUP = 4000

    def begin(self, trace: "Trace", record_commit_times: bool = False,
              warmup_records: int | None = None,
              prepared: PreparedTrace | None = None) -> None:
        """Reset run state and start consuming ``trace``.

        ``trace`` is any trace source implementing the record protocol
        (``len()``, ``iter_records()``, ``record_view()``, region
        metadata) — an in-memory :class:`Trace` or an on-disk
        :class:`~repro.trace.stream.StreamedTrace`, whose reads stay
        within bounded-memory chunks.

        Every run starts from a :class:`PreparedTrace`: ``prepared``
        when the caller has one for this trace (the runner caches them
        per workload), otherwise one built here by :meth:`prepare`.
        The hierarchy is restored to its warmed snapshot and dispatch
        replays the recorded branch verdicts, so a restored run is
        bit-identical to one that warms up from scratch.  A
        ``prepared`` built for another trace length, core
        configuration or warm-up length raises
        :class:`~repro.errors.SimulationError`.
        """
        if prepared is None:
            prepared = self.prepare(trace, warmup_records)
        else:
            self._check_prepared(prepared, trace, warmup_records)
        self.hierarchy.restore(prepared.hierarchy)
        self._mispredicts = prepared.mispredicts
        self._trace = trace.record_view()
        self._clear_run_state()
        st = self._st
        st[_ok.TRACE_LEN] = len(self._trace)
        st[_ok.RECORD_TIMES] = 1 if record_commit_times else 0

    def prepare(self, trace: "Trace",
                warmup_records: int | None = None) -> PreparedTrace:
        """Compute the timing-independent part of running ``trace``.

        A warm-up pass touches the caches, TLBs and branch predictor
        with a prefix of the trace (functional only, no timing): short
        traces otherwise measure compulsory misses instead of steady
        state.  The hierarchy is then snapshotted, and the warmed
        predictor walks the whole trace in record order — the order
        dispatch takes records — recording each mispredict.  Baseline and
        monitored runs restore the same preparation, so slowdown ratios
        are unaffected.  The core's hierarchy and predictor are the
        scratch state: both are reset first, so the result depends only
        on the trace and the core parameters.  One iteration of
        ``trace.iter_records()`` serves both passes.
        """
        if warmup_records is None:
            warmup_records = min(self.DEFAULT_WARMUP, len(trace) // 2)
        hierarchy = self.hierarchy
        predictor = self.predictor
        hierarchy.reset()
        predictor.reset()
        predict = predictor.predict_and_train
        records = trace.iter_records()
        # Control records of the prefix, replayed once warm.
        prefix: list[tuple[int, InstrRecord]] = []
        last_line = -1
        for index, record in enumerate(islice(records, warmup_records)):
            line = record.pc >> self._LINE_SHIFT
            if line != last_line:
                hierarchy.access_instr(record.pc, 0)
                last_line = line
            if record.mem_addr is not None:
                hierarchy.access_data(record.mem_addr, 0)
            if record.is_ctrl:
                predict(record.iclass, record.pc, record.taken,
                        record.target)
                prefix.append((index, record))
        # The structurally warm set is L2/LLC-resident at steady state;
        # fill those levels (not the L1 — it holds only the hot set).
        if trace.warm_end > trace.global_base:
            addr = trace.global_base
            while addr < trace.warm_end:
                hierarchy.l2.prefill(addr)
                hierarchy.llc.prefill(addr)
                addr += 64
        snapshot = hierarchy.snapshot()

        mispredicts = bytearray(len(trace))
        for index, record in chain(prefix,
                                   enumerate(records, warmup_records)):
            if record.is_ctrl and predict(record.iclass, record.pc,
                                          record.taken, record.target):
                mispredicts[index] = 1
        return PreparedTrace(
            length=len(mispredicts), warmup_records=warmup_records,
            hierarchy_params=hierarchy.params,
            predictor_params=predictor.params,
            hierarchy=snapshot, mispredicts=bytes(mispredicts))

    def _check_prepared(self, prepared: PreparedTrace, trace: "Trace",
                        warmup_records: int | None) -> None:
        problems = []
        if prepared.length != len(trace):
            problems.append(f"it covers {prepared.length} records, the "
                            f"trace has {len(trace)}")
        if (warmup_records is not None
                and prepared.warmup_records != warmup_records):
            problems.append(f"it warmed {prepared.warmup_records} "
                            f"records, not {warmup_records}")
        if prepared.hierarchy_params != self.hierarchy.params:
            problems.append("its memory hierarchy parameters differ")
        if prepared.predictor_params != self.predictor.params:
            problems.append("its predictor parameters differ")
        if problems:
            raise SimulationError(
                f"prepared trace does not fit {trace.name!r} on this "
                f"core: " + "; ".join(problems))

    @property
    def done(self) -> bool:
        st = self._st
        return (st[_ok.NEXT_DISPATCH] >= st[_ok.TRACE_LEN]
                and st[_ok.ROB_COUNT] == 0)

    def quiescent_at(self, cycle: int) -> bool:
        """True when ``step(cycle)`` would be a provable no-op beyond
        the cycle counter: the trace is consumed, the ROB is empty, and
        no fetch-stall window is still charging front-end stall
        statistics.  The event-driven session fast-forwards only past
        quiescent cycles, so even per-cycle stall counters stay
        bit-identical to the dense loop."""
        return self.done and cycle >= self._st[_ok.FETCH_STALL_UNTIL]

    def step(self, cycle: int) -> None:
        """Advance one core cycle: commit, then dispatch."""
        core_step(self, self._st, self._rob_rec, self._rob_done,
                  self._reg_ready, self._trace, self._mispredicts, cycle)

    # -- stall fast-forward ----------------------------------------------
    def stall_window(self, cycle: int) -> tuple[int, str] | None:
        """The provable counter-only stall window starting at ``cycle``.

        Returns ``(until, kind)`` when every cycle in
        ``[cycle, until)`` would execute as pure stall accounting —
        nothing commits (the ROB head completes at or after ``until``)
        and nothing dispatches (front-end stall, exhausted trace, full
        ROB, or a blocked LSQ, in the kernel dispatch priority order) —
        or ``None`` when the next cycle does real work.  The session
        batches such windows with :meth:`skip_stalls` instead of
        stepping them; the stall cause cannot change mid-window because
        only commit and dispatch mutate it, and neither runs.
        Windows of fewer than two cycles are not worth the bookkeeping
        and report ``None``.
        """
        st = self._st
        rob_count = st[_ok.ROB_COUNT]
        head_done = (self._rob_done[st[_ok.ROB_HEAD]]
                     if rob_count else None)
        if head_done is not None and head_done <= cycle:
            return None  # the head commits this cycle
        until = st[_ok.FETCH_STALL_UNTIL]
        if cycle < until:
            if head_done is not None and head_done < until:
                until = head_done
            kind = ("fetch-redirect" if st[_ok.STALL_REDIRECT]
                    else "fetch-icache")
        elif st[_ok.NEXT_DISPATCH] >= st[_ok.TRACE_LEN]:
            if head_done is None:
                return None  # fully drained: the quiescent path owns it
            until, kind = head_done, "drain"
        elif rob_count == st[_ok.ROB_CAP]:
            until, kind = head_done, "rob"
        elif not self._lsq_can_dispatch(
                self._trace[st[_ok.NEXT_DISPATCH]].iclass):
            if head_done is None:
                return None
            until, kind = head_done, "lsq"
        else:
            return None
        if until <= cycle + 1:
            return None
        return until, kind

    def _lsq_can_dispatch(self, iclass: InstrClass) -> bool:
        st = self._st
        if iclass is InstrClass.LOAD:
            return st[_ok.LDQ_COUNT] < st[_ok.LDQ_CAP]
        if iclass is InstrClass.STORE:
            return st[_ok.STQ_COUNT] < st[_ok.STQ_CAP]
        return True

    def skip_stalls(self, cycle: int, target: int, kind: str) -> None:
        """Account ``target - cycle`` stall cycles in one batch —
        exactly the counters ``step`` would have incremented over the
        window :meth:`stall_window` reported."""
        delta = target - cycle
        result = self.result
        if kind == "fetch-redirect":
            result.stall_fetch += delta
            result.stall_fetch_redirect += delta
        elif kind == "fetch-icache":
            result.stall_fetch += delta
            result.stall_fetch_icache += delta
        elif kind == "rob":
            result.stall_rob_full += delta
        elif kind == "lsq":
            result.stall_lsq_full += delta
        # "drain" charges nothing: an exhausted trace leaves dispatch
        # silent while the ROB empties.
        result.cycles = target

    def run_standalone(self, trace: Trace,
                       max_cycles: int = 50_000_000,
                       prepared: PreparedTrace | None = None
                       ) -> CoreResult:
        """Run a trace to completion without FireGuard attached
        (restoring ``prepared`` when given, see :meth:`begin`)."""
        self.begin(trace, prepared=prepared)
        cycle = 0
        while not self.done:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"core did not finish within {max_cycles} cycles")
            self.step(cycle)
            cycle += 1
        return self.result
