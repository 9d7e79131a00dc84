"""FireGuard system assembly (Fig 1).

``FireGuardSystem`` wires a BOOM-like main core to the FireGuard
elements — data-forwarding channel, event filter, allocator, CDC,
multicast channel, mesh NoC — and a set of analysis engines (µcores
running guardian kernels, or hardware accelerators).

The cycle loop lives in :class:`repro.sim.session.SimulationSession`
(DESIGN.md: session layer): construction here is the expensive,
build-once part (filter SRAM programming, kernel assembly, engine
partitioning); the session executes traces — event-driven over
:mod:`repro.sched` wakeups by default, dense with
``SimulationSession(dense=True)`` — and can ``reset()`` the built
system so many traces run on one build.  ``run`` below is a
convenience wrapper over a private session.

Engines are partitioned per kernel (the paper gives each kernel its
own group of µcores or one HA); the mapper's distributor fans shared
instruction groups out to every subscribed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.allocator import Allocator, Distributor
from repro.core.cdc import CdcFifo
from repro.core.config import FireGuardConfig
from repro.core.event_filter import EventFilter
from repro.core.fabric import MulticastChannel
from repro.core.forwarding import DataForwardingChannel
from repro.core.isax import IsaxInterface, IsaxStyle
from repro.core.minifilter import FilterEntry
from repro.core.msgqueue import QueueController
from repro.core.noc import MeshNoc, NocParams
from repro.core.packet import Packet
from repro.core.scheduling import SchedulingEngine
from repro.errors import ConfigError
from repro.kernels.base import GuardianKernel
from repro.kernels.groups import group_rules
from repro.mem.sparse import SparseMemory
from repro.ooo.core import MainCore
from repro.ooo.params import CoreParams
from repro.trace.record import Trace
from repro.ucore.assembler import assemble
from repro.ucore.core import MicroCore, UcoreMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.session import SimulationSession


@dataclass
class Alert:
    """One detection raised by an engine."""

    engine_id: int
    code: int
    time_ns: float
    attack_id: int | None
    pc: int


@dataclass
class SystemResult:
    """Outcome of one monitored run."""

    cycles: int
    committed: int
    time_ns: float
    stall_backpressure: int
    alerts: list[Alert] = field(default_factory=list)
    detections: dict[int, float] = field(default_factory=dict)  # id → ns
    filter_full_cycles: int = 0
    mapper_blocked_cycles: int = 0
    cdc_full_cycles: int = 0
    msgq_full_cycles: int = 0
    packets_filtered: int = 0
    packets_delivered: int = 0
    engine_instructions: int = 0
    prf_preemptions: int = 0
    noc_words: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def detection_latencies(self) -> list[float]:
        return sorted(self.detections.values())


class FireGuardSystem:
    """A main core plus FireGuard frontend/backend running kernels."""

    def __init__(self, kernels: list[GuardianKernel],
                 config: FireGuardConfig | None = None,
                 core_params: CoreParams | None = None,
                 engines_per_kernel: dict[str, int] | None = None,
                 accelerated: frozenset[str] | set[str] = frozenset(),
                 isax_style: IsaxStyle = IsaxStyle.MA_STAGE):
        if not kernels:
            raise ConfigError("FireGuardSystem needs at least one kernel")
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate kernel names: {names}")

        base_config = config or FireGuardConfig()
        self.kernels = kernels
        self.accelerated = frozenset(accelerated)
        self.isax_style = isax_style

        # -- engine partitioning ----------------------------------------
        engines_per_kernel = engines_per_kernel or {}
        self._groups: dict[str, list[int]] = {}
        next_engine = 0
        for kernel in kernels:
            if kernel.name in self.accelerated:
                if not kernel.has_accelerator:
                    raise ConfigError(
                        f"kernel {kernel.name} has no accelerator variant")
                count = 1
            else:
                count = engines_per_kernel.get(kernel.name,
                                               base_config.num_engines)
            if count <= 0:
                raise ConfigError(f"kernel {kernel.name}: no engines")
            self._groups[kernel.name] = list(
                range(next_engine, next_engine + count))
            next_engine += count
        total_engines = next_engine

        # One config sized for the full engine complement.  ``replace``
        # keeps every other field (a field-by-field rebuild once
        # silently dropped ``mapper_width``).
        self.config = replace(base_config,
                              num_sched_engines=len(kernels),
                              num_engines=total_engines)

        # -- main core + frontend ------------------------------------------
        self.core = MainCore(core_params or CoreParams())
        self.forwarding = DataForwardingChannel(self.core.prf)
        high_period = 1.0 / self.config.high_freq_ghz
        self.filter = EventFilter(
            width=self.config.filter_width,
            fifo_depth=self.config.fifo_depth,
            forwarding=self.forwarding,
            high_period_ns=high_period)
        self._program_filter()

        # -- mapper ----------------------------------------------------------
        self.distributor = Distributor(self.config.max_gids, len(kernels))
        self.ses: list[SchedulingEngine] = []
        for se_index, kernel in enumerate(kernels):
            se = SchedulingEngine(
                se_index=se_index,
                engines=self._groups[kernel.name],
                num_engines_total=total_engines,
                policy=kernel.policy,
                block_size=kernel.block_size)
            self.ses.append(se)
            for gid in kernel.groups:
                self.distributor.subscribe(gid, se_index)
        self.allocator = Allocator(self.distributor, self.ses,
                                   total_engines)
        self.cdc = CdcFifo(self.config.cdc_depth)

        # -- backend ----------------------------------------------------------
        self.memory = UcoreMemory(self.config, SparseMemory())
        self.controllers = [
            QueueController(engine_id=i,
                            input_depth=self.config.msgq_depth,
                            peer_depth=self.config.peer_queue_depth)
            for i in range(total_engines)
        ]
        # The mapper is scalar per *core* cycle (§III-C); the fabric at
        # half the clock therefore moves mapper_width x 2 packets per
        # fabric cycle, with dual-ported message queues to match.
        clock_ratio = max(1, round(self.config.high_freq_ghz
                                   / self.config.low_freq_ghz))
        self.multicast = MulticastChannel(
            [c.input_queue for c in self.controllers],
            width=self.config.mapper_width * clock_ratio,
            queue_ports=clock_ratio)
        rows, cols = self.config.mesh_shape()
        self.noc = MeshNoc(
            NocParams(rows=rows, cols=cols,
                      hop_cycles=self.config.noc_hop_cycles),
            [c.peer_queue for c in self.controllers])

        self.engines: list = []
        self._build_engines()

        # -- run state (written by the active SimulationSession) ----------
        self._now_ns = 0.0
        self._result: SystemResult | None = None
        self._session: SimulationSession | None = None

    # -- construction helpers ---------------------------------------------
    def _program_filter(self) -> None:
        """Write the union of all kernels' group rules into the SRAM."""
        seen: dict[tuple[int, int | None], FilterEntry] = {}
        for kernel in self.kernels:
            for gid in kernel.groups:
                rule = group_rules(gid)
                for opcode, funct3 in rule.rows:
                    key = (opcode, funct3)
                    prev = seen.get(key)
                    if prev is not None and prev.gid != rule.gid:
                        raise ConfigError(
                            f"filter row {key} claimed by GIDs "
                            f"{prev.gid} and {rule.gid}")
                    dp_sel = rule.dp_sel | (prev.dp_sel if prev else 0)
                    entry = FilterEntry(gid=rule.gid, dp_sel=dp_sel)
                    seen[key] = entry
                    if funct3 is None:
                        self.filter.program_all_funct3(opcode, entry)
                    else:
                        self.filter.program(opcode, funct3, entry)

    def _build_engines(self) -> None:
        for kernel in self.kernels:
            engine_ids = self._groups[kernel.name]
            if kernel.name in self.accelerated:
                engine_id = engine_ids[0]
                ha = kernel.make_accelerator(
                    engine_id,
                    self.controllers[engine_id].input_queue,
                    self._on_ha_alert)
                self.engines.append(ha)
                continue
            program = assemble(kernel.program_source())
            for position, engine_id in enumerate(engine_ids):
                ucore = MicroCore(
                    engine_id=engine_id,
                    program=program,
                    controller=self.controllers[engine_id],
                    memory=self.memory,
                    config=self.config,
                    isax=IsaxInterface(self.isax_style),
                    on_alert=self._on_ucore_alert,
                    name=kernel.name)
                ucore.preset_registers(kernel.preset_registers(
                    engine_id, engine_ids, position))
                self.engines.append(ucore)

    # -- alert plumbing ------------------------------------------------------
    def _record_alert(self, engine_id: int, code: int,
                      packet: Packet | None) -> None:
        result = self._result
        if result is None:
            return
        attack_id = packet.attack_id if packet is not None else None
        pc = packet.pc if packet is not None else 0
        result.alerts.append(Alert(engine_id=engine_id, code=code,
                                   time_ns=self._now_ns,
                                   attack_id=attack_id, pc=pc))
        if attack_id is not None and attack_id not in result.detections:
            latency = self._now_ns - packet.commit_ns
            result.detections[attack_id] = max(latency, 0.0)

    def _on_ucore_alert(self, engine_id: int, code: int,
                        _low_cycle: int) -> None:
        queue = self.controllers[engine_id].input_queue
        packet = queue.recent_packet
        if packet is not None and packet.attack_id is None:
            # Unrolled kernels check packets a few pops after removal;
            # attribute to the newest recently-popped attack packet.
            for candidate in queue.recently_popped():
                if candidate.attack_id is not None:
                    packet = candidate
                    break
        self._record_alert(engine_id, code, packet)

    def _on_ha_alert(self, engine_id: int, packet: Packet,
                     _low_cycle: int) -> None:
        self._record_alert(engine_id, 0, packet)

    # -- simulation -------------------------------------------------------
    def session(self) -> "SimulationSession":
        """The (lazily created) session driving this system.

        Use it directly for build-once/run-many workflows::

            session = system.session()
            first = session.run(trace_a)
            session.reset()
            second = session.run(trace_b)
        """
        if self._session is None:
            from repro.sim.session import SimulationSession
            self._session = SimulationSession(self)
        return self._session

    def run(self, trace: Trace,
            max_cycles: int = 50_000_000) -> SystemResult:
        """Run one workload to completion (trace consumed, queues
        drained, engines idle) and return the system result.

        Convenience wrapper over :meth:`session`: resets the session
        first when it has already executed a trace, so repeated calls
        behave like runs on freshly built systems.
        """
        session = self.session()
        if session.dirty:
            session.reset()
        return session.run(trace, max_cycles)


def run_baseline(trace: Trace,
                 core_params: CoreParams | None = None) -> int:
    """Cycles for the same trace on an unmonitored core (the slowdown
    denominator used throughout §IV)."""
    core = MainCore(core_params or CoreParams())
    result = core.run_standalone(trace)
    return result.cycles
