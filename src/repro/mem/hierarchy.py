"""Memory hierarchy wiring: L1 → L2 → LLC → DRAM (Table II).

``access`` walks levels until it hits, charging each level's latency
plus MSHR and TLB delays, and returns a single latency figure for the
core's timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.cache import CacheParams, SetAssocCache
from repro.mem.dram import DramModel, DramParams
from repro.mem.tlb import Tlb, TlbParams


@dataclass(frozen=True)
class HierarchyParams:
    """Default geometry mirrors Table II's memory rows."""

    l1i: CacheParams = field(default_factory=lambda: CacheParams(
        name="L1I", size_bytes=32 * 1024, ways=8, hit_latency=1, mshrs=8))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        name="L1D", size_bytes=32 * 1024, ways=8, hit_latency=3, mshrs=8))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        name="L2", size_bytes=512 * 1024, ways=8, hit_latency=12, mshrs=12))
    llc: CacheParams = field(default_factory=lambda: CacheParams(
        name="LLC", size_bytes=4 * 1024 * 1024, ways=8, hit_latency=30,
        mshrs=8))
    dram: DramParams = field(default_factory=DramParams)
    dtlb: TlbParams = field(default_factory=lambda: TlbParams(
        name="DTLB", entries=32))
    itlb: TlbParams = field(default_factory=lambda: TlbParams(
        name="ITLB", entries=32))


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access."""

    latency: int
    hit_level: str        # "L1", "L2", "LLC", or "DRAM"
    tlb_miss: bool


class MemoryHierarchy:
    """Shared timing model for data and instruction accesses."""

    def __init__(self, params: HierarchyParams | None = None):
        self.params = params or HierarchyParams()
        self.l1i = SetAssocCache(self.params.l1i)
        self.l1d = SetAssocCache(self.params.l1d)
        self.l2 = SetAssocCache(self.params.l2)
        self.llc = SetAssocCache(self.params.llc)
        self.dram = DramModel(self.params.dram)
        self.dtlb = Tlb(self.params.dtlb)
        self.itlb = Tlb(self.params.itlb)

    def reset(self) -> None:
        """Cold hierarchy: flush every level, TLBs and DRAM state."""
        self.l1i.reset()
        self.l1d.reset()
        self.l2.reset()
        self.llc.reset()
        self.dram.reset()
        self.dtlb.reset()
        self.itlb.reset()

    def _parts(self) -> tuple:
        return (self.l1i, self.l1d, self.l2, self.llc, self.dram,
                self.dtlb, self.itlb)

    def snapshot(self) -> tuple:
        """A structural copy of every level's run state (cache sets,
        MSHR heaps, TLB pages, DRAM grant state, counters); restoring
        it is what a warmed-up core starts each run from."""
        return tuple(part.snapshot() for part in self._parts())

    def restore(self, snapshot: tuple) -> None:
        """Return every level to the state :meth:`snapshot` captured."""
        for part, state in zip(self._parts(), snapshot):
            part.restore(state)

    def access_data(self, addr: int, cycle: int) -> AccessResult:
        """A load/store data access through DTLB + L1D → … → DRAM."""
        return self._access(addr, cycle, self.l1d, self.dtlb)

    def access_instr(self, addr: int, cycle: int) -> AccessResult:
        """An instruction fetch through ITLB + L1I → … → DRAM."""
        return self._access(addr, cycle, self.l1i, self.itlb)

    def _access(self, addr: int, cycle: int, l1: SetAssocCache,
                tlb: Tlb) -> AccessResult:
        tlb_latency = tlb.translate(addr)
        tlb_missed = tlb_latency > 0
        latency = tlb_latency + l1.params.hit_latency

        hit, mshr = l1.lookup(addr, cycle, self.l2.params.hit_latency)
        latency += mshr
        if hit:
            return AccessResult(latency, "L1", tlb_missed)

        latency += self.l2.params.hit_latency
        hit, mshr = self.l2.lookup(addr, cycle, self.llc.params.hit_latency)
        latency += mshr
        if hit:
            return AccessResult(latency, "L2", tlb_missed)

        latency += self.llc.params.hit_latency
        hit, mshr = self.llc.lookup(
            addr, cycle, self.params.dram.latency_cycles)
        latency += mshr
        if hit:
            return AccessResult(latency, "LLC", tlb_missed)

        latency += self.dram.access(cycle + latency)
        return AccessResult(latency, "DRAM", tlb_missed)
