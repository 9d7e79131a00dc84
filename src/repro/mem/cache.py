"""Set-associative cache timing model with MSHR occupancy.

This is a timing (not data-carrying) cache: it tracks which lines are
resident and how many misses are outstanding, returning hit/miss so the
hierarchy can charge latencies.  MSHR exhaustion delays further misses,
which matters for the paper's L1/L2 configurations (8/12 MSHRs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.stats import Instrumented


@dataclass(frozen=True)
class CacheParams:
    """Geometry + latency of one cache level (Table II rows)."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 2
    mshrs: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"cache {self.name}: sizes must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.mshrs <= 0:
            raise ConfigError(f"cache {self.name}: needs at least one MSHR")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


class SetAssocCache(Instrumented):
    """LRU set-associative cache with an MSHR occupancy model.

    ``lookup`` probes and fills; the return value says whether the probe
    hit and how long the requester must additionally wait for a free
    MSHR when it missed while all MSHRs were busy.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._line_shift = params.line_bytes.bit_length() - 1
        if 1 << self._line_shift != params.line_bytes:
            raise ConfigError(
                f"cache {params.name}: line size must be a power of two"
            )
        self._set_mask = params.num_sets - 1
        if params.num_sets & self._set_mask:
            raise ConfigError(
                f"cache {params.name}: set count must be a power of two"
            )
        # Per-set tags, most recently used last.  A set is a tuple
        # until its first write turns it into a list, so a cold or
        # restored cache shares its sets instead of copying them.
        self._sets: list[tuple[int, ...] | list[int]] = \
            [()] * params.num_sets
        # Min-heap of cycles at which outstanding misses complete.
        self._mshr_free_at: list[int] = []
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_mshr_stall_cycles = 0

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> (self._set_mask.bit_length())

    def lookup(self, addr: int, cycle: int, fill_latency: int) -> tuple[bool, int]:
        """Probe the cache at ``cycle``.

        Returns ``(hit, mshr_delay)``.  On a miss the line is filled
        (this model fills immediately for occupancy purposes; timing is
        charged by the hierarchy) and an MSHR is held until
        ``cycle + fill_latency``.  ``mshr_delay`` is the extra wait when
        no MSHR was free at ``cycle``.
        """
        set_idx, tag = self._index(addr)
        tags = self._sets[set_idx]
        if tags.__class__ is tuple:
            tags = self._sets[set_idx] = list(tags)
        if tag in tags:
            # LRU update: move to the back.
            tags.remove(tag)
            tags.append(tag)
            self.stat_hits += 1
            return True, 0

        self.stat_misses += 1
        mshr_delay = self._acquire_mshr(cycle, fill_latency)
        tags.append(tag)
        if len(tags) > self.params.ways:
            tags.pop(0)  # evict LRU
        return False, mshr_delay

    def _acquire_mshr(self, cycle: int, fill_latency: int) -> int:
        heap = self._mshr_free_at
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        delay = 0
        if len(heap) >= self.params.mshrs:
            # All MSHRs busy: wait for the earliest to free.
            earliest = heapq.heappop(heap)
            delay = max(0, earliest - cycle)
            self.stat_mshr_stall_cycles += delay
        heapq.heappush(heap, cycle + delay + fill_latency)
        return delay

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU or statistics."""
        set_idx, tag = self._index(addr)
        return tag in self._sets[set_idx]

    def prefill(self, addr: int) -> None:
        """Insert a line without timing side effects (simulation
        warm-up: no MSHR occupancy, no statistics)."""
        set_idx, tag = self._index(addr)
        tags = self._sets[set_idx]
        if tags.__class__ is tuple:
            tags = self._sets[set_idx] = list(tags)
        if tag in tags:
            tags.remove(tag)
        tags.append(tag)
        if len(tags) > self.params.ways:
            tags.pop(0)

    def snapshot(self) -> tuple:
        """An immutable copy of the run state — resident tags in LRU
        order, MSHR occupancy and counters — for :meth:`restore`."""
        return (tuple(map(tuple, self._sets)), tuple(self._mshr_free_at),
                self.stat_hits, self.stat_misses,
                self.stat_mshr_stall_cycles)

    def restore(self, snapshot: tuple) -> None:
        """Return to the state :meth:`snapshot` captured.  The sets are
        shared with the snapshot as tuples; a set is copied only when
        the run first writes it."""
        (sets, mshrs, self.stat_hits, self.stat_misses,
         self.stat_mshr_stall_cycles) = snapshot
        self._sets = list(sets)
        self._mshr_free_at = list(mshrs)

    def flush(self) -> None:
        self._sets = [()] * len(self._sets)
        self._mshr_free_at.clear()

    def reset(self) -> None:
        """Cold cache: flush contents and zero counters."""
        self.flush()
        self.reset_stats()

    @property
    def miss_rate(self) -> float:
        total = self.stat_hits + self.stat_misses
        return self.stat_misses / total if total else 0.0
