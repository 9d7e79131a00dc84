"""DRAM latency/occupancy model (Table II: DDR3-1066, max 32 requests)."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.stats import Instrumented


@dataclass(frozen=True)
class DramParams:
    latency_cycles: int = 192   # ~60 ns at the 3.2 GHz core clock
    max_requests: int = 32
    service_interval: int = 4   # cycles between grants (bandwidth cap)

    def __post_init__(self) -> None:
        if self.latency_cycles <= 0 or self.max_requests <= 0:
            raise ConfigError("DRAM latency and request window must be positive")
        if self.service_interval <= 0:
            raise ConfigError("DRAM service interval must be positive")


class DramModel(Instrumented):
    """Fixed-latency DRAM with a bounded in-flight request window.

    When the window is full, new requests queue behind the oldest
    outstanding one — this creates memory-level parallelism limits that
    show up as the LLC-miss plateau in scaling experiments.
    """

    def __init__(self, params: DramParams):
        self.params = params
        self._completion_heap: list[int] = []
        self._last_grant = -params.service_interval
        self.stat_requests = 0
        self.stat_queue_cycles = 0

    def access(self, cycle: int) -> int:
        """Issue a request at ``cycle``; return its total latency."""
        heap = self._completion_heap
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)

        start = max(cycle, self._last_grant + self.params.service_interval)
        if len(heap) >= self.params.max_requests:
            earliest = heapq.heappop(heap)
            start = max(start, earliest)
        self._last_grant = start
        done = start + self.params.latency_cycles
        heapq.heappush(heap, done)

        self.stat_requests += 1
        self.stat_queue_cycles += start - cycle
        return done - cycle

    def snapshot(self) -> tuple:
        """An immutable copy of the grant state (outstanding
        completions, last grant) and counters, for :meth:`restore`."""
        return (tuple(self._completion_heap), self._last_grant,
                self.stat_requests, self.stat_queue_cycles)

    def restore(self, snapshot: tuple) -> None:
        (heap, self._last_grant, self.stat_requests,
         self.stat_queue_cycles) = snapshot
        self._completion_heap = list(heap)

    def reset(self) -> None:
        """Drop outstanding requests and counters (session reset)."""
        self._completion_heap.clear()
        self._last_grant = -self.params.service_interval
        self.reset_stats()
