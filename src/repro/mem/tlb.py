"""TLB timing model.

Fig 8's AddressSanitizer tail (>2 µs) comes from TLB and cache misses
co-occurring on shadow-memory accesses; the paper stresses that FireSim
models TLB misses accurately.  We model a small fully-associative TLB
with an LRU stack and a fixed page-walk cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.stats import Instrumented


@dataclass(frozen=True)
class TlbParams:
    name: str
    entries: int = 32
    page_bytes: int = 4096
    walk_latency: int = 60  # cycles: multi-level table walk through caches

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError(f"tlb {self.name}: needs at least one entry")
        if self.page_bytes & (self.page_bytes - 1):
            raise ConfigError(f"tlb {self.name}: page size must be power of two")
        if self.walk_latency < 0:
            raise ConfigError(f"tlb {self.name}: negative walk latency")


class Tlb(Instrumented):
    """Fully-associative LRU TLB; ``translate`` returns the added latency."""

    def __init__(self, params: TlbParams):
        self.params = params
        self._page_shift = params.page_bytes.bit_length() - 1
        self._pages: list[int] = []  # MRU last
        self.stat_hits = 0
        self.stat_misses = 0

    def translate(self, addr: int) -> int:
        """Return extra cycles for this access's translation (0 on hit)."""
        page = addr >> self._page_shift
        pages = self._pages
        if page in pages:
            pages.remove(page)
            pages.append(page)
            self.stat_hits += 1
            return 0
        self.stat_misses += 1
        pages.append(page)
        if len(pages) > self.params.entries:
            pages.pop(0)
        return self.params.walk_latency

    def snapshot(self) -> tuple:
        """An immutable copy of the resident pages (LRU order) and
        counters, for :meth:`restore`."""
        return tuple(self._pages), self.stat_hits, self.stat_misses

    def restore(self, snapshot: tuple) -> None:
        pages, self.stat_hits, self.stat_misses = snapshot
        self._pages = list(pages)

    def flush(self) -> None:
        self._pages.clear()

    def reset(self) -> None:
        """Cold TLB: flush entries and zero counters."""
        self.flush()
        self.reset_stats()

    @property
    def miss_rate(self) -> float:
        total = self.stat_hits + self.stat_misses
        return self.stat_misses / total if total else 0.0
