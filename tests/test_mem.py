"""Unit tests for the memory substrate."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.mem.cache import CacheParams, SetAssocCache
from repro.mem.dram import DramModel, DramParams
from repro.mem.hierarchy import HierarchyParams, MemoryHierarchy
from repro.mem.sparse import SparseMemory
from repro.mem.tlb import Tlb, TlbParams


def small_cache(ways=2, sets=4, mshrs=2):
    return SetAssocCache(CacheParams(
        name="t", size_bytes=ways * sets * 64, ways=ways, hit_latency=1,
        mshrs=mshrs))


class TestCacheParams:
    def test_num_sets(self):
        p = CacheParams(name="x", size_bytes=32 * 1024, ways=8)
        assert p.num_sets == 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(name="x", size_bytes=1000, ways=3)

    def test_zero_mshrs_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(name="x", size_bytes=1024, ways=2, mshrs=0)


class TestSetAssocCache:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        hit, _ = c.lookup(0x1000, 0, 10)
        assert not hit
        hit, _ = c.lookup(0x1000, 1, 10)
        assert hit

    def test_same_line_different_bytes_hit(self):
        c = small_cache()
        c.lookup(0x1000, 0, 10)
        hit, _ = c.lookup(0x103F, 1, 10)
        assert hit

    def test_adjacent_line_misses(self):
        c = small_cache()
        c.lookup(0x1000, 0, 10)
        hit, _ = c.lookup(0x1040, 1, 10)
        assert not hit

    def test_lru_eviction(self):
        c = small_cache(ways=2, sets=1)
        c.lookup(0x0 * 64, 0, 10)   # A
        c.lookup(0x1 * 64, 1, 10)   # B
        c.lookup(0x0 * 64, 2, 10)   # touch A (B becomes LRU)
        c.lookup(0x2 * 64, 3, 10)   # C evicts B
        assert c.contains(0x0)
        assert not c.contains(0x1 * 64)
        assert c.contains(0x2 * 64)

    def test_mshr_exhaustion_delays(self):
        c = small_cache(ways=2, sets=4, mshrs=1)
        _, d0 = c.lookup(0x0, 0, 100)
        _, d1 = c.lookup(0x40 * 7, 0, 100)  # second concurrent miss
        assert d0 == 0
        assert d1 >= 100

    def test_mshr_frees_over_time(self):
        c = small_cache(mshrs=1)
        c.lookup(0x0, 0, 10)
        _, delay = c.lookup(0x40 * 9, 50, 10)  # after the fill completed
        assert delay == 0

    def test_stats_counted(self):
        c = small_cache()
        c.lookup(0x0, 0, 10)
        c.lookup(0x0, 1, 10)
        assert c.stat_hits == 1 and c.stat_misses == 1
        assert c.miss_rate == pytest.approx(0.5)

    def test_flush(self):
        c = small_cache()
        c.lookup(0x0, 0, 10)
        c.flush()
        assert not c.contains(0x0)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(CacheParams(name="x", size_bytes=2 * 3 * 48,
                                      ways=2, line_bytes=48))


class TestTlb:
    def test_miss_then_hit(self):
        t = Tlb(TlbParams(name="t", entries=4, walk_latency=30))
        assert t.translate(0x1000) == 30
        assert t.translate(0x1FFF) == 0  # same page

    def test_different_page_misses(self):
        t = Tlb(TlbParams(name="t", entries=4))
        t.translate(0x0)
        assert t.translate(0x1000) > 0

    def test_lru_capacity(self):
        t = Tlb(TlbParams(name="t", entries=2, walk_latency=10))
        t.translate(0x0000)
        t.translate(0x1000)
        t.translate(0x0000)      # refresh page 0
        t.translate(0x2000)      # evicts page 1
        assert t.translate(0x0000) == 0
        assert t.translate(0x1000) == 10

    def test_miss_rate(self):
        t = Tlb(TlbParams(name="t", entries=8))
        t.translate(0x0)
        t.translate(0x0)
        assert t.miss_rate == pytest.approx(0.5)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            TlbParams(name="t", entries=0)
        with pytest.raises(ConfigError):
            TlbParams(name="t", page_bytes=3000)


class TestDram:
    def test_base_latency(self):
        d = DramModel(DramParams(latency_cycles=100, max_requests=4,
                                 service_interval=1))
        assert d.access(0) == 100

    def test_bandwidth_serialisation(self):
        d = DramModel(DramParams(latency_cycles=100, max_requests=32,
                                 service_interval=4))
        first = d.access(0)
        second = d.access(0)   # same cycle: must wait a grant slot
        assert second == first + 4

    def test_window_limit(self):
        d = DramModel(DramParams(latency_cycles=100, max_requests=2,
                                 service_interval=1))
        d.access(0)
        d.access(0)
        third = d.access(0)
        assert third > 100  # waited for a window slot

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            DramParams(latency_cycles=0)


class TestHierarchy:
    def test_l1_hit_fast(self):
        h = MemoryHierarchy()
        first = h.access_data(0x1000, 0)
        second = h.access_data(0x1000, 10)
        assert second.hit_level == "L1"
        assert second.latency < first.latency

    def test_miss_descends_levels(self):
        h = MemoryHierarchy()
        r = h.access_data(0x9999000, 0)
        assert r.hit_level == "DRAM"
        r2 = h.access_data(0x9999000, 500)
        assert r2.hit_level == "L1"

    def test_latencies_ordered_by_level(self):
        h = MemoryHierarchy()
        dram = h.access_data(0x5000, 0).latency
        h.l1d.flush()
        l2 = h.access_data(0x5000, 1000).latency
        h2 = h.access_data(0x5000, 2000).latency
        assert dram > l2 > h2

    def test_tlb_miss_flag(self):
        h = MemoryHierarchy()
        assert h.access_data(0xABC000, 0).tlb_miss
        assert not h.access_data(0xABC008, 10).tlb_miss

    def test_instr_and_data_paths_independent(self):
        h = MemoryHierarchy()
        h.access_instr(0x40, 0)
        # Same address via the data path still misses its own L1.
        r = h.access_data(0x40, 1)
        assert r.hit_level != "L1"

    def test_snapshot_restore_replays_identically(self):
        """A restored hierarchy answers exactly as the one snapshotted,
        and runs after a restore never write into the snapshot (its
        sets are shared until first written)."""
        addrs = [0x1000 + 4096 * i + 64 * (i % 5) for i in range(300)]
        warm = MemoryHierarchy()
        for i, addr in enumerate(addrs[:150]):
            warm.access_data(addr, i)
            warm.access_instr(addr ^ 0x40, i)
        snapshot = warm.snapshot()
        frozen = repr(snapshot)

        def replay(h):
            return [(h.access_data(a, 200 + i), h.access_instr(a, 200 + i))
                    for i, a in enumerate(addrs)]

        expected = replay(warm)
        for h in (MemoryHierarchy(), warm):
            h.restore(snapshot)
            assert replay(h) == expected
        assert repr(snapshot) == frozen
        warm.reset()
        assert all(not warm.l1d.contains(a) for a in addrs)

    def test_default_params_match_table2(self):
        p = HierarchyParams()
        assert p.l1d.size_bytes == 32 * 1024 and p.l1d.ways == 8
        assert p.l2.size_bytes == 512 * 1024 and p.l2.mshrs == 12
        assert p.llc.size_bytes == 4 * 1024 * 1024


class TestSparseMemory:
    def test_default_zero(self):
        m = SparseMemory()
        assert m.load(0x1234, 8) == 0

    def test_store_load_roundtrip(self):
        m = SparseMemory()
        m.store(0x100, 0xDEADBEEFCAFEF00D, 8)
        assert m.load(0x100, 8) == 0xDEADBEEFCAFEF00D

    def test_little_endian_bytes(self):
        m = SparseMemory()
        m.store(0x0, 0x0102, 2)
        assert m.load(0x0, 1) == 0x02
        assert m.load(0x1, 1) == 0x01

    def test_partial_overlap(self):
        m = SparseMemory()
        m.store(0x0, 0xFFFFFFFFFFFFFFFF, 8)
        m.store(0x4, 0x0, 1)
        assert m.load(0x0, 8) == 0xFFFFFF00FFFFFFFF

    def test_signed_load(self):
        m = SparseMemory()
        m.store(0x10, 0xFF, 1)
        assert m.load_signed(0x10, 1) == -1
        assert m.load(0x10, 1) == 255

    def test_fill(self):
        m = SparseMemory()
        m.fill(0x20, 0xAB, 4)
        assert m.load(0x20, 4) == 0xABABABAB

    def test_bad_size_raises(self):
        m = SparseMemory()
        with pytest.raises(SimulationError):
            m.load(0, 3)
        with pytest.raises(SimulationError):
            m.store(0, 0, 5)

    def test_footprint(self):
        m = SparseMemory()
        m.store(0, 1, 8)
        assert m.footprint() == 8
