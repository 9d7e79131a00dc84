"""The hotpath layer: decode cache and profiling.

The bit-identity of the kernels themselves is pinned by the dense vs
event grid in ``tests/test_loop_identity.py``; this file covers the
machinery around them:

* the digest-keyed decode cache dedupes per-engine program decodes;
* ``REPRO_PROFILE=1`` surfaces per-component wall time in session
  stats.
"""

from repro.hotpath.decode import (
    clear_decode_cache,
    decode_cache_stats,
    decode_ucore_program,
    program_digest,
)
from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.sim import SimulationSession
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.ucore.core import MicroCore


def build_system(engines: int = 2) -> FireGuardSystem:
    return FireGuardSystem([make_kernel("asan")],
                           engines_per_kernel={"asan": engines})


class TestDecodeCache:
    def test_engines_share_one_decode(self):
        clear_decode_cache()
        system = build_system(engines=4)
        stats = decode_cache_stats()
        # One assembled asan program, four engines: one miss, the
        # rest served from the cache.
        assert stats["misses"] == 1
        assert stats["hits"] >= 3
        programs = {id(engine._prog) for engine in system.engines}
        assert len(programs) == 1

    def test_digest_is_content_keyed(self):
        system = build_system(engines=1)
        program = system.engines[0].program
        assert program_digest(program) == program_digest(list(program))
        decoded = decode_ucore_program(program)
        assert decode_ucore_program(list(program)) is decoded

    def test_micro_core_flat_stats_roundtrip(self):
        system = build_system(engines=1)
        engine = system.engines[0]
        assert isinstance(engine, MicroCore)
        assert set(engine.stats()) == {
            "instructions", "stall_cycles", "pops", "alerts"}
        engine.stat_instructions = 7
        assert engine.stats()["instructions"] == 7
        engine.reset_stats()
        assert engine.stats()["instructions"] == 0


class TestProfiling:
    def test_profile_buckets_in_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        trace = generate_trace(PARSEC_PROFILES["swaptions"], seed=13,
                               length=1500)
        session = SimulationSession(build_system())
        session.run(trace)
        stats = session.stats()
        for bucket in ("profile_core", "profile_engines",
                       "profile_fabric", "profile_mapper"):
            assert stats[bucket] >= 0.0
        assert stats["profile_core"] > 0.0
        session.reset()
        assert not any(key.startswith("profile_")
                       for key in session.stats())

    def test_profile_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        session = SimulationSession(build_system())
        assert not any(key.startswith("profile_")
                       for key in session.stats())
