"""The event-driven scheduler layer (repro.sched) and its contract
with the dense loop: the cycle wheel never fires early, late, or
twice, and the event-driven session is bit-identical to the dense
reference loop across a benchmark × kernel-set × engine-count grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import FireGuardSystem
from repro.errors import SimulationError
from repro.kernels import make_kernel
from repro.sched import CycleWheel, EventScheduler
from repro.sim import SimulationSession
from repro.trace.attacks import AttackKind, inject_attacks
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_PROFILES


# ---------------------------------------------------------------------------
# CycleWheel unit + property tests
# ---------------------------------------------------------------------------

class TestCycleWheel:
    def test_empty_wheel(self):
        wheel = CycleWheel()
        assert wheel.empty
        assert wheel.next_cycle() is None
        assert wheel.pop_due(100) == []

    def test_single_event_fires_at_its_cycle(self):
        wheel = CycleWheel()
        wheel.post(5, "a")
        assert wheel.next_cycle() == 5
        assert wheel.pop_due(4) == []          # never early
        assert wheel.pop_due(5) == ["a"]       # exactly on time
        assert wheel.pop_due(5) == []          # never twice
        assert wheel.empty

    def test_same_item_same_cycle_is_idempotent(self):
        wheel = CycleWheel()
        wheel.post(3, "a")
        wheel.post(3, "a")
        assert wheel.pop_due(3) == ["a"]

    def test_same_item_two_cycles_fires_twice(self):
        wheel = CycleWheel()
        wheel.post(2, "a")
        wheel.post(4, "a")
        assert wheel.pop_due(3) == ["a"]
        assert wheel.pop_due(4) == ["a"]

    def test_pop_due_returns_cycle_then_insertion_order(self):
        wheel = CycleWheel()
        wheel.post(7, "late")
        wheel.post(2, "first")
        wheel.post(2, "second")
        wheel.post(5, "mid")
        assert wheel.pop_due(7) == ["first", "second", "mid", "late"]

    def test_past_post_fires_on_next_pop(self):
        wheel = CycleWheel()
        assert wheel.pop_due(10) == []
        wheel.post(3, "stale")                 # posted into the past
        assert wheel.pop_due(10) == ["stale"]  # never lost

    def test_clear(self):
        wheel = CycleWheel()
        wheel.post(1, "a")
        wheel.clear()
        assert wheel.empty
        assert wheel.pop_due(10) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 25)),
                    max_size=60))
    def test_never_early_late_or_twice(self, posts):
        """Walk the wheel cycle by cycle: every posted (cycle, token)
        fires exactly once, exactly at its cycle."""
        wheel = CycleWheel()
        expected: dict[int, set] = {}
        for cycle, token_id in posts:
            token = (cycle, token_id)   # value identity per (cycle, id)
            wheel.post(cycle, token)
            expected.setdefault(cycle, set()).add(token)
        fired: list = []
        for now in range(62):
            due = wheel.pop_due(now)
            for item in due:
                assert item[0] == now, "fired early or late"
            fired.extend(due)
        assert len(fired) == len(set(fired)), "an event fired twice"
        assert set(fired) == {t for ts in expected.values() for t in ts}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_interleaved_posts_and_pops(self, data):
        """Posting while walking: events land at max(post cycle, next
        poll) and exactly once."""
        wheel = CycleWheel()
        outstanding: list = []
        fired: list = []
        serial = 0
        for now in range(40):
            for _ in range(data.draw(st.integers(0, 3))):
                cycle = data.draw(st.integers(0, 60))
                token = (serial, cycle)
                serial += 1
                wheel.post(cycle, token)
                outstanding.append(token)
            for item in wheel.pop_due(now):
                assert item[1] <= now, "fired before its cycle"
                outstanding.remove(item)  # raises if fired twice
                fired.append(item)
        for token in outstanding:
            assert token[1] > 39, "an elapsed event never fired"


class TestEventScheduler:
    class FakeWakeable:
        def __init__(self, nxt):
            self.nxt = nxt

        def next_event_cycle(self, now):
            return self.nxt

    def test_arm_routes_to_running_wheel_or_sleep(self):
        sched = EventScheduler("test")
        every = self.FakeWakeable(1)
        timed = self.FakeWakeable(10)
        asleep = self.FakeWakeable(None)
        sched.arm_many(0, [every, timed, asleep])
        assert every in sched.running
        assert timed not in sched.running
        assert sched.due_at(0)           # running forces every cycle
        del sched.running[every]
        assert not sched.due_at(5)
        assert sched.due_at(10)
        assert sched.pop_due(10) == [timed]
        assert sched.quiescent

    def test_stale_arm_is_clamped_forward(self):
        sched = EventScheduler("test")
        stale = self.FakeWakeable(0)     # claims "now" — kept runnable
        sched.arm_many(5, [stale])
        assert stale in sched.running

    def test_explicit_wake_reaches_a_sleeper(self):
        sched = EventScheduler("test")
        w = self.FakeWakeable(None)
        sched.arm(0, w)
        assert sched.quiescent
        sched.wake(3, w)
        assert sched.pop_due(2) == []
        assert sched.pop_due(3) == [w]

    def test_reset_clears_everything(self):
        sched = EventScheduler("test")
        sched.arm_many(0, [self.FakeWakeable(1), self.FakeWakeable(9)])
        sched.reset()
        assert sched.quiescent
        assert all(v == 0 for v in sched.stats().values())


# ---------------------------------------------------------------------------
# A/B bit-identity: event-driven vs dense reference loop
# ---------------------------------------------------------------------------

def _build(kernel_names, **kwargs):
    return FireGuardSystem([make_kernel(k) for k in kernel_names],
                           **kwargs)


def _trace(bench, seed=17, length=3000, attack=None, count=6):
    trace = generate_trace(PARSEC_PROFILES[bench], seed=seed,
                           length=length)
    if attack is not None:
        inject_attacks(trace, attack, count)
    return trace


AB_GRID = [
    # (benchmark, kernel set, engines_per_kernel, attack, accelerated)
    ("swaptions", ("pmc",), None, None, None),            # spin-poll kernel
    ("dedup", ("asan",), None, None, None),               # blocking kernel
    ("x264", ("asan",), {"asan": 12}, None, None),        # many engines
    ("bodytrack", ("shadow_stack",), None,
     AttackKind.RET_HIJACK, None),                        # NoC + detections
    ("swaptions", ("shadow_stack", "uaf"), None, None, None),  # multi-kernel
    ("swaptions", ("shadow_stack",), None, None,
     frozenset({"shadow_stack"})),                        # accelerator
    ("ferret", ("uaf",), {"uaf": 2}, None, None),         # few engines
]


class TestEventDenseIdentity:
    @pytest.mark.parametrize(
        "bench,kernels,epk,attack,accelerated", AB_GRID,
        ids=[f"{b}-{'+'.join(k)}" for b, k, *_ in AB_GRID])
    def test_bit_identical_results(self, bench, kernels, epk, attack,
                                   accelerated):
        kwargs = {}
        if epk:
            kwargs["engines_per_kernel"] = epk
        if accelerated:
            kwargs["accelerated"] = accelerated
        dense = SimulationSession(_build(kernels, **kwargs),
                                  dense=True).run(_trace(bench,
                                                         attack=attack))
        event = SimulationSession(_build(kernels, **kwargs),
                                  dense=False).run(_trace(bench,
                                                          attack=attack))
        # Every SystemResult field, including alerts and per-attack
        # detection latencies, must match bit for bit.
        assert dense == event

    def test_identity_with_non_integer_clock_ratio(self):
        """Exercises advance_to's non-periodic accumulator path."""
        from dataclasses import replace

        from repro.core.config import FireGuardConfig

        config = replace(FireGuardConfig(), low_freq_ghz=1.3)
        trace = _trace("dedup")
        dense = SimulationSession(
            _build(("asan",), config=config), dense=True).run(trace)
        event = SimulationSession(
            _build(("asan",), config=config), dense=False).run(trace)
        assert dense == event

    def test_identity_under_heavy_backpressure(self):
        """Tiny CDC and message queues keep the fabric full — the
        busy-controller set and full-queue statistics must match."""
        from dataclasses import replace

        from repro.core.config import FireGuardConfig

        config = replace(FireGuardConfig(), cdc_depth=2, msgq_depth=2)
        trace = _trace("dedup")
        dense = SimulationSession(
            _build(("asan",), config=config), dense=True).run(trace)
        event = SimulationSession(
            _build(("asan",), config=config), dense=False).run(trace)
        assert dense == event
        assert event.msgq_full_cycles > 0  # back-pressure really occurred

    def test_identity_survives_session_reset(self):
        trace = _trace("dedup")
        session = SimulationSession(_build(("asan",)), dense=False)
        first = session.run(trace)
        session.reset()
        assert session.run(trace) == first

    def test_event_loop_actually_skips(self):
        session = SimulationSession(
            _build(("asan",), engines_per_kernel={"asan": 12}),
            dense=False)
        session.run(_trace("x264"))
        stats = session.stats()
        assert stats["low_cycles_skipped"] > 0
        assert stats["high_cycles_fastforwarded"] > 0
        assert stats["engine_ticks_skipped"] > 0


# ---------------------------------------------------------------------------
# Undrained-timeout diagnostics
# ---------------------------------------------------------------------------

class TestUndrainedError:
    @pytest.mark.parametrize("dense", [True, False],
                             ids=["dense", "event"])
    def test_timeout_names_undrained_components(self, dense):
        session = SimulationSession(_build(("asan",)), dense=dense)
        with pytest.raises(SimulationError) as excinfo:
            session.run(_trace("dedup"), max_cycles=200)
        message = str(excinfo.value)
        assert "did not drain within 200 cycles" in message
        # 200 cycles in, the trace is still executing.
        assert "main core still executing" in message

    def test_timeout_reports_busy_engines_and_queues(self):
        # A mid-drain cutoff: the core finishes but engines do not.
        session = SimulationSession(_build(("asan",)), dense=False)
        trace = _trace("dedup", length=500)
        done_cycles = SimulationSession(
            _build(("asan",)), dense=False).run(_trace("dedup",
                                                       length=500)).cycles
        cut = max(100, done_cycles - 60)
        with pytest.raises(SimulationError) as excinfo:
            session.run(trace, max_cycles=cut)
        message = str(excinfo.value)
        # The report names at least one concrete component, never the
        # bare trace/seed line alone.
        assert ":" in message
        assert any(key in message for key in
                   ("busy engines", "queues", "CDC", "event filter",
                    "multicast", "NoC", "main core"))