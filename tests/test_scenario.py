"""Scenario compositor: unit and property tests.

The hypothesis properties pin the compositor's splice invariants:
phase boundaries never orphan a heap object (every object's
alloc/free markers exist, ranges never alias), never unbalance the
call stack (depth never goes negative, every return matches its
call's pushed address, the composed trace ends balanced), and the
composition round-trips losslessly through FGTRACE1 — including the
``attack_id = -1`` and ``_NO_ADDR`` sentinel encodings.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.attacks import AttackKind, AttackPlan
from repro.trace.io import load_trace, save_trace
from repro.trace.scenario import (
    SCENARIO_NAMES,
    SCENARIOS,
    Phase,
    Scenario,
    compose_trace,
    make_scenario,
)

PROFILES = ("dedup", "swaptions", "x264")

_ATTACKS = st.sampled_from((
    (),
    (AttackPlan(AttackKind.RET_HIJACK, 3),),
    (AttackPlan(AttackKind.OOB_ACCESS, 3),),
    (AttackPlan(AttackKind.RET_HIJACK, 2),
     AttackPlan(AttackKind.OOB_ACCESS, 2)),
))

_PHASES = st.builds(
    Phase,
    profile=st.sampled_from(PROFILES),
    length=st.integers(min_value=450, max_value=900),
    attacks=_ATTACKS)

_SCENARIOS = st.builds(
    Scenario,
    name=st.just("prop"),
    phases=st.lists(_PHASES, min_size=1, max_size=3).map(tuple))


def _walk_call_stack(trace):
    """Replay shadow-stack ground truth over the composed records."""
    stack = []
    for rec in trace.records:
        if rec.iclass is InstrClass.CALL:
            stack.append(rec.result)  # the pushed return address
        elif rec.iclass is InstrClass.RET:
            assert stack, f"return at seq {rec.seq} underflows the stack"
            expected = stack.pop()
            if rec.attack_id is None:
                assert rec.target == expected, (
                    f"return at seq {rec.seq} targets {rec.target:#x}, "
                    f"stack says {expected:#x}")
    return stack


@settings(max_examples=12, deadline=None)
@given(scenario=_SCENARIOS, seed=st.integers(min_value=1, max_value=999))
def test_phase_boundaries_preserve_ground_truth(scenario, seed):
    trace, sites = compose_trace(scenario, seed)

    # Sequence numbers run continuously across phase boundaries.
    assert [rec.seq for rec in trace.records] \
        == list(range(len(trace.records)))

    # Call stack: never underflows, every un-attacked return matches
    # its call, and every boundary unwind leaves the stack balanced
    # (the final phase unwinds too, so the whole trace ends at 0).
    assert _walk_call_stack(trace) == []

    # Heap ground truth: every object's alloc marker exists at its
    # alloc_seq with matching base, frees likewise, and no two objects
    # ever alias a byte (phases allocate from disjoint ranges).
    by_seq = {rec.seq: rec for rec in trace.records}
    spans = []
    for obj in trace.objects:
        alloc = by_seq[obj.alloc_seq]
        assert alloc.iclass is InstrClass.CUSTOM
        assert alloc.mem_addr == obj.base
        if obj.free_seq is not None:
            assert obj.alloc_seq < obj.free_seq
            free = by_seq[obj.free_seq]
            assert free.iclass is InstrClass.CUSTOM
            assert free.mem_addr == obj.base
        spans.append((obj.base, obj.end))
    spans.sort()
    for (_, prev_end), (next_base, _) in zip(spans, spans[1:]):
        assert prev_end <= next_base, "heap objects alias"

    # Attack bookkeeping: ids unique, each site's record tagged.
    ids = [site.attack_id for site in sites]
    assert len(ids) == len(set(ids))
    for site in sites:
        assert by_seq[site.seq].attack_id == site.attack_id


@settings(max_examples=8, deadline=None)
@given(scenario=_SCENARIOS, seed=st.integers(min_value=1, max_value=999))
def test_composition_roundtrips_through_fgtrace1(scenario, seed):
    trace, _ = compose_trace(scenario, seed)
    # Sentinel coverage: the round-trip must exercise the "no attack"
    # (attack_id -1), "no memory access" (_NO_ADDR) and "no
    # destination" (dst -1) encodings, and every ``srcs`` length the
    # ``nsrcs`` field truncates to.
    assert any(r.attack_id is None for r in trace.records)
    assert any(r.mem_addr is None for r in trace.records)
    assert any(r.dst is None for r in trace.records)
    assert {len(r.srcs) for r in trace.records} == {0, 1, 2}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)

    assert loaded.name == trace.name and loaded.seed == trace.seed
    assert (loaded.heap_base, loaded.heap_end, loaded.global_base,
            loaded.global_end, loaded.warm_end) \
        == (trace.heap_base, trace.heap_end, trace.global_base,
            trace.global_end, trace.warm_end)
    assert [(o.base, o.size, o.alloc_seq, o.free_seq)
            for o in loaded.objects] \
        == [(o.base, o.size, o.alloc_seq, o.free_seq)
            for o in trace.objects]
    assert len(loaded.records) == len(trace.records)
    for a, b in zip(trace.records, loaded.records):
        assert (a.seq, a.pc, a.word, a.opcode, a.funct3, a.iclass,
                a.dst, tuple(a.srcs), a.mem_addr, a.mem_size, a.taken,
                a.target, a.result, a.attack_id) \
            == (b.seq, b.pc, b.word, b.opcode, b.funct3, b.iclass,
                b.dst, tuple(b.srcs), b.mem_addr, b.mem_size, b.taken,
                b.target, b.result, b.attack_id)


class TestScenarioApi:
    def test_library_registered(self):
        # The hand-written library is a snapshot; family members
        # (repro.trace.families) register on top of it later.
        assert set(SCENARIO_NAMES) <= set(SCENARIOS)
        assert len(SCENARIO_NAMES) >= 4

    def test_family_library_registered(self):
        from repro.trace.families import FAMILY_SCENARIO_NAMES

        assert set(FAMILY_SCENARIO_NAMES) <= set(SCENARIOS)
        assert set(FAMILY_SCENARIO_NAMES).isdisjoint(SCENARIO_NAMES)
        for name in FAMILY_SCENARIO_NAMES:
            assert make_scenario(name).name == name

    def test_make_scenario_unknown(self):
        with pytest.raises(TraceError, match="unknown scenario"):
            make_scenario("no-such-scenario")

    def test_with_length_exact_and_deterministic(self):
        scenario = make_scenario("alloc-churn")
        scaled = scenario.with_length(5000)
        assert scaled.total_length() == 5000
        assert scaled == scenario.with_length(5000)
        assert scenario.with_length(scenario.total_length()) is scenario

    def test_repeated_tiles_phases(self):
        scenario = make_scenario("quiescent-idle")
        tiled = scenario.repeated(3)
        assert tiled.total_length() == 3 * scenario.total_length()
        assert len(tiled.phases) == 3 * len(scenario.phases)
        assert max(p.length for p in tiled.phases) \
            == max(p.length for p in scenario.phases)

    def test_with_attacks_targets_longest_phase(self):
        scenario = make_scenario("quiescent-idle")
        plan = AttackPlan(AttackKind.RET_HIJACK, 5)
        armed = scenario.with_attacks(plan)
        lengths = [p.length for p in armed.phases]
        armed_idx = lengths.index(max(lengths))
        for i, phase in enumerate(armed.phases):
            assert phase.attacks == ((plan,) if i == armed_idx else ())

    def test_min_total_respects_uaf_room(self):
        scenario = make_scenario("alloc-churn")
        scaled = scenario.with_length(scenario.min_total())
        uaf_phase = next(
            p for p in scaled.phases
            if any(plan.kind is AttackKind.UAF_ACCESS
                   for plan in p.attacks))
        assert uaf_phase.length >= Scenario._MIN_UAF_PHASE - 1
        # And composition at that floor actually succeeds.
        trace, sites = compose_trace(scaled, seed=3)
        assert any(s.kind is AttackKind.UAF_ACCESS for s in sites)

    def test_phase_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            Phase("dedup", 0)
        with pytest.raises(ConfigError, match="unknown profile"):
            Phase("no-such-benchmark", 100)
        with pytest.raises(ConfigError, match="no phases"):
            Scenario(name="empty", phases=())

    def test_single_plan_coerced_to_tuple(self):
        phase = Phase("dedup", 100,
                      attacks=AttackPlan(AttackKind.OOB_ACCESS, 2))
        assert isinstance(phase.attacks, tuple)

    def test_scenarios_hashable_and_cache_tokens_distinct(self):
        tokens = {make_scenario(n).cache_token()
                  for n in SCENARIO_NAMES}
        assert len(tokens) == len(SCENARIO_NAMES)
        hash(make_scenario("boot-then-serve"))
