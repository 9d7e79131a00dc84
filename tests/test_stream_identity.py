"""Differential harness: streamed execution == in-memory execution.

The streaming pipeline's contract is bit-identity: composing a
scenario to disk and simulating it through the bounded-memory reader
must produce exactly the results of the in-memory path — detection
latencies, every SystemResult field, and the final component state.
The grid covers {2 scenarios} x {2 kernels} x {streamed, in-memory},
plus a dense-loop cell (``SimulationSession(dense=True)``) and the
cross-seed / cross-worker digest determinism checks.
"""

import pytest

from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.runner import RunSpec
from repro.service import Client
from repro.sim import SimulationSession
from repro.trace.attacks import AttackKind, AttackPlan
from repro.trace.scenario import (
    Phase,
    Scenario,
    compose_stream,
    compose_trace,
)

GRID_SCENARIOS = (
    Scenario(name="grid-boot-serve", phases=(
        Phase("dedup", 1200, label="boot"),
        Phase("swaptions", 1600, label="serve",
              attacks=(AttackPlan(AttackKind.RET_HIJACK, 6),)),
    )),
    Scenario(name="grid-churn", phases=(
        Phase("dedup", 1500, label="churn",
              attacks=(AttackPlan(AttackKind.OOB_ACCESS, 6),)),
        Phase("x264", 1300, label="encode",
              attacks=(AttackPlan(AttackKind.OOB_ACCESS, 4),)),
    )),
)

GRID_KERNELS = ("shadow_stack", "asan")

SEED = 13


def _result_fields(result) -> dict:
    fields = dict(vars(result))
    fields["alerts"] = [(a.engine_id, a.code, a.time_ns, a.attack_id,
                         a.pc) for a in result.alerts]
    return fields


def _component_state(system) -> dict:
    """The uniform stats of every component after a run: the 'final
    state' leg of the differential assertion."""
    state = {
        "filter": system.filter.stats(),
        "allocator": system.allocator.stats(),
        "cdc": system.cdc.stats(),
        "multicast": system.multicast.stats(),
        "noc": system.noc.stats(),
        "forwarding": system.forwarding.stats(),
    }
    for engine in system.engines:
        state[f"engine{engine.engine_id}"] = engine.stats()
    for ctrl in system.controllers:
        state[f"ctrl{ctrl.engine_id}"] = ctrl.stats()
    return state


@pytest.mark.parametrize("scenario", GRID_SCENARIOS,
                         ids=lambda s: s.name)
@pytest.mark.parametrize("kernel", GRID_KERNELS)
def test_streamed_matches_in_memory(scenario, kernel, tmp_path):
    in_memory, sites_mem = compose_trace(scenario, SEED)
    streamed, sites_str = compose_stream(
        scenario, SEED, tmp_path / f"{scenario.name}.fgt",
        chunk_records=512)
    assert [(s.attack_id, s.seq, s.kind) for s in sites_mem] \
        == [(s.attack_id, s.seq, s.kind) for s in sites_str]

    session = SimulationSession(FireGuardSystem(
        [make_kernel(kernel)], engines_per_kernel={kernel: 2}))
    result_mem = session.run(in_memory)
    state_mem = _component_state(session.system)
    session.reset()
    result_str = session.run(streamed)
    state_str = _component_state(session.system)

    assert _result_fields(result_mem) == _result_fields(result_str)
    assert result_mem.detections == result_str.detections
    assert state_mem == state_str
    # The matched kernel/attack pairs must actually detect something,
    # or the identity assertion would be vacuous.
    if (kernel, scenario.name) in (("shadow_stack", "grid-boot-serve"),
                                   ("asan", "grid-churn")):
        assert result_str.detections


def test_dense_loop_accepts_streamed_trace(tmp_path):
    """The dense reference loop consumes the same streamed
    source, bit-identically to the event-driven loop on the in-memory
    trace."""
    scenario = GRID_SCENARIOS[0]
    in_memory, _ = compose_trace(scenario, SEED)
    streamed, _ = compose_stream(scenario, SEED,
                                 tmp_path / "dense.fgt")

    def fresh(dense):
        return SimulationSession(
            FireGuardSystem([make_kernel("shadow_stack")],
                            engines_per_kernel={"shadow_stack": 2}),
            dense=dense)

    result_event = fresh(dense=False).run(in_memory)
    result_dense = fresh(dense=True).run(streamed)
    assert _result_fields(result_event) == _result_fields(result_dense)


def test_runner_streamed_record_matches_in_memory():
    spec = RunSpec(benchmark="grid-boot-serve",
                   kernels=("shadow_stack",), engines_per_kernel=2,
                   scenario=GRID_SCENARIOS[0], seed=SEED,
                   length=GRID_SCENARIOS[0].total_length())
    with Client(workers=1, store=False) as client:
        rec_mem = client.run_one(spec)
        rec_str = client.run_one(spec.with_(stream=True))
    assert rec_mem.result.cycles == rec_str.result.cycles
    assert rec_mem.result.detections == rec_str.result.detections
    assert rec_mem.baseline_cycles == rec_str.baseline_cycles
    assert rec_mem.injected_attacks == rec_str.injected_attacks
    assert rec_mem.trace_digest == ""
    assert len(rec_str.trace_digest) == 64


class TestDigestDeterminism:
    """Same Scenario + seed -> identical on-disk digest, across
    generator runs and across worker processes."""

    def test_two_generator_runs(self, tmp_path):
        scenario = GRID_SCENARIOS[1]
        t1, _ = compose_stream(scenario, SEED, tmp_path / "a.fgt")
        t2, _ = compose_stream(scenario, SEED, tmp_path / "b.fgt")
        assert t1.digest == t2.digest
        t3, _ = compose_stream(scenario, SEED + 1, tmp_path / "c.fgt")
        assert t3.digest != t1.digest

    def test_across_sweep_workers(self):
        specs = [RunSpec(benchmark=s.name, kernels=("shadow_stack",),
                         engines_per_kernel=2, scenario=s, seed=SEED,
                         length=s.total_length(), stream=True,
                         need_baseline=False)
                 for s in GRID_SCENARIOS]
        with Client(workers=1, store=False, cache=False) as client:
            serial = client.run(specs)
        with Client(workers=2, store=False, cache=False) as client:
            parallel = client.run(specs)
        assert [r.trace_digest for r in serial] \
            == [r.trace_digest for r in parallel]
        assert all(len(r.trace_digest) == 64 for r in serial)
        assert [r.result.cycles for r in serial] \
            == [r.result.cycles for r in parallel]
