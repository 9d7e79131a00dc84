"""Differential grid: the event loop is bit-identical to dense.

DESIGN.md pins the dense record-at-a-time loop as the reference
semantics; the event-driven loop (wakeup scheduler, stall-window
fast-forward, adaptive loop policy) is pure acceleration.  These tests
enforce that: for every cell of {benchmark × kernel set × engine count
× in-memory/streamed}, the dense and event loops must produce
*identical* :class:`SystemResult` objects, field for field.

Also covered: the single hardware-accelerator configuration, attack
traces (detections must match, not just cycle counts) and fuzzed
multi-phase campaigns.
"""

import pytest

from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.sim import SimulationSession
from repro.trace.attacks import AttackKind, inject_attacks
from repro.trace.generator import generate_trace
from repro.trace.io import save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.stream import StreamedTrace

TRACE_LEN = 2500

KERNEL_SETS = {
    "asan": ("asan",),
    "pmc+shadow": ("pmc", "shadow_stack"),
}


def build_system(kernel_names, engines):
    kernels = [make_kernel(name) for name in kernel_names]
    return FireGuardSystem(
        kernels,
        engines_per_kernel={name: engines for name in kernel_names})


def run_loop_grid(make_system, trace_factory):
    """Dense and event results for one configuration; each session
    gets a fresh system and trace source (streamed sources are
    forward-only, so no sharing)."""
    return {label: SimulationSession(make_system(), dense=dense)
            .run(trace_factory())
            for label, dense in (("dense", True), ("event", False))}


def assert_identical(results):
    assert results["dense"] == results["event"], \
        "event loop diverged from dense"


class TestIdentityGrid:
    """{2 benchmarks × 2 kernel sets × 4/12 engines ×
    in-memory/streamed}, dense against event at every point."""

    @pytest.mark.parametrize("bench", ["swaptions", "dedup"])
    @pytest.mark.parametrize("kernel_set", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("engines", [4, 12])
    def test_in_memory(self, bench, kernel_set, engines):
        names = KERNEL_SETS[kernel_set]
        trace = generate_trace(PARSEC_PROFILES[bench], seed=11,
                               length=TRACE_LEN)
        assert_identical(run_loop_grid(
            lambda: build_system(names, engines), lambda: trace))

    @pytest.mark.parametrize("bench", ["swaptions", "dedup"])
    @pytest.mark.parametrize("kernel_set", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("engines", [4, 12])
    def test_streamed(self, bench, kernel_set, engines, tmp_path):
        names = KERNEL_SETS[kernel_set]
        trace = generate_trace(PARSEC_PROFILES[bench], seed=11,
                               length=TRACE_LEN)
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        results = run_loop_grid(
            lambda: build_system(names, engines),
            lambda: StreamedTrace(path, chunk_records=512))
        assert_identical(results)
        # Streaming itself must not change the answer either.
        in_memory = SimulationSession(
            build_system(names, engines), dense=False).run(trace)
        assert results["event"] == in_memory


class TestAttackIdentity:
    """Verdicts — not just timing — must survive the event loop."""

    @pytest.mark.parametrize("kernel,bench,kind", [
        ("asan", "dedup", AttackKind.OOB_ACCESS),
        ("pmc", "ferret", AttackKind.PMC_BOUND),
        ("shadow_stack", "bodytrack", AttackKind.RET_HIJACK),
    ])
    def test_attack_detections_identical(self, kernel, bench, kind):
        from repro.kernels.pmc import DEFAULT_BOUND_HI, DEFAULT_BOUND_LO

        trace = generate_trace(PARSEC_PROFILES[bench], seed=31,
                               length=5000)
        inject_attacks(trace, kind, 8,
                       pmc_bounds=(DEFAULT_BOUND_LO, DEFAULT_BOUND_HI))
        results = run_loop_grid(
            lambda: build_system((kernel,), 4), lambda: trace)
        assert_identical(results)
        assert results["event"].detections == \
            results["dense"].detections

    def test_asan_accelerator_identical(self):
        trace = generate_trace(PARSEC_PROFILES["dedup"], seed=31,
                               length=5000)
        inject_attacks(trace, AttackKind.OOB_ACCESS, 8)

        def ha_system():
            return FireGuardSystem([make_kernel("asan")],
                                   accelerated={"asan"})

        results = run_loop_grid(ha_system, lambda: trace)
        assert_identical(results)
        assert results["event"].detections


class TestFuzzedIdentity:
    """Fuzzer-generated campaigns are grid cells too: multi-phase
    compositions with stacked adversarial-placement attack plans must
    be bit-identical across both loops, streamed or in-memory."""

    CASES = (1, 2)  # armed campaigns with distinct primary kinds

    def _case(self, index):
        from repro.trace.fuzz import FuzzConfig, fuzz_case

        config = FuzzConfig(campaigns=4, min_phase=700, max_phase=900)
        case = fuzz_case(config, index)
        assert not case.attack_free
        return case

    @pytest.mark.parametrize("index", CASES)
    def test_in_memory(self, index):
        from repro.trace.scenario import compose_trace

        case = self._case(index)
        trace, sites = compose_trace(case.scenario, case.seed)
        results = run_loop_grid(
            lambda: build_system(("asan", "pmc", "shadow_stack"), 2),
            lambda: trace)
        assert_identical(results)
        assert sites and results["dense"].detections

    @pytest.mark.parametrize("index", CASES)
    def test_streamed(self, index, tmp_path):
        from repro.trace.scenario import compose_stream, compose_trace

        case = self._case(index)
        path = tmp_path / "fuzzed.fgt"
        compose_stream(case.scenario, case.seed, path,
                       chunk_records=512)
        results = run_loop_grid(
            lambda: build_system(("asan", "pmc", "shadow_stack"), 2),
            lambda: StreamedTrace(path, chunk_records=512))
        assert_identical(results)
        # Streaming must match the in-memory composition exactly.
        trace, _ = compose_trace(case.scenario, case.seed)
        in_memory = SimulationSession(
            build_system(("asan", "pmc", "shadow_stack"), 2),
            dense=False).run(trace)
        assert results["event"] == in_memory


_NO_NUMPY_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.sim import SimulationSession
from repro.trace.generator import generate_trace
from repro.trace.io import save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.stream import StreamedTrace

trace = generate_trace(PARSEC_PROFILES["swaptions"], seed=3, length=800)
SimulationSession(FireGuardSystem([make_kernel("pmc")])).run(trace)
save_trace(trace, {path!r})
assert len(StreamedTrace({path!r}).load().records) == len(trace.records)
print("numpy" in sys.modules)
"""


def test_single_path_never_imports_numpy(tmp_path):
    """The library runs on the standard library alone: importing
    ``repro``, running a session and loading a streamed trace must not
    pull numpy into the process."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    script = _NO_NUMPY_SCRIPT.format(src=str(src),
                                     path=str(tmp_path / "t.fgt"))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
