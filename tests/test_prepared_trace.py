"""Prepared traces: a run restored from a PreparedTrace is the run.

``MainCore.prepare`` computes a trace's timing-independent work once —
the warmed hierarchy snapshot and the predictor's verdict on every
control record — and every ``begin`` restores it.  These tests pin
that a restored run is bit-identical to a run that warms up for
itself, and to the pre-replay model in which dispatch consulted a
live predictor (:class:`LiveVerdicts`), on both session loops, on
in-memory and streamed traces, and for the standalone baseline.
They also pin the runner's prepared-trace cache: keyed by workload
(never confusing a clean trace with its attacked twin), bounded, and
emptied by ``clear_caches()``.
"""

from dataclasses import replace

import pytest

from repro.branch.predictor import FrontEndPredictor
from repro.core.system import FireGuardSystem
from repro.errors import SimulationError
from repro.kernels import make_kernel
from repro.mem.cache import CacheParams
from repro.mem.hierarchy import HierarchyParams
from repro.ooo.core import MainCore
from repro.ooo.params import CoreParams
from repro.runner import RunSpec
from repro.runner import worker
from repro.service.serialization import dumps_record
from repro.sim import SimulationSession
from repro.trace.attacks import AttackKind, AttackPlan
from repro.trace.generator import generate_trace
from repro.trace.io import save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.stream import StreamedTrace

TRACE_LEN = 2400


class LiveVerdicts:
    """The pre-replay model: dispatch asks a warmed predictor for each
    record's verdict at the moment it dispatches the record, which is
    what the core did before verdicts were recorded.  The indices
    dispatch asks for are kept, so a test can check that dispatch
    walked the trace once, in record order."""

    def __init__(self, trace, warmup_records):
        self.records = list(trace.iter_records())
        self.predictor = FrontEndPredictor()
        for record in self.records[:warmup_records]:
            if record.is_ctrl:
                self.predictor.predict_and_train(
                    record.iclass, record.pc, record.taken, record.target)
        self.asked = []

    def __getitem__(self, index):
        self.asked.append(index)
        record = self.records[index]
        if not record.is_ctrl:
            return 0
        return int(self.predictor.predict_and_train(
            record.iclass, record.pc, record.taken, record.target))


def make_trace(bench="dedup", seed=5):
    return generate_trace(PARSEC_PROFILES[bench], seed=seed,
                          length=TRACE_LEN)


def session_run(dense, trace, prepared=None):
    system = FireGuardSystem(
        [make_kernel("asan"), make_kernel("pmc")],
        engines_per_kernel={"asan": 4, "pmc": 4})
    result = SimulationSession(system, dense=dense).run(
        trace, prepared=prepared)
    return result, system.core.result


class TestRestoredRunIdentity:
    @pytest.mark.parametrize("dense", [True, False],
                             ids=["dense", "event"])
    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["in-memory", "streamed"])
    def test_session_run(self, dense, streamed, tmp_path):
        trace = make_trace()
        if streamed:
            path = tmp_path / "t.fgt"
            save_trace(trace, path)

            def source():
                return StreamedTrace(path, chunk_records=512)
        else:
            def source():
                return trace

        prepared = MainCore().prepare(source())
        live = LiveVerdicts(source(), prepared.warmup_records)
        fresh = session_run(dense, source())
        restored = session_run(dense, source(), prepared)
        again = session_run(dense, source(), prepared)
        replayed_live = session_run(
            dense, source(), replace(prepared, mispredicts=live))
        assert fresh == restored == again == replayed_live
        assert fresh[1].mispredicts > 0
        assert live.asked == list(range(TRACE_LEN))

    def test_standalone_baseline(self):
        trace = make_trace("x264", seed=9)
        prepared = MainCore().prepare(trace)
        fresh = MainCore().run_standalone(trace)
        restored = MainCore().run_standalone(trace, prepared=prepared)
        live = LiveVerdicts(trace, prepared.warmup_records)
        replayed_live = MainCore().run_standalone(
            trace, prepared=replace(prepared, mispredicts=live))
        assert fresh == restored == replayed_live
        assert live.asked == list(range(TRACE_LEN))

    def test_reset_core_restores_identically(self):
        trace = make_trace("swaptions", seed=2)
        prepared = MainCore().prepare(trace)
        core = MainCore()
        first = core.run_standalone(trace, prepared=prepared)
        core.reset()
        assert core.run_standalone(trace, prepared=prepared) == first

    def test_prepare_leaves_no_trace_of_earlier_runs(self):
        """prepare() resets the hierarchy and predictor it warms, so a
        used core prepares exactly what a fresh one does."""
        trace = make_trace("ferret", seed=4)
        used = MainCore()
        used.run_standalone(make_trace("dedup", seed=8))
        ours = used.prepare(trace)
        theirs = MainCore().prepare(trace)
        assert ours.mispredicts == theirs.mispredicts
        assert ours.hierarchy == theirs.hierarchy


class TestPreparedMismatch:
    def test_other_trace_length_raises(self):
        prepared = MainCore().prepare(make_trace())
        shorter = generate_trace(PARSEC_PROFILES["dedup"], seed=5,
                                 length=TRACE_LEN - 1)
        with pytest.raises(SimulationError, match="covers 2400 records"):
            MainCore().begin(shorter, prepared=prepared)

    def test_other_core_parameters_raise(self):
        trace = make_trace()
        prepared = MainCore().prepare(trace)
        small_l2 = CoreParams(hierarchy=HierarchyParams(
            l2=CacheParams(name="L2", size_bytes=256 * 1024, ways=8,
                           hit_latency=12, mshrs=12)))
        with pytest.raises(SimulationError, match="hierarchy"):
            MainCore(small_l2).begin(trace, prepared=prepared)

    def test_other_warmup_length_raises(self):
        trace = make_trace()
        prepared = MainCore().prepare(trace, warmup_records=100)
        with pytest.raises(SimulationError, match="warmed 100"):
            MainCore().begin(trace, warmup_records=200,
                             prepared=prepared)


def spec(bench="swaptions", attacks=None, kernels=("pmc",)):
    return RunSpec(benchmark=bench, kernels=kernels, seed=3,
                   length=1500, attacks=attacks)


ATTACKS = AttackPlan(kind=AttackKind.OOB_ACCESS, count=3)


class TestRunnerCache:
    def setup_method(self):
        worker.clear_caches()

    def teardown_method(self):
        worker.clear_caches()

    def test_clean_and_attacked_twins_get_distinct_entries(self):
        clean, attacked = spec(), spec(attacks=ATTACKS)
        assert (clean.benchmark, clean.seed, clean.length) \
            == (attacked.benchmark, attacked.seed, attacked.length)
        entries = {}
        for twin in (clean, attacked):
            worker.execute_spec(twin, store=False)
            [(key, prepared)] = worker._PREPARED.items()
            # The entry is exactly what the twin's own trace prepares to.
            direct = MainCore().prepare(worker._trace_for(twin)[0])
            assert prepared.mispredicts == direct.mispredicts
            assert prepared.hierarchy == direct.hierarchy
            entries[key] = prepared
        assert len(entries) == 2
        clean_prep, attacked_prep = entries.values()
        assert clean_prep.hierarchy != attacked_prep.hierarchy

    def test_cached_runs_match_cold_runs(self):
        """Every spec that reuses a cached preparation returns the
        record it returns from cold caches."""
        specs = [spec(kernels=("pmc",)), spec(kernels=("asan",)),
                 spec(attacks=ATTACKS, kernels=("asan",)),
                 spec(kernels=("shadow_stack",))]
        warm = [dumps_record(worker.execute_spec(s, store=False))
                for s in specs]
        for s, expected in zip(specs, warm):
            worker.clear_caches()
            assert dumps_record(worker.execute_spec(s, store=False)) \
                == expected

    def test_keeps_only_the_latest_workload(self, monkeypatch):
        prepares = []
        real_prepare = MainCore.prepare

        def counting_prepare(core, trace, warmup_records=None):
            prepares.append(trace.name)
            return real_prepare(core, trace, warmup_records)

        monkeypatch.setattr(MainCore, "prepare", counting_prepare)
        for bench in ("swaptions", "dedup", "x264"):
            for kernels in (("pmc",), ("asan",), ("shadow_stack",)):
                worker.execute_spec(spec(bench, kernels=kernels),
                                    store=False)
                assert [key[0] for key in worker._PREPARED] == [bench]
        # One preparation per trace serves its baseline and three runs.
        assert prepares == ["swaptions", "dedup", "x264"]

    def test_clear_caches_empties(self):
        worker.execute_spec(spec(), store=False)
        assert worker._PREPARED
        worker.clear_caches()
        assert not worker._PREPARED

    def test_streamed_and_in_memory_share_one_entry(self):
        worker.execute_spec(spec(), store=False)
        streamed = replace(spec(kernels=("asan",)), stream=True)
        worker.execute_spec(streamed, store=False)
        assert len(worker._PREPARED) == 1
