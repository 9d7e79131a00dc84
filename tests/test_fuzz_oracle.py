"""End-to-end ground-truth oracle over a fixed-seed fuzz corpus.

The fuzzer promises exact per-attack ground truth; the detectors
promise to catch their own attack kind.  These tests run a small
fixed-seed corpus through the production Client/RunSpec path and
join the two: every injected attack must be detected by its matching
kernel, attack-free campaigns must stay perfectly silent even with
all four kernels watching, and the whole pipeline — corpus
generation through executed RunRecord bytes — must be reproducible
across processes under any PYTHONHASHSEED.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.coverage import MATCHING_KERNEL
from repro.experiments import fuzz as fuzz_harness
from repro.experiments.fuzz import (
    DEFAULT_CAMPAIGNS,
    case_spec,
    run,
    write_artifact,
)
from repro.kernels import KERNELS
from repro.runner import RunSpec, worker
from repro.runner.worker import execute_spec, scenario_sites
from repro.service import Client
from repro.trace.attacks import AttackKind
from repro.trace.fuzz import FuzzCase, FuzzConfig, fuzz_corpus

REPO = Path(__file__).resolve().parent.parent

#: Small but complete: 8 campaigns = 6 armed, every kind primary at
#: least once, 2 attack-free controls.
CONFIG = FuzzConfig(campaigns=8, min_phase=700, max_phase=1100)


@pytest.fixture(scope="module")
def corpus():
    return fuzz_corpus(CONFIG)


@pytest.fixture(scope="module")
def coverage():
    matrix, cases, digest = run(CONFIG, client=Client(cache=False))
    return matrix, cases, digest


class TestDetectionOracle:
    def test_every_kind_detected_by_matching_kernel(self, coverage):
        matrix, _, _ = coverage
        assert matrix.gaps() == [], \
            f"undetected matching cells: {matrix.gaps()}"
        covered = matrix.kind_families()
        for kind in AttackKind:
            assert covered[kind.name], \
                f"{kind.name} never fully detected anywhere"

    def test_no_false_positives_anywhere(self, coverage):
        matrix, _, _ = coverage
        assert matrix.total_false_positives() == 0
        assert matrix.false_positives == {}
        assert matrix.ok()

    def test_matrix_accounts_every_run(self, coverage):
        matrix, cases, _ = coverage
        assert matrix.runs == len(cases) * len(KERNELS)
        assert matrix.clean_runs \
            == sum(c.attack_free for c in cases) * len(KERNELS)

    def test_artifact_document_shape(self, coverage, tmp_path):
        import json

        matrix, _, digest = coverage
        path = write_artifact(matrix, CONFIG, digest,
                              tmp_path / "COVERAGE_fuzz.json")
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["corpus_digest"] == digest
        assert doc["seed"] == CONFIG.seed
        assert doc["gaps"] == []
        assert set(doc["kind_families"]) \
            == {kind.name for kind in AttackKind}
        assert all(cell["detected"] <= cell["injected"]
                   for cell in doc["cells"])

    def test_attack_free_silent_under_all_kernels(self, corpus):
        client = Client(cache=False)
        clean = [c for c in corpus if c.attack_free]
        assert clean, "corpus lost its attack-free controls"
        specs = [RunSpec(benchmark=c.scenario.name,
                         kernels=tuple(sorted(KERNELS)),
                         engines_per_kernel=2,
                         seed=c.seed,
                         length=c.scenario.total_length(),
                         scenario=c.scenario,
                         stream=True,
                         need_baseline=False)
                 for c in clean]
        for case, record in zip(clean, client.run(specs)):
            assert record.injected_attacks == 0
            assert record.result.detections == {}, \
                f"{case.scenario.name} raised ghost detections"
            assert record.result.alerts == [], \
                f"{case.scenario.name} raised ghost alerts"

    def test_per_kind_attribution_is_exact(self, corpus):
        # Beyond aggregate counts: each matching-kernel run detects
        # exactly its ground-truth id set for that kind — attribution
        # never smears one attack's detection onto another id.
        client = Client(cache=False)
        for case in corpus:
            if case.attack_free:
                continue
            sites = case.ground_truth()
            kinds = {s.kind for s in sites}
            for kind in sorted(kinds, key=lambda k: k.name):
                kernel = MATCHING_KERNEL[kind]
                [record] = client.run([case_spec(case, kernel)])
                want = {s.attack_id for s in sites if s.kind is kind}
                got = set(record.result.detections) & {
                    s.attack_id for s in sites if s.kind is kind}
                assert got == want, (
                    f"{case.scenario.name} x {kernel}: detected "
                    f"{sorted(got)}, ground truth {sorted(want)}")


#: One armed campaign: enough to show a fault trips the harness.
SMALL = FuzzConfig(campaigns=1, min_phase=700, max_phase=900)


@pytest.fixture
def compositions(monkeypatch):
    """The runner's scenario compositions, recorded as they happen,
    starting from empty per-process caches."""
    calls = []
    real_composer = worker.ScenarioComposer

    def counting_composer(*args, **kwargs):
        calls.append(args)
        return real_composer(*args, **kwargs)

    worker.clear_caches()
    monkeypatch.setattr(worker, "ScenarioComposer", counting_composer)
    yield calls
    worker.clear_caches()


def run_small(kernels=("pmc",), config=SMALL):
    with Client(store=False, cache=False) as client:
        return run(config, kernels=kernels, client=client)


class TestRunnerGroundTruth:
    """The harness's ground truth is the runner's own composition,
    checked against the trace each record ran."""

    def test_default_corpus_sites_are_the_oracle_and_ran(
            self, compositions):
        cases = fuzz_corpus(FuzzConfig(campaigns=DEFAULT_CAMPAIGNS))
        for case in cases:
            spec = case_spec(case, "shadow_stack")
            record = execute_spec(spec, store=False)
            digest, sites = scenario_sites(spec)
            assert digest == record.trace_digest
            assert record.injected_attacks == len(sites)
            assert sites == case.ground_truth()
        # The truth came from the runs' compositions, not new ones.
        assert len(compositions) == len(cases)

    def test_in_process_client_composes_each_campaign_once(
            self, compositions, monkeypatch):
        def no_recomposition(self):
            raise AssertionError("the harness recomposed a campaign")

        monkeypatch.setattr(FuzzCase, "ground_truth", no_recomposition)
        config = FuzzConfig(campaigns=2, min_phase=700, max_phase=900)
        matrix, cases, _ = run_small(("pmc", "shadow_stack"), config)
        assert matrix.runs == 4
        assert len(compositions) == len(cases) == 2

    @pytest.mark.parametrize("tamper, message", [
        ("sites", "oracle composed"),
        ("digest", "ground truth comes from"),
    ])
    def test_tampered_truth_trips_the_harness(self, compositions,
                                              monkeypatch, tamper,
                                              message):
        """A ground truth that does not match the executed trace — one
        site short, or another trace's digest — fails the run."""
        real = fuzz_harness.scenario_sites

        def tampered(spec):
            digest, sites = real(spec)
            assert sites, "the armed campaign injected nothing"
            if tamper == "sites":
                return digest, sites[:-1]
            return "0" * 64, sites

        monkeypatch.setattr(fuzz_harness, "scenario_sites", tampered)
        with pytest.raises(AssertionError, match=message):
            run_small()

    def test_untampered_small_corpus_passes(self, compositions):
        matrix, _, _ = run_small()
        assert matrix.runs == 1 and matrix.ok()


_STABILITY_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.runner.worker import execute_spec
from repro.service import dumps_record
from repro.trace.fuzz import FuzzConfig, fuzz_corpus, corpus_digest
from repro.experiments.fuzz import case_spec

config = FuzzConfig(campaigns=4, min_phase=700, max_phase=900)
cases = fuzz_corpus(config)
print(corpus_digest(cases))
record = execute_spec(case_spec(cases[0], "shadow_stack"),
                      store=False)
print(hashlib.sha256(dumps_record(record)).hexdigest())
"""


class TestSeedStability:
    def test_corpus_and_records_stable_across_hash_seeds(self):
        """The same fuzzer seed reproduces the identical corpus digest
        and executed-record bytes in fresh processes under hash-seed
        randomization — nothing in generation, composition or
        execution leaks iteration order."""
        script = _STABILITY_SCRIPT.format(src=str(REPO / "src"))
        outputs = []
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("REPRO_TRACE_LEN", None)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].split()) == 2
