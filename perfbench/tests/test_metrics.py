"""The tail percentile, median-of-rounds summary and the
BENCHMARK.json schema check."""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.hostspeed import Stopwatch
from perfbench.metrics import tail_percentile, validate_benchmark
from perfbench.run import Summary

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestTailPercentile:
    def test_ten_samples_stay_beyond_the_value(self):
        samples = [float(i) for i in range(36)]
        pct, value, n = tail_percentile(list(reversed(samples)))
        assert n == 36
        assert value == 25.0
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(100 * 26 / 36)

    def test_smallest_sample_count(self):
        pct, value, n = tail_percentile([3.0, 1.0] + [9.0] * 9)
        assert (value, n) == (1.0, 11)
        assert pct == pytest.approx(100 / 11)

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_too_few_samples(self, n):
        assert tail_percentile([1.0] * n) is None

    def test_more_samples_raise_the_percentile(self):
        low = tail_percentile(range(20))[0]
        high = tail_percentile(range(2000))[0]
        assert low == 50.0
        assert high == pytest.approx(99.5)


def _doc():
    return json.loads(BENCHMARK.read_text())


def _metric(name, bound=True):
    metric = {"name": name, "unit": "s", "better": "lower"}
    if bound:
        metric["bound"] = 0.1
    return metric


class TestValidateBenchmark:
    def test_repository_file_is_valid(self):
        assert validate_benchmark(_doc()) == []

    def test_every_metric_has_unit_direction_and_e2e_bound(self):
        doc = _doc()
        for metric in doc["end_to_end"]:
            assert {"name", "unit", "better", "bound"} == set(metric)
        for metric in doc["per_layer"]:
            assert {"name", "unit", "better"} == set(metric)

    @pytest.mark.parametrize("name", ["bad name", "bad/name", "", "_lead",
                                      "x" * 65, "é"])
    def test_bad_names(self, name):
        doc = _doc()
        doc["per_layer"][0]["name"] = name
        assert any("bad name" in e for e in validate_benchmark(doc))

    def test_duplicate_name(self):
        doc = _doc()
        doc["per_layer"].append(copy.deepcopy(doc["per_layer"][0]))
        assert any("used twice" in e for e in validate_benchmark(doc))

    @pytest.mark.parametrize("drop", ["unit", "better", "bound"])
    def test_missing_field(self, drop):
        doc = _doc()
        del doc["end_to_end"][1][drop]
        assert validate_benchmark(doc)

    @pytest.mark.parametrize("field,value", [
        ("unit", "m s"), ("unit", "x" * 17), ("better", "up"),
        ("bound", 0.3), ("bound", 0), ("bound", True)])
    def test_bad_values(self, field, value):
        doc = _doc()
        doc["end_to_end"][1][field] = value
        assert validate_benchmark(doc)

    def test_metric_count_limits(self):
        doc = _doc()
        doc["end_to_end"] = [_metric("setup_s")] + [
            _metric(f"e{i}") for i in range(16)]
        assert any("1 to 16" in e for e in validate_benchmark(doc))
        doc = _doc()
        doc["per_layer"] = [_metric(f"p{i}", bound=False)
                            for i in range(129)]
        assert any("1 to 128" in e for e in validate_benchmark(doc))
        doc["per_layer"].pop()
        assert validate_benchmark(doc) == []

    def test_setup_metric_required(self):
        doc = _doc()
        doc["end_to_end"] = [m for m in doc["end_to_end"]
                             if m["name"] != "setup_s"]
        assert any("setup_s" in e for e in validate_benchmark(doc))

    def test_top_level_keys_exact(self):
        doc = _doc()
        doc["extra"] = 1
        assert any("exactly" in e for e in validate_benchmark(doc))


class TestSummary:
    def _round(self, times, start=0.0, outside=0.5, failures=()):
        marks = [start + outside]
        for t in times:
            marks.append(marks[-1] + t)
        return SimpleNamespace(specs=3, committed=300,
                               records=[None] * len(times), marks=marks,
                               start=start, end=marks[-1],
                               failures=list(failures),
                               complete=not failures and len(times) == 3)

    def test_mean_time_per_spec_over_complete_rounds(self):
        summary = Summary()
        summary.add(self._round([1.0, 2.0, 3.0]))
        summary.add(self._round([0.5, 2.5, 2.0], start=10.0))
        summary.add(self._round([0.6, 9.0, 2.5], start=20.0))
        summary.add(self._round([0.1], start=40.0,
                                failures=["TraceError: x"]))
        summary.finish(Stopwatch())
        assert summary.rounds == 4
        assert summary.spec_times() == pytest.approx([0.7, 4.5, 2.5])
        assert summary.round_s() == pytest.approx(8.2)
        assert summary.wall == pytest.approx(6.5 + 5.5 + 12.6 + 0.6)

    def test_clock_times_every_interval(self):
        class Doubled(Stopwatch):
            def seconds(self, start, end):
                return 2 * (end - start)

        summary = Summary()
        summary.add(self._round([1.0, 1.0, 1.0]))
        summary.finish(Doubled())
        assert summary.spec_times() == [2.0, 2.0, 2.0]
        assert summary.round_s() == pytest.approx(7.0)

    def test_no_complete_round(self):
        summary = Summary()
        summary.add(self._round([0.1], failures=["x"]))
        summary.finish(Stopwatch())
        assert summary.round_s() == 0.0
        assert summary.spec_times() == []
