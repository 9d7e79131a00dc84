"""Span self-time and coverage arithmetic, and the tracer's wrappers."""

import sys
import threading
import types

import pytest

from perfbench.tracing import Span, Tracer, coverage, self_times


def _span(sid, start, end, parent=-1, busy=None):
    return Span(sid, f"s{sid}", start, end,
                busy=end - start if busy is None else busy, parent=parent)


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, parent=0),
                 _span(2, 5.0, 9.0, parent=0), _span(3, 2.0, 3.0, parent=1)]
        selfs = self_times(spans)
        assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_iterator_child_counts_its_busy_time(self):
        # A writer span of 6 s pulls items from a generator that is
        # busy for 4 s in total, spread over the writer's interval.
        spans = [_span(0, 0.0, 6.0), _span(1, 0.5, 5.9, parent=0, busy=4.0)]
        assert self_times(spans) == pytest.approx({0: 2.0, 1: 4.0})


class TestCoverage:
    def test_union_of_roots_within_windows(self):
        spans = [_span(0, 0.0, 4.0), _span(1, 3.0, 6.0),
                 _span(2, 8.0, 9.0), _span(3, 6.5, 7.5, parent=0)]
        # Roots cover [0, 6] and [8, 9]; the child is ignored.
        assert coverage(spans, [(0.0, 10.0)]) == pytest.approx(0.7)
        assert coverage(spans, [(5.0, 7.0), (8.5, 9.5)]) \
            == pytest.approx(1.5 / 3.0)

    def test_no_windows(self):
        assert coverage([_span(0, 0.0, 1.0)], []) == 0.0


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    class Layer:
        def work(self, n):
            return sum(self.items(n))

        def items(self, n):
            yield from range(n)

        def outer(self, n):
            return self.work(n)

    module.Layer = Layer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


class TestTracer:
    def test_nested_calls_and_iterators(self, fake_module):
        tracer = Tracer()
        tracer.patch(fake_module.__name__, "Layer.work",
                     lambda f: tracer.call("work", f,
                                           rid=lambda a, k: "req"))
        tracer.patch(fake_module.__name__, "Layer.items",
                     lambda f: tracer.iterator("items", f, count="n"))
        try:
            assert fake_module.Layer().work(5) == 10
        finally:
            tracer.unpatch()
        work, items = tracer.spans
        assert (work.name, items.name) == ("work", "items")
        assert items.parent == work.sid and items.rid == "req"
        assert items.busy <= items.end - items.start
        assert tracer.counts["n"] == 5
        assert fake_module.Layer.work.__name__ == "work"  # restored

    def test_opaque_span_hides_its_callees(self, fake_module):
        tracer = Tracer()
        tracer.patch(fake_module.__name__, "Layer.outer",
                     lambda f: tracer.call("outer", f, opaque=True))
        tracer.patch(fake_module.__name__, "Layer.work",
                     lambda f: tracer.call("work", f))
        try:
            fake_module.Layer().outer(3)
        finally:
            tracer.unpatch()
        assert [s.name for s in tracer.spans] == ["outer"]

    def test_worker_thread_span_parents_to_waiting_span(self, fake_module):
        tracer = Tracer()
        tracer.patch(fake_module.__name__, "Layer.work",
                     lambda f: tracer.call("work", f))

        def wait(n):
            thread = threading.Thread(target=fake_module.Layer().work,
                                      args=(n,))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

        try:
            tracer.call("wait", wait)(4)
        finally:
            tracer.unpatch()
        wait_span, work_span = tracer.spans
        assert work_span.parent == wait_span.sid
        selfs = self_times(tracer.spans)
        assert selfs[wait_span.sid] == pytest.approx(
            wait_span.busy - work_span.busy)

    def test_missing_entry_point_is_reported(self, fake_module):
        tracer = Tracer()
        tracer.patch(fake_module.__name__, "Layer.gone", lambda f: f)
        tracer.patch("perfbench_no_such_module", "f", lambda f: f)
        assert tracer.missing == [f"{fake_module.__name__}.Layer.gone",
                                  "perfbench_no_such_module.f"]
