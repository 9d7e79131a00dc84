"""Host-speed calibration arithmetic and the sampler's lifecycle."""

import threading
import time

import pytest

from perfbench.hostspeed import REFERENCE_S, Calibrator, Stopwatch


def _calibrator(samples):
    """A calibrator holding (start, end, kernel CPU seconds) samples."""
    clock = Calibrator()
    for start, end, cpu in samples:
        clock.starts.append(start)
        clock.ends.append(end)
        clock.cpu.append(cpu)
    return clock


def test_stopwatch_is_raw():
    assert Stopwatch().seconds(1.0, 3.5) == 2.5


def test_each_gap_is_rescaled_by_the_samples_around_it():
    ref = REFERENCE_S
    clock = _calibrator([(0.0, 0.01, ref), (1.01, 1.02, 2 * ref),
                         (2.02, 2.03, 2 * ref)])
    # 1 s at mean kernel 1.5 ref, then 1 s at 2 ref; samples excluded.
    assert clock.seconds(0.0, 2.03) == pytest.approx(1 / 1.5 + 1 / 2)
    # Part of the first gap only.
    assert clock.seconds(0.51, 1.01) == pytest.approx(0.5 / 1.5)
    # An interval inside one sample held no program time.
    assert clock.seconds(1.012, 1.018) == 0.0


def test_intervals_beyond_the_samples_use_the_nearest_one():
    ref = REFERENCE_S
    clock = _calibrator([(1.0, 1.01, ref), (2.01, 2.02, 4 * ref)])
    assert clock.seconds(0.5, 1.0) == pytest.approx(0.5)
    assert clock.seconds(2.02, 3.02) == pytest.approx(0.25)


def test_no_sample_is_an_error():
    with pytest.raises(RuntimeError):
        Calibrator().seconds(0.0, 1.0)


def test_sampler_thread_starts_and_stops():
    clock = Calibrator(period=0.01)
    clock.start()
    time.sleep(0.1)
    clock.stop()
    n = len(clock.cpu)
    assert n >= 3
    assert len(clock.starts) == len(clock.ends) == n
    assert all(c > 0 for c in clock.cpu)
    assert not any(t.name == "perfbench-calibrator"
                   for t in threading.enumerate())
    clock.stop()  # idempotent
    assert len(clock.cpu) == n
