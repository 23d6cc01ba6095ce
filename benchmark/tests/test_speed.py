"""Latencies are scaled by the kernel timings nearest to them.
Run: python3 -m pytest benchmark/tests"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def _speed(times, seconds):
    s = speed.interpreter()
    s.times, s.seconds = list(times), list(seconds)
    return s


def test_scale_uses_the_nearest_reference_timings():
    ref = speed.KERNEL_S
    # a quick stretch (kernel at the reference time), then a slow one
    s = _speed(range(10), [ref] * 5 + [2 * ref] * 5)
    assert s.scale(1.5) == 1.0
    assert s.scale(8.5) == 0.5
    # two timings on each side: at the boundary the median mixes both
    assert s.scale(5.0) == ref / (1.5 * ref)


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel() == -3264


def test_process_start_reference_times_a_child(tmp_path):
    s = speed.process_start(str(tmp_path))
    s.tick()
    s.tick()
    assert len(s.seconds) == 2 and all(x > 0 for x in s.seconds)
