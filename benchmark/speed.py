"""The machine's speed through a run, for scaling the timings.

The machine the benchmark was built on gives it two vCPUs of a host it
shares with other tenants, and its speed drifts: the same pure-Python
loop runs up to 1.7 times slower for seconds at a time, and up to twice
as slow for minutes.  Raw latencies of the same code, taken in runs a few
minutes apart, spread by a quarter to a half of their median.

So the benchmark times fixed reference work through the run and reports
each latency scaled to a fixed reference speed: multiplied by the
reference's nominal time over the median of its timings taken nearest to
the latency.  Two references, because the two kinds of work slow down
differently:

- ``interpreter()`` times ``kernel``, the kind of work the program does
  in process (exact Gaussian elimination over ``Fraction`` with small
  entries, and a bracket table kept as a dict of tuples), every
  ``INTERVAL`` seconds between operations.
- ``process_start()`` times a fresh interpreter that imports the
  standard-library modules the program uses, before every command-line
  call and around every set-up sample.  Child processes track it, not
  the kernel: over a four-minute recording of the CLI calls, 26-second
  windows spread by 0.10 raw, 0.11 scaled by the kernel and 0.02 scaled
  by this reference.

Both are written here, so that no change to the program changes them.  A
change that makes the program faster or slower moves the scaled figures
by the same factor as the raw ones; a stretch in which the whole machine
is slower does not.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from functools import partial
from time import perf_counter

INTERVAL = 0.05  # seconds between kernel timings
NEAREST = 2  # reference timings taken on each side of a latency
# Nominal times of the references, about their medians on the reference
# machine (2 vCPUs, Python 3.11.7): a scaled latency is the time the
# operation takes when the reference takes this long.
KERNEL_S = 2.0e-3
PROCESS_START_S = 0.1
START_IMPORTS = "import argparse, dataclasses, fractions, itertools, json, random, typing"

_MATRIX = [
    [2, -1, 0, 3, 1, -2],
    [1, 3, -2, 0, 2, 1],
    [0, 1, 4, -1, -3, 2],
    [-2, 0, 1, 2, 1, 3],
    [3, 2, -1, 1, 0, -1],
    [1, -3, 2, -2, 4, 1],
]


def _det(matrix: list) -> Fraction:
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for r in range(col + 1, n):
            f = rows[r][col] / p
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def kernel() -> Fraction:
    """Determinants, by exact elimination, of a fixed 6x6 integer matrix
    and of the matrices of row differences read from a bracket-style
    table of its rows."""
    n = len(_MATRIX)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = tuple(a - b for a, b in zip(_MATRIX[i], _MATRIX[j]))
    total = _det(_MATRIX)
    for i in range(2):
        total += _det([table[(i, j)] for j in range(i + 1, n)] + _MATRIX[:i + 1])
    return total


def _start_process(cwd: str):
    subprocess.run([sys.executable, "-c", START_IMPORTS], cwd=cwd, check=True)


class Speed:
    """Timings of one reference through a run, and the scale they give a
    latency."""

    def __init__(self, reference, nominal_s: float, interval: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.interval = interval
        self.times: list = []  # start of each reference timing, in order
        self.seconds: list = []  # its duration
        self.last = float("-inf")

    def tick(self, force: bool = False):
        """Time the reference if ``interval`` has passed since the last
        time (or if ``force``)."""
        t0 = perf_counter()
        if force or t0 - self.last >= self.interval:
            self.reference()
            self.last = perf_counter()
            self.times.append(t0)
            self.seconds.append(self.last - t0)

    def scale(self, t: float) -> float:
        """The nominal time over the median of the reference timings
        nearest to an operation that started at ``t``."""
        j = bisect.bisect_left(self.times, t)
        near = self.seconds[max(0, j - NEAREST): j + NEAREST]
        return self.nominal_s / statistics.median(near)


def interpreter() -> Speed:
    return Speed(kernel, KERNEL_S, INTERVAL)


def process_start(cwd: str) -> Speed:
    return Speed(partial(_start_process, cwd), PROCESS_START_S, 0.0)
