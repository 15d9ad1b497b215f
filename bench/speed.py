"""The processor's speed, from a fixed unit of reference work timed beside
each request.

On a shared host the processor's speed drifts: on a 2-CPU host, the mean
time of the same desk-session requests was 0.24 s in one 30-s run and
0.45 s in another, minutes later.  A fixed unit of work of the
same kind as the request slows down with it, so every request is timed
together with such a unit, just before and just after it, and its time is
reported at the reference speed::

    scaled = measured * REFERENCE_S / reference_time

that is, the time the request would take where the unit takes exactly
``REFERENCE_S``.  The units are the benchmark's own code, not cosprod's, so
a change to cosprod moves the measured time and not the unit's, and shows
in the scaled time in full.

The drift is not the same for all code: small-integer interpreter work and
arithmetic on numbers of thousands of bits slow down by different amounts.
So each workload has a unit of its own kind (``UNITS``); a unit of another
kind tracked a workload's drift three to five times worse.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable

REFERENCE_S = 0.001
REPEATS = 5


def integer_unit() -> tuple[int, Fraction]:
    """Floor divisions of a 200-bit scaled one, as in cosprod's direct sums
    (desk-session's integer kernels), and a sum of small Fractions, as in
    its bounds."""
    one = 1 << 200
    total = 0
    for k in range(1, 1700):
        total += one // (2 * k - 1) ** 4
    exact = Fraction(0)
    for k in range(1, 60):
        exact += Fraction(1, k * k)
    return total, exact


_DYADIC_BITS = 4096


def _dyadic(x: Fraction) -> Fraction:
    """x rounded to a multiple of 2^-4096."""
    return Fraction(round(x * (1 << _DYADIC_BITS)), 1 << _DYADIC_BITS)


_DYADIC_X = _dyadic(Fraction(7, 9))


def dyadic_unit() -> Fraction:
    """Eight Maclaurin terms of cos(7/9) in 4096-bit dyadic Fractions, as in
    high-precision's cos and exp."""
    x2 = _dyadic(_DYADIC_X * _DYADIC_X)
    total = term = Fraction(1)
    for k in range(1, 9):
        term = _dyadic(term * x2 / ((2 * k - 1) * (2 * k)))
        total = _dyadic(total - term if k % 2 else total + term)
    return total


def _rational_table() -> list[Fraction]:
    """160 Fractions of about 6j-bit numerators over factorial denominators."""
    table, fact = [], 1
    for j in range(1, 161):
        fact *= (2 * j - 1) * max(2 * j - 2, 1)
        table.append(Fraction(pow(3, 5 * j, 1 << (6 * j)) + 1, fact))
    return table


_RATIONAL_TABLE = _rational_table()


def rational_unit() -> Fraction:
    """Part of a convolution of large Fractions with factorial
    denominators, as in cold-tables' coefficient recurrence."""
    c, m = _RATIONAL_TABLE, len(_RATIONAL_TABLE) + 1
    return Fraction(2, 2 * m - 1) * sum(c[i] * c[m - 2 - i] for i in range(50))


UNITS: dict[str, Callable[[], object]] = {
    "desk-session": integer_unit,
    "high-precision": dyadic_unit,
    "cold-tables": rational_unit,
}


def reference_time(unit: Callable[[], object]) -> float:
    """Median time of REPEATS runs of `unit`, back to back now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, reference_s: float) -> float:
    """`seconds` at the speed where the reference unit takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s
