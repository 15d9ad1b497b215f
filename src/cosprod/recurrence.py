"""Coefficient tables for the odd-reciprocal power sums.

The central sequence here is c_1, c_2, c_3, ... defined by the quadratic
recurrence

    c_1 = 1/2,      c_m = 2/(2m-1) * sum_{i+j=m, i,j>=1} c_i c_j

(the convolution runs over ordered pairs, so cross terms appear twice and
square terms once).  These rationals tie the odd-reciprocal power sums to
powers of pi/2:

    lambda(2m) := 1 + 3**-2m + 5**-2m + 7**-2m + ... = c_m * (pi/2)**(2m)

and, equivalently, 2*c_m is the Maclaurin coefficient of x**(2m-1) in tan x.
The table comes from the integer tangent numbers T_m = 2 (2m-1)! c_m (1, 2,
16, 272, ...): scaled by 2 (2m-1)!, the recurrence becomes T_1 = 1,
T_m = sum_{i=1}^{m-1} C(2m-2, 2i-1) T_i T_{m-i}, with no gcd per step.
Both identities are verified elsewhere in this package; this module also
provides the independent oracles (Bernoulli numbers, the Bernoulli formula
for tangent coefficients) used for that cross-check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


@dataclass(frozen=True)
class CoefficientTable:
    """The sequence c_1..c_m_max as exact rationals (1-based access via c())."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("coefficient table must not be empty")
        if self.coeffs[0] != Fraction(1, 2):
            raise ValueError("c_1 must be 1/2")
        for m, c in enumerate(self.coeffs, start=1):
            if c <= 0:
                raise ValueError(f"c_{m} must be positive")
        for m in range(1, len(self.coeffs)):
            if not self.coeffs[m] < self.coeffs[m - 1]:
                raise ValueError("coefficients must be strictly decreasing")

    @property
    def m_max(self) -> int:
        return len(self.coeffs)

    def c(self, m: int) -> Fraction:
        if not 1 <= m <= self.m_max:
            raise IndexError(f"index {m} outside 1..{self.m_max}")
        return self.coeffs[m - 1]


@dataclass(frozen=True)
class BernoulliTable:
    """B_0..B_k_max with the B_1 = -1/2 convention (1-based values via b())."""

    bernoulli: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = self.bernoulli
        if not vals or vals[0] != 1:
            raise ValueError("B_0 must be 1")
        if len(vals) > 1 and vals[1] != Fraction(-1, 2):
            raise ValueError("B_1 must be -1/2")
        for k in range(3, len(vals), 2):
            if vals[k] != 0:
                raise ValueError(f"B_{k} must vanish for odd k >= 3")
        for k in range(2, len(vals), 2):
            if (-1) ** (k // 2 + 1) * vals[k] <= 0:
                raise ValueError("even-index Bernoulli numbers must alternate in sign")

    @property
    def k_max(self) -> int:
        return len(self.bernoulli) - 1

    def b(self, k: int) -> Fraction:
        if not 0 <= k <= self.k_max:
            raise IndexError(f"index {k} outside 0..{self.k_max}")
        return self.bernoulli[k]


# the sequence is a fixed mathematical constant, so computed prefixes of
# (T_m, c_m) are shared between calls; the prefix only grows, so entries
# read after an extension never change, and the lock serialises extensions
_coeff_lock = threading.Lock()
_coeff_prefix: list[tuple[int, Fraction]] = [(1, Fraction(1, 2))]


def _extend(m_max: int) -> list[tuple[int, Fraction]]:
    """The shared prefix, extended to at least m_max entries (T_m, c_m)."""
    with _coeff_lock:
        prefix = _coeff_prefix
        for m in range(len(prefix) + 1, m_max + 1):
            t = sum(comb(2 * m - 2, 2 * i - 1) * prefix[i - 1][0] * prefix[m - i - 1][0]
                    for i in range(1, m))
            prefix.append((t, Fraction(t, 2 * factorial(2 * m - 1))))
    return _coeff_prefix


def lambda_coefficients(m_max: int) -> CoefficientTable:
    """First m_max terms of the recurrence c_1 = 1/2, c_m = 2/(2m-1) * conv.

    The convolution sum_{i+j=m} c_i c_j is over ordered pairs, matching the
    instance pattern c_4 = 2/7 * (2 c_1 c_3 + c_2 c_2).  It runs as the
    tangent-number recurrence of the module docstring: O(m_max^2) integer
    operations the first time a prefix is needed; later calls reuse them.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return CoefficientTable(tuple(c for _, c in _extend(m_max)[:m_max]))


def bernoulli_numbers(k_max: int) -> BernoulliTable:
    """B_0..B_k_max from the defining recurrence.

    sum_{j=0..k} C(k+1, j) B_j = 0 for k >= 1, with B_0 = 1; solved for B_k
    at each step.  Exact rationals throughout.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    values = [Fraction(1)]
    for k in range(1, k_max + 1):
        acc = sum(comb(k + 1, j) * values[j] for j in range(k))
        values.append(Fraction(-acc, k + 1))
    return BernoulliTable(tuple(values))


def tangent_coefficients(m_max: int) -> list[Fraction]:
    """Maclaurin coefficients of tan x at x**(2m-1), m = 1..m_max.

    Computed from Bernoulli numbers via

        [x**(2m-1)] tan x = (-1)**(m-1) * 2**2m * (2**2m - 1) * B_2m / (2m)!

    which is independent of the quadratic recurrence in this module and
    serves as its oracle: 2*c_m must equal these values exactly.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    table = bernoulli_numbers(2 * m_max)
    out = []
    fact = 1  # (2m)!
    for m in range(1, m_max + 1):
        fact *= (2 * m - 1) * (2 * m)
        four_m = 1 << (2 * m)
        out.append((-1) ** (m - 1) * four_m * (four_m - 1) * table.b(2 * m) / fact)
    return out


def lambda_closed_form(m: int) -> Fraction:
    """The rational q_m with lambda(2m) = q_m * pi**(2m).

    Since lambda(2m) = c_m * (pi/2)**(2m), this is just c_m / 4**m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return _extend(m)[m - 1][1] / (1 << (2 * m))
