"""Truncated formal power series over exact rationals.

An OddSeries of order M carries the terms x, x^3, ..., x^(2M-1); an
EvenSeries of order M carries x^2, x^4, ..., x^(2M).  Truncation order is
explicit and operations never silently exceed it.  The operations here are
the ones needed to realize the fixed point

    t = x/2 + 2 * integral(t^2 dx)

whose unique odd-series solution reproduces the coefficient table from
:mod:`cosprod.recurrence`, and to check the equivalent differential
identity 2 t' = 1 + 4 t^2 coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class OddSeries:
    """coeffs[m-1] multiplies x**(2m-1); order = number of stored terms."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("series must carry at least one term")

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class EvenSeries:
    """coeffs[m-1] multiplies x**(2m); order = number of stored terms."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("series must carry at least one term")

    @property
    def order(self) -> int:
        return len(self.coeffs)


def square_odd(t: OddSeries) -> EvenSeries:
    """Square an odd series, truncated to the input order.

    The x**(2m) coefficient of t^2 is sum over ordered pairs (i, j) with
    i + j = m + 1 of c_i c_j; every pair needed for m <= order involves
    only stored coefficients, so all returned terms are exact.
    """
    cs = t.coeffs
    out = []
    for m in range(1, t.order + 1):
        acc = Fraction(0)
        for i in range(max(1, m + 1 - t.order), min(m, t.order) + 1):
            acc += cs[i - 1] * cs[m - i]
        out.append(acc)
    return EvenSeries(tuple(out))


def integrate_twice_scaled(sq: EvenSeries) -> OddSeries:
    """Map each e_m x**(2m) to 2 e_m x**(2m+1) / (2m+1), i.e. 2*integral.

    No constant of integration is introduced, so the output has an empty
    (zero) x**1 slot.  Every input term maps exactly, so the output order
    is one higher than the input's; callers that iterate at fixed order
    truncate explicitly.
    """
    out = [Fraction(0)]
    for m in range(1, sq.order + 1):
        out.append(Fraction(2, 2 * m + 1) * sq.coeffs[m - 1])
    return OddSeries(tuple(out))


def picard_fixed_point(order: int) -> OddSeries:
    """Iterate t <- x/2 + 2*integral(t^2 dx) until the truncation stabilizes.

    Seeded with t = x/2.  Each iteration finalizes at least one more
    coefficient, so two successive iterates agree after at most `order`
    rounds; equality of exact rationals is the stopping test.  The result
    must coincide with lambda_coefficients(order), which is checked by the
    test suite rather than assumed here.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    seed = (Fraction(1, 2),) + (Fraction(0),) * (order - 1)
    current = OddSeries(seed)
    for _ in range(order + 1):
        squared = square_odd(current)
        integrated = integrate_twice_scaled(squared).coeffs[:order]
        nxt = OddSeries(tuple(s + i for s, i in zip(seed, integrated)))
        if nxt == current:
            return current
        current = nxt
    raise AssertionError("fixed point failed to stabilize within order iterations")


def ode_residual(t: OddSeries) -> list[Fraction]:
    """Coefficients of 2 t'(x) - 1 - 4 t(x)^2 at x^0, x^2, ..., x^(2M).

    For t equal to the true series through order M the entries of degree
    up to 2(M-1) vanish identically; the final entry (degree 2M) is the
    truncation artifact, reported as computed: the derivative of the
    truncated t contributes nothing at that degree while the square still does.
    """
    m_order = t.order
    squared = square_odd(t)
    out = [2 * t.coeffs[0] - 1]
    for i in range(1, m_order):
        deriv = 2 * (2 * i + 1) * t.coeffs[i]
        out.append(deriv - 4 * squared.coeffs[i - 1])
    out.append(-4 * squared.coeffs[m_order - 1])
    return out
