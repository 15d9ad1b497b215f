"""The odd power series of the fixed point t = x/2 + 2 * integral(t^2 dx).

An OddSeries of order M carries the terms x, x^3, ..., x^(2M-1); it is
also the type of the coefficient table that :mod:`cosprod.recurrence`
computes.  The unique solution reproduces that table without using the
recurrence: :func:`picard_fixed_point` solves the fixed point by Picard
iteration in integers over one common denominator, and
:func:`ode_residual` checks the equivalent differential identity
2 t' = 1 + 4 t^2 coefficientwise.  Both square the series through one
convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


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


def _square(cs):
    """Coefficients of x^2, x^4, ..., x^(2M) in t^2, t = sum cs[m-1] x^(2m-1).

    The x^(2k) coefficient is sum over ordered pairs i + j = k + 1 of
    c_i c_j; for k <= M every pair involves only stored coefficients.  The
    pairs (i, j) and (j, i) give equal products, so it is twice the sum
    over i < j, plus the middle square c_((k+1)/2)^2 when k is odd.
    """
    out = []
    for k in range(1, len(cs) + 1):
        half = k // 2
        s = 2 * sum(a * b for a, b in zip(cs[:half], reversed(cs[k - half:k])))
        if k % 2:
            s += cs[half] * cs[half]
        out.append(s)
    return out


def _picard_round(current: list[int], denom: int) -> list[int]:
    """One round t <- x/2 + 2*integral(t^2 dx) on numerators over `denom`.

    The numerator a_m of the x^(2m-1) coefficient becomes denom/2 for
    m = 1 and 2 * sum_{i+j=m} a_i a_j / ((2m-1) denom) for m >= 2.
    """
    squared = _square(current)
    out = [denom // 2]
    for m in range(2, len(current) + 1):
        a, rem = divmod(2 * squared[m - 2], (2 * m - 1) * denom)
        if rem:
            raise AssertionError(f"Picard coefficient {m} is not a multiple of 1/denom")
        out.append(a)
    return out


def picard_fixed_point(order: int) -> OddSeries:
    """Iterate t <- x/2 + 2*integral(t^2 dx) until the truncation stabilizes.

    Seeded with t = x/2.  Every coefficient is held as an integer numerator
    over D = 2 (2 order - 1)!, and each division is exact: by induction
    each iterate's x^(2m-1) coefficient is a multiple of 1/(2 (2m-1)!),
    since a product c_i c_j with i + j = m lies in
    Z / (4 (2i-1)! (2j-1)!), the factor 2/(2m-1) makes that
    Z / (2 (2m-1) (2i-1)! (2j-1)!), and (2i-1)! (2j-1)! divides
    (2m-2)! because C(2m-2, 2i-1) is an integer.  Soundness does not rest
    on this argument: a nonzero remainder raises AssertionError.

    Each round finalizes at least one more coefficient, so two successive
    iterates agree after at most `order` rounds; equality of the integer
    numerators is the stopping test.  The result must coincide with
    lambda_coefficients(order), which is checked by the test suite rather
    than assumed here.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    denom = 2 * factorial(2 * order - 1)
    current = [denom // 2] + [0] * (order - 1)
    for _ in range(order + 1):
        nxt = _picard_round(current, denom)
        if nxt == current:
            return OddSeries(tuple(Fraction(a, denom) for a in current))
        current = nxt
    raise AssertionError("fixed point failed to stabilize within order iterations")


def ode_residual(t: OddSeries) -> list[Fraction]:
    """Coefficients of 2 t'(x) - 1 - 4 t(x)^2 at x^0, x^2, ..., x^(2M).

    For t equal to the true series through order M the entries of degree
    up to 2(M-1) vanish identically; the final entry (degree 2M) is the
    truncation artifact, reported as computed: the derivative of the
    truncated t contributes nothing at that degree while the square still does.
    """
    cs = t.coeffs
    squared = _square(cs)
    out = [2 * cs[0] - 1]
    for i in range(1, t.order):
        out.append(2 * (2 * i + 1) * cs[i] - 4 * squared[i - 1])
    out.append(-4 * squared[-1])
    return out
