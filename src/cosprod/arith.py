"""Exact rational and error-bounded real arithmetic.

Two value types back everything else in this package:

* exact rationals, for coefficient tables and anything that can stay exact.
  These are stdlib ``fractions.Fraction`` values (arbitrary precision,
  always in lowest terms, positive denominator).

* ``BoundedReal``, a dyadic-rational approximation paired with a rigorous
  absolute error bound.  Every arithmetic operation propagates input bounds
  conservatively and accounts for its own rounding, so for any value ``b``
  produced by this module, ``|b.value - truth| <= b.abs_error`` holds as a
  theorem, not as a heuristic.

No floating point is used anywhere: values, bounds and all intermediate
quantities are exact rationals, with explicit quantization to a requested
number of significant bits.  That quantization happens in one place,
:func:`real_from_rational`, which every rounded result in the package goes
through.  Precision is caller-specified per operation; there is no global
precision state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

_RationalLike = Union[Fraction, int]

# the coarsest working precision any entry point accepts
MIN_PRECISION_BITS = 8


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PrecisionError(ValueError):
    """Argument in the domain, but its error bound too wide to bound a result."""


def check_precision(precision_bits: int) -> None:
    """Reject a precision below MIN_PRECISION_BITS with ValueError."""
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be at least {MIN_PRECISION_BITS}")


# ----------------------------------------------------------------------
# dyadic quantization helpers
# ----------------------------------------------------------------------

def _pow2(e: int) -> Fraction:
    """Exact 2**e for any integer e."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << -e)


def _floor_log2(x: Fraction) -> int:
    """Largest e with 2**e <= x, for x > 0.  Exact integer arithmetic."""
    if x <= 0:
        raise ValueError("_floor_log2 needs a positive argument")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # candidate satisfies 2**e <= x < 2**(e+2); one downward fixup may apply
    if e >= 0:
        ok = n >= (d << e)
    else:
        ok = (n << -e) >= d
    return e if ok else e - 1


def _round_sig(x: Fraction, bits: int, floor: bool = False) -> tuple[Fraction, Fraction]:
    """Quantize x to `bits` significant dyadic bits.

    Returns (quantized value, error cap).  The cap is a dyadic upper bound
    on |x - quantized|: half a quantum to nearest, a full quantum with
    `floor`, which never overshoots x.
    """
    if x == 0:
        return x, Fraction(0)
    q = _floor_log2(abs(x)) - bits + 1
    scaled = x / _pow2(q)
    if floor:
        n, cap = math.floor(scaled), _pow2(q)
    else:
        n, cap = round(scaled), _pow2(q - 1)
    value = n * _pow2(q)
    if value == x:
        return value, Fraction(0)
    return value, cap


def _err_up(e: Fraction) -> Fraction:
    """Round an error bound up to 8 significant bits (keeps bounds tidy)."""
    if e == 0:
        return Fraction(0)
    if e < 0:
        raise ValueError("error bounds must be nonnegative")
    q = _floor_log2(e) - 7
    # ceil(e / 2**q) without floats, for either sign of q
    if q >= 0:
        n = -((-e.numerator) // (e.denominator << q))
    else:
        n = -((-(e.numerator << -q)) // e.denominator)
    return n * _pow2(q)


# ----------------------------------------------------------------------
# BoundedReal
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedReal:
    """A rational approximation plus a rigorous absolute error bound.

    ``value`` is the computed approximation (normally a dyadic rational with
    about ``precision_bits`` significant bits), and ``abs_error`` satisfies
    ``|value - truth| <= abs_error`` for the real number the instance stands
    for.  Instances are immutable; operations return new instances whose
    bounds account for both propagated input error and the operation's own
    quantization.
    """

    value: Fraction
    abs_error: Fraction
    precision_bits: int

    def __post_init__(self) -> None:
        if self.abs_error < 0:
            raise ValueError("abs_error must be nonnegative")
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")

    @classmethod
    def exact(cls, r: _RationalLike, precision_bits: int) -> "BoundedReal":
        """Wrap an exactly-known rational (abs_error = 0, no quantization)."""
        return cls(Fraction(r), Fraction(0), precision_bits)

    # -- interval view -------------------------------------------------

    def lower(self) -> Fraction:
        return self.value - self.abs_error

    def upper(self) -> Fraction:
        return self.value + self.abs_error

    def contains(self, r: _RationalLike) -> bool:
        return self.lower() <= Fraction(r) <= self.upper()

    def overlaps(self, other: "BoundedReal") -> bool:
        return self.lower() <= other.upper() and other.lower() <= self.upper()

    def magnitude_upper(self) -> Fraction:
        """Upper bound on |truth|."""
        return max(abs(self.lower()), abs(self.upper()))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: object) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            bits = min(self.precision_bits, other.precision_bits)
            return real_from_rational(self.value + other.value, bits,
                                      self.abs_error + other.abs_error)
        if isinstance(other, (int, Fraction)):
            return real_from_rational(self.value + other, self.precision_bits,
                                      self.abs_error)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "BoundedReal":
        return BoundedReal(-self.value, self.abs_error, self.precision_bits)

    def __sub__(self, other: object) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            return self.__add__(-other)
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        return NotImplemented

    def __rsub__(self, other: object) -> "BoundedReal":
        neg = self.__neg__()
        return neg.__add__(other)

    def __mul__(self, other: object) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            bits = min(self.precision_bits, other.precision_bits)
            err = (abs(self.value) * other.abs_error
                   + abs(other.value) * self.abs_error
                   + self.abs_error * other.abs_error)
            return real_from_rational(self.value * other.value, bits, err)
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return real_from_rational(self.value * r, self.precision_bits,
                                      self.abs_error * abs(r))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "BoundedReal":
        # division by exact rationals only; no BoundedReal divisor is needed
        # anywhere in this package
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            if r == 0:
                raise ZeroDivisionError("division of a BoundedReal by zero")
            return real_from_rational(self.value / r, self.precision_bits,
                                      self.abs_error / abs(r))
        return NotImplemented

    def __str__(self) -> str:
        try:
            return f"{float(self.value):.12g} ± {float(self.abs_error):.3g}"
        except OverflowError:
            return f"{self.value} ± {self.abs_error}"


def real_from_rational(r: _RationalLike, precision_bits: int,
                       err: _RationalLike = 0, floor: bool = False) -> BoundedReal:
    """Round r to `precision_bits` significant bits, carrying error `err`.

    This is the only place where an exact rational becomes a BoundedReal
    value.  `err` bounds the distance from r to the true quantity the
    result stands for; the rounding cap is added to it and the sum is
    rounded up to 8 significant bits, so |value - truth| <= abs_error.
    Rounding is to nearest, or downward (value <= r) with `floor`.  With
    err = 0 and nearest rounding, |value - r| <= abs_error <=
    2**(1-precision_bits) * |r|, and abs_error = 0 whenever r is
    representable at that precision.
    """
    check_precision(precision_bits)
    value, cap = _round_sig(Fraction(r), precision_bits, floor)
    return BoundedReal(value, _err_up(err + cap), precision_bits)


# ----------------------------------------------------------------------
# pi
# ----------------------------------------------------------------------

def _atan_recip_scaled(q: int, shift: int) -> tuple[int, int]:
    """2**shift * arctan(1/q) by the alternating Taylor series, in integers.

    Returns (scaled value, error in ulps of 2**-shift).  Powers of 1/q are
    maintained by repeated floor division, so each stays within ~2 ulps of
    the exact power; the truncation tail is covered by the final increment
    (alternating series, terms decreasing).
    """
    one = 1 << shift
    q2 = q * q
    power = one // q
    total = 0
    k = 0
    err_ulps = 2
    while power:
        term = power // (2 * k + 1)
        total += term if k % 2 == 0 else -term
        err_ulps += 2
        power //= q2
        k += 1
    err_ulps += 2  # first omitted term is below 2 ulps once power hits 0
    return total, err_ulps


@lru_cache(maxsize=None)
def pi_constant(precision_bits: int) -> BoundedReal:
    """pi with |value - pi| <= abs_error <= 2**(4 - precision_bits).

    Uses the Machin identity pi = 16*arctan(1/5) - 4*arctan(1/239) with 32
    guard bits; deterministic for a given precision.
    """
    check_precision(precision_bits)
    shift = precision_bits + 32
    a5, e5 = _atan_recip_scaled(5, shift)
    a239, e239 = _atan_recip_scaled(239, shift)
    scaled = 16 * a5 - 4 * a239
    series_err = Fraction(16 * e5 + 4 * e239, 1 << shift)
    return real_from_rational(Fraction(scaled, 1 << shift), precision_bits,
                              series_err)
