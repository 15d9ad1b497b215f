"""Exact rationals and error-bounded real arithmetic on integers.

Two value types back everything else in this package: stdlib
``fractions.Fraction`` for anything that can stay exact (coefficient
tables, tail bounds), and ``BoundedReal``, a dyadic ball: a value with a
rigorous absolute error bound.  Every kernel propagates input bounds
conservatively and accounts for its own rounding, so for any ``b`` produced
here ``|b.value - truth| <= b.abs_error`` holds as a theorem.

A ball holds its value and its error each as a canonical integer triple
(n, x, d) for n * 2**x / d: d odd and positive, n odd or the triple
(0, 0, 1).  A ball has no arithmetic: each kernel computes its exact
rational and error, and :func:`real_from_rational` rounds them into a
ball, whose value is dyadic, m * 2**q with |m| < 2**precision_bits, and
whose error is an 8-bit dyadic e * 2**r with e < 2**8.  Only the
constructor carries other rationals exactly.  A ball is read one way:
``value``, ``abs_error``, ``lower()`` and ``upper()`` are Fractions in
lowest terms, built without a gcd, which at thousands of bits would cost
more than the reads do.  A stored triple's n and d are coprime, so its
Fraction is copied from the pair; an end v -+ e of a dyadic ball is
dyadic, and stripping its trailing zeros puts it in lowest terms.  Only
an end of a non-dyadic ball, which only the constructor makes, is
reduced by Fraction itself.  ``Ratio`` is the rounding's input pair
only: a numerator and denominator in whatever terms a kernel built them,
which :func:`real_from_rational` takes as it takes a Fraction.  No binary
floating point is used; the rounding happens in one place,
:func:`real_from_rational` (``_round`` on triples), whose one quantizer
``_round_sig`` rounds the value and, as -floor(-t), the error, with
integer multiplies, shifts and one divmod.  Precision is caller-specified
per call, with no global precision state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .output import format_bound, format_decimal


class Ratio(NamedTuple):
    """numerator / denominator, denominator > 0, in whatever terms it was built.

    A pair, not a number: it has no arithmetic and compares as a tuple.  A
    kernel hands its exact result and error to :func:`real_from_rational`
    as Ratios, which the rounding reads through their two fields, as it
    reads a Fraction, and for which a Fraction would first take a gcd.
    """

    numerator: int
    denominator: int


class _CoprimePair(NamedTuple):
    """numerator / denominator, denominator > 0, known to be in lowest terms.

    Registered as a numbers.Rational, so that Fraction(r) copies the two
    fields of a ``_Coprime`` r, as it does for any Rational r, and takes no
    gcd.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_CoprimePair)


class _Coprime(_CoprimePair):
    """The pair the reads are built from: a subclass of the registered one.

    isinstance(r, Rational) caches a subclass of a registered class after
    its first check, but answers the registered class itself from the
    registry, through the Python-level ABCMeta.__subclasscheck__, on every
    call (CPython's ``_abc``).
    """

    __slots__ = ()


_RationalLike = Union[Fraction, int]

# the coarsest working precision any entry point accepts
MIN_PRECISION_BITS = 8


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PrecisionError(ValueError):
    """Argument in the domain, but its error bound too wide to bound a result."""


class WorkBudgetError(PrecisionError):
    """Arguments in the domain whose work at this precision is over a budget."""


def check_precision(precision_bits: int) -> None:
    """Reject a precision below MIN_PRECISION_BITS with ValueError."""
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be at least {MIN_PRECISION_BITS}")


# ----------------------------------------------------------------------
# integer triples: (n, x, d) stands for n * 2**x / d, with d odd and positive
# ----------------------------------------------------------------------

_Triple = tuple[int, int, int]
_ZERO: _Triple = (0, 0, 1)


def _canon(n: int, x: int, d: int = 1) -> _Triple:
    """The canonical triple: n odd, or (0, 0, 1); so equal triples are equal numbers."""
    if not n:
        return _ZERO
    k = (n & -n).bit_length() - 1
    return n >> k, x + k, d


def _triple(r: Union[_RationalLike, Ratio]) -> _Triple:
    """The canonical triple of an int, Fraction or Ratio.

    n and d share no odd factor when r is in lowest terms, as a Fraction is.
    """
    n, d = r.numerator, r.denominator
    k = (d & -d).bit_length() - 1
    return _canon(n, -k, d >> k)


def _fraction(t: _Triple) -> Fraction:
    """The Fraction of a canonical triple whose n and d are coprime, with no gcd.

    n is odd (or t is (0, 0, 1)) and d odd, so a power of two on either
    side leaves numerator and denominator coprime.
    """
    n, x, d = t
    return Fraction(_Coprime(n << x, d) if x >= 0 else _Coprime(n, d << -x))


def _end(v: _Triple, e: _Triple) -> Fraction:
    """v + e in lowest terms: a dyadic sum with no gcd, any other by Fraction's division."""
    n, x, d = _add(v, e)
    # a dyadic end in lowest terms by its zeros: a gcd of 4096 bits costs more
    end = _fraction(_canon(n, x))
    return end if d == 1 else end / d


def _add(a: _Triple, b: _Triple) -> _Triple:
    """a + b over the common denominator d1 d2, not canonical.

    n may be even, or 0 with x != 0.  No stored triple is read from a sum
    before a rounding: ``_round`` reads it through ``_round_sig`` and
    ``_floor_log2``, ``overlaps`` by its sign and ``_end`` through
    ``_canon``, so equal balls still have equal triples.
    """
    (n1, x1, d1), (n2, x2, d2) = a, b
    x = min(x1, x2)
    return (n1 * d2 << (x1 - x)) + (n2 * d1 << (x2 - x)), x, d1 * d2


def _abs(t: _Triple) -> _Triple:
    return abs(t[0]), t[1], t[2]


def _neg(t: _Triple) -> _Triple:
    return -t[0], t[1], t[2]


def _floor_log2(t: _Triple) -> int:
    """Largest e with 2**e <= |t|, for t != 0."""
    n, x, d = t
    n = abs(n)
    e = n.bit_length() - d.bit_length()
    # for d > 1 the candidate satisfies 2**(e-1) < n/d < 2**(e+1)
    if d != 1 and (n < d << e if e >= 0 else n << -e < d):
        e -= 1
    return e + x


def _round_sig(t: _Triple, bits: int, floor: bool = False) -> tuple[_Triple, _Triple]:
    """Quantize t to `bits` significant bits: (m * 2**q, cap) as triples.

    m is t / 2**q rounded to nearest with ties to even, or down with
    `floor`.  The cap bounds |t - m * 2**q|: half a quantum 2**q to
    nearest, a full one with `floor`, and 0 when the rounding is exact.
    """
    n, x, d = t
    if not n:
        return _ZERO, _ZERO
    q = _floor_log2(t) - bits + 1
    s = x - q  # t / 2**q = n * 2**s / d
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    m, rem = divmod(num, den)
    if not rem:
        return _canon(m, q), _ZERO
    if not floor and (2 * rem > den or (2 * rem == den and m & 1)):
        m += 1
    return _canon(m, q), (1, q if floor else q - 1, 1)


def _err_up(t: _Triple) -> _Triple:
    """Round an error bound up to 8 significant bits: -floor(-t), by ``_round_sig``."""
    if t[0] < 0:
        raise ValueError("error bounds must be nonnegative")
    return _neg(_round_sig(_neg(t), 8, floor=True)[0])


def _round(value: _Triple, bits: int, err: _Triple,
           floor: bool = False) -> "BoundedReal":
    """The rounding behind real_from_rational, on triples."""
    check_precision(bits)
    rounded, cap = _round_sig(value, bits, floor)
    return BoundedReal._make(rounded, _err_up(_add(err, cap)), bits)


# ----------------------------------------------------------------------
# BoundedReal
# ----------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class BoundedReal:
    """A dyadic approximation plus a rigorous absolute error bound.

    ``value`` has about ``precision_bits`` significant bits, and
    ``|value - truth| <= abs_error`` for the real number the instance
    stands for.  Both are read out of canonical triples (module docstring),
    so equal balls have equal fields, and each read, the interval view's
    included, is a Fraction in lowest terms.  Instances are immutable and
    hashable.  The constructor takes an int or a Fraction for each;
    anything else, another ball included, raises TypeError.  It refuses a
    precision below MIN_PRECISION_BITS, as every rounding does.
    """

    _v: _Triple
    _e: _Triple
    precision_bits: int

    def __init__(self, value: _RationalLike, abs_error: _RationalLike,
                 precision_bits: int) -> None:
        if not (isinstance(value, (int, Fraction))
                and isinstance(abs_error, (int, Fraction))):
            raise TypeError("a BoundedReal is built from ints and Fractions")
        if abs_error < 0:
            raise ValueError("abs_error must be nonnegative")
        check_precision(precision_bits)
        # both in lowest terms, so their triples are canonical.  A frozen
        # dataclass: fields are written once, through __dict__
        self.__dict__.update(_v=_triple(value), _e=_triple(abs_error),
                             precision_bits=precision_bits)

    @classmethod
    def _make(cls, value: _Triple, err: _Triple, bits: int) -> "BoundedReal":
        self = object.__new__(cls)
        self.__dict__.update(_v=value, _e=err, precision_bits=bits)
        return self

    @property
    def value(self) -> Fraction:
        return _fraction(self._v)

    @property
    def abs_error(self) -> Fraction:
        return _fraction(self._e)

    def __repr__(self) -> str:
        # Fraction's repr goes through str(), which stops at the int-to-str
        # digit limit; Decimal prints an int of any length
        def frac(r: Fraction) -> str:
            return f"Fraction({Decimal(r.numerator)}, {Decimal(r.denominator)})"
        return (f"BoundedReal(value={frac(self.value)}, abs_error={frac(self.abs_error)}, "
                f"precision_bits={self.precision_bits!r})")

    # -- interval view -------------------------------------------------

    def lower(self) -> Fraction:
        return _end(self._v, _neg(self._e))

    def upper(self) -> Fraction:
        return _end(self._v, self._e)

    def overlaps(self, other: "BoundedReal") -> bool:
        """Whether |v1 - v2| <= e1 + e2: the sign of one triple, no Fraction."""
        gap = _add(_add(self._e, other._e), _neg(_abs(_add(self._v, _neg(other._v)))))
        return gap[0] >= 0

    # no arithmetic: every kernel rounds through real_from_rational.  The
    # names stay bound only because bench/tracing.py wraps each by name
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = \
        __truediv__ = __neg__ = None

    def __str__(self) -> str:
        return (f"{format_decimal(self.value, self.abs_error)} ± "
                f"{format_bound(self.abs_error)}")


def real_from_rational(r: Union[_RationalLike, Ratio], precision_bits: int,
                       err: Union[_RationalLike, Ratio] = 0,
                       floor: bool = False) -> BoundedReal:
    """Round r to `precision_bits` significant bits, carrying error `err`.

    This is the only place where an exact rational becomes a BoundedReal
    value.  `err` bounds the distance from r to the true quantity the
    result stands for; the rounding cap is added to it and the sum is
    rounded up to 8 significant bits, so |value - truth| <= abs_error.
    Rounding is to nearest (ties to even), or downward (value <= r) with
    `floor`.  With err = 0 and nearest rounding, |value - r| <= abs_error
    <= 2**(1-precision_bits) * |r|, and abs_error = 0 whenever r is
    representable at that precision.  r and err may be unreduced Ratios,
    the pairs the kernels build: the rounding reads only their values.
    """
    return _round(_triple(r), precision_bits, _triple(err), floor)


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


@lru_cache(maxsize=16)
def pi_constant(precision_bits: int) -> BoundedReal:
    """pi with |value - pi| <= abs_error <= 2**(4 - precision_bits).

    Uses the Machin identity pi = 16*arctan(1/5) - 4*arctan(1/239) with 32
    guard bits; deterministic for a given precision.
    """
    check_precision(precision_bits)
    shift = precision_bits + 32
    a5, e5 = _atan_recip_scaled(5, shift)
    a239, e239 = _atan_recip_scaled(239, shift)
    return _round((16 * a5 - 4 * a239, -shift, 1), precision_bits,
                  (16 * e5 + 4 * e239, -shift, 1))
