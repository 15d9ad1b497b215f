"""Shared independent oracles for the test suite.

Everything here is deliberately written from scratch against the library
under test: different formulas where possible (a different arctangent
decomposition for pi), plain Fraction loops with their own tail bounds
elsewhere.  Each oracle returns a (lower, upper) rational bracket that
provably contains the target.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Rounded
from fractions import Fraction
from typing import NamedTuple

from cosprod.analytic import _GUARD_BITS, DomainError, LambdaEstimate, _coefficient_tail
from cosprod.arith import BoundedReal, PrecisionError, Ratio, pi_constant, real_from_rational
from cosprod.recurrence import lambda_coefficients

# str() of an int past this many digits raises ValueError.  640 is the least
# limit Python accepts, so any package code that renders a big int through
# str() fails every test that reaches it.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)


def atan_recip_bracket(q: int, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket of arctan(1/q) from the alternating series, exact rationals."""
    total = Fraction(0)
    sign = 1
    for k in range(terms):
        total += Fraction(sign, (2 * k + 1) * q ** (2 * k + 1))
        sign = -sign
    leftover = Fraction(1, (2 * terms + 1) * q ** (2 * terms + 1))
    if sign > 0:
        return total, total + leftover
    return total - leftover, total


def pi_bracket(terms: int = 60) -> tuple[Fraction, Fraction]:
    """pi from pi/4 = arctan(1/2) + arctan(1/3) (not the formula under test)."""
    lo2, hi2 = atan_recip_bracket(2, terms)
    lo3, hi3 = atan_recip_bracket(3, terms)
    return 4 * (lo2 + lo3), 4 * (hi2 + hi3)


def ln_bracket(r: Fraction, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Bracket of ln(r) for rational r > 0 via ln(r) = 2 atanh((r-1)/(r+1)).

    All series terms share one sign pattern: atanh(u) = sum u^(2k+1)/(2k+1)
    with remainder below |u|^(2T+1) / ((2T+1)(1 - u^2)).  With u = a/b the
    T terms are summed as integers over one denominator, b^(2T-1) times
    lcm(1, 3, ..., 2T-1), so that only the final Fraction takes a gcd.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ln oracle needs a positive rational")
    u = (r - 1) / (r + 1)
    a, b = u.numerator, u.denominator
    lcm = math.lcm(*range(1, 2 * terms, 2))
    num, power = 0, a  # power = a^(2k+1); num gains a factor b^2 a term
    for k in range(terms):
        num = num * b * b + power * (lcm // (2 * k + 1))
        power *= a * a
    total = Fraction(num, b ** (2 * terms - 1) * lcm)
    rem = abs(u) ** (2 * terms + 1) / ((2 * terms + 1) * (1 - u * u))
    if u >= 0:
        return 2 * total, 2 * (total + rem)
    return 2 * (total - rem), 2 * total


def sqrt_bracket(r: Fraction, bits: int = 200) -> tuple[Fraction, Fraction]:
    """Dyadic bracket of sqrt(r) for rational r >= 0 via integer isqrt."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("sqrt oracle needs a nonnegative rational")
    scale = 1 << bits
    root = math.isqrt(r.numerator * r.denominator * scale * scale)
    lo = Fraction(root, r.denominator * scale)
    hi = Fraction(root + 1, r.denominator * scale)
    return lo, hi



def contains(ball, r) -> bool:
    """Whether the rational r lies in the interval of a BoundedReal."""
    return ball.lower() <= Fraction(r) <= ball.upper()


def tangent_numbers(m_max: int) -> list[int]:
    """T_1..T_m_max (1, 2, 16, 272, ...) by the Knuth-Buckholtz scheme.

    A linear, in-place recursion over integers (Math. Comp. 21, 1967; see
    Brent & Harvey, arXiv:1108.0286), independent of the quadratic
    recurrence under test.  [x^(2m-1)] tan x = T_m / (2m-1)!.
    """
    t = [0] * (m_max + 1)
    t[1] = 1
    for k in range(2, m_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m_max + 1):
        for j in range(k, m_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


@functools.lru_cache(maxsize=None)
def _tangent_prefix(m_max: int) -> tuple[int, ...]:
    return tuple(tangent_numbers(m_max))


def coefficient_sums_exact(x: Fraction, orders) -> dict[int, tuple[int, int]]:
    """sum_{m<=M} c_m x^(2m) / m for each M in orders, as unreduced (num, den).

    c_m = T_m / (2 (2m-1)!) with T_m from ``tangent_numbers``, so no
    coefficient comes from the recurrence under test.  With x = p/q and
    K = (2M-1)! M, a multiple of every (2m-1)! m for m <= M, the sum is
    sum_m T_m p^(2m) q^(2M-2m) K / ((2m-1)! m), over 2 K q^(2M), with no
    gcd taken (as in ``coefficient_tail_exact``).
    """
    x = Fraction(x)
    p2, q2 = x.numerator ** 2, x.denominator ** 2
    tangents = _tangent_prefix(max(orders))
    sums = {}
    for order in orders:
        k = math.factorial(2 * order - 1) * order
        terms, fact = [], 1  # fact = (2m-1)!
        for m, t in enumerate(tangents[:order], start=1):
            terms.append(t * (k // (fact * m)))
            fact *= 2 * m * (2 * m + 1)
        num, q_pow = 0, 1  # Horner in p^2, from m = M down
        for a in reversed(terms):
            num = num * p2 + a * q_pow
            q_pow *= q2
        sums[order] = num * p2, 2 * k * q_pow
    return sums


def partial_products_exact(n: Fraction, counts) -> dict[int, Fraction]:
    """prod_{k<=N} (1 - 1/((2k-1)^2 n^2)) for each N in counts, exactly.

    One plain Fraction factor at a time, with no blocks and no floors.
    """
    n = Fraction(n)
    wanted = set(counts)
    total, products = Fraction(1), {}
    for k in range(1, max(wanted) + 1):
        total *= 1 - 1 / ((2 * k - 1) ** 2 * n * n)
        if k in wanted:
            products[k] = total
    return products


def product_log_tail_reference(n: Fraction, num_factors: int) -> Fraction:
    """The product's log-tail bound in three Fraction steps, as first written.

    sum_{k>N} a_k <= (qn/pn)^2 (1/o^2 + 1/(2o)), o = 2N + 1, by the first
    omitted term and the integral rest; divided by 1 - a_(N+1).
    """
    n = Fraction(n)
    odd = 2 * num_factors + 1
    sum_a = (1 / (n * n)) * (Fraction(1, odd**2) + Fraction(1, 2 * odd))
    a_first = 1 / (odd * odd * n * n)
    return sum_a / (1 - a_first)


def lambda_direct_reference(m: int, num_terms: int,
                            precision_bits: int) -> LambdaEstimate:
    """lambda(2m)'s direct sum by a plain loop over k, one m alone.

    Sums floor(2^S / (2k-1)^(2m)), S = precision_bits + _GUARD_BITS, for
    k = 1..num_terms, stopping at the first zero term (the terms decrease),
    and builds the estimate as the package does: the total floored to
    precision_bits with num_terms ulps of error, and the tail bound
    1/o^(2m) + 1/(2 (2m-1) o^(2m-1)), o = 2 num_terms + 1, written out.
    """
    one = 1 << (precision_bits + _GUARD_BITS)
    total = 0
    for k in range(1, num_terms + 1):
        term = one // (2 * k - 1) ** (2 * m)
        if not term:
            break
        total += term
    odd = 2 * num_terms + 1
    return LambdaEstimate(
        num_terms=num_terms,
        value=real_from_rational(Ratio(total, one), precision_bits,
                                 Ratio(num_terms, one), floor=True),
        tail_bound=(Fraction(1, odd ** (2 * m))
                    + Fraction(1, 2 * (2 * m - 1) * odd ** (2 * m - 1))),
    )


def row_order_reference(n: Fraction, num_rows: int,
                        precision_bits: int) -> tuple[Fraction, Fraction]:
    """The row order's sum and the error carried into its rounding, row by row.

    Row k sums -log(1 - 1/x) = sum_j x^-j / j, x = ((2k-1) n)^2, in ulps of
    2^-S, S = precision_bits + _GUARD_BITS: the powers pw_j = floor(pw_(j-1)
    / x) from pw_0 = 2^S, each adding floor(pw_j / j) until pw_j = 0.  Each
    pass is counted drift + 1 ulps, drift = floor(x / (x - 1)) + 1 the cap
    on how far the floors let pw drift; the rest of the row, below drift x /
    (j (x - 1)) ulps at the first zero pw_j, is counted rounded up to a
    2^-16 ulp.  The rows past num_rows add ``product_log_tail_reference``.
    """
    n = Fraction(n)
    one = 1 << (precision_bits + _GUARD_BITS)
    total, ulps = 0, Fraction(0)
    for k in range(1, num_rows + 1):
        x = ((2 * k - 1) * n) ** 2
        drift = math.floor(x / (x - 1)) + 1
        pw, j = math.floor(one / x), 1
        while pw:
            total += pw // j
            ulps += drift + 1
            pw, j = math.floor(pw / x), j + 1
        ulps += Fraction(math.ceil(drift * x / (j * (x - 1)) * 2**16), 2**16)
    return Fraction(total, one), ulps / one + product_log_tail_reference(n, num_rows)


def coefficient_tail_exact(r: Fraction, order: int) -> tuple[int, int]:
    """(5/4) r^(M+1) / ((M+1)(1-r)), M = order, as an unreduced (num, den).

    With r = p/q this is 5 p^(M+1) / (4 (M+1) q^M (q-p)).  The pair is left
    unreduced: with r of thousands of bits and M in the hundreds, the powers
    have millions of bits, and a gcd of them would take far longer than the
    comparisons the tests make.
    """
    p, q = r.numerator, r.denominator
    return 5 * p ** (order + 1), 4 * (order + 1) * q**order * (q - p)


def neg_log_series_full_precision(x, order: int, precision_bits: int):
    """neg_log_product_series with every step rounded at precision_bits + 16.

    The reference for the working-precision cap: the same truncated sum
    and tail function (the package's ``_coefficient_tail``, which
    ``TestCoefficientTail`` checks against ``coefficient_tail_exact``), with
    nothing fitted to the accuracy of the tail.  It sums once, at the value
    of the ball x, and its domain check and input term are its own
    derivative bound: tan xi <= 10 xi / (pi^2 (1 - rho)) for |xi| <= x_up,
    rho = (2 x_up / pi)^2.  That is independent of the package, which
    brackets the sum between its values at the two ends of pi's ball.
    Each power and partial sum is a (value, error) pair of Fractions,
    rounded by ``combine_reference``.
    """
    work = precision_bits + 16
    pi_low = pi_constant(work).lower()
    x_up = abs(x.value) + x.abs_error
    if 2 * x_up >= pi_low:
        raise DomainError("the series requires |x| strictly below pi/2")
    x2 = round_reference(x.value * x.value, work)
    power, total = (1, 0), (0, 0)
    for m, c in enumerate(lambda_coefficients(order).coeffs, start=1):
        power = combine_reference(power, x2, work, product=True)
        total = combine_reference(
            total, combine_reference(power, (c / m, 0), work, product=True), work)
    r_up = 4 * x_up * x_up / (pi_low * pi_low)
    input_err = 10 * x_up * x.abs_error / (pi_low * pi_low * (1 - r_up))
    value, err = total
    return BoundedReal(*round_reference(value, precision_bits,
                                        err + _coefficient_tail(r_up, order) + input_err),
                       precision_bits)


def exp_full_precision(y, precision_bits: int):
    """exp by halving, Taylor and squaring, every step rounded at precision_bits + 16.

    The independent reference for exp_approx, which takes decimal's exp:
    the Taylor remainder 2 * (first omitted term) at |z| <= 1/2, the same
    input factor e / (1 - e), and nothing fitted to e.  Terms and sums are
    (value, error) pairs, rounded by ``combine_reference``.
    """
    if y.abs_error >= 1:
        raise PrecisionError("exp input uncertainty must be below 1")
    halvings = 0
    while abs(y.value) * 2 > (1 << halvings):
        halvings += 1
    work = precision_bits + 16 + 2 * halvings
    z = (y.value / (1 << halvings), 0)
    total = term = (1, 0)
    k = 0
    while abs(term[0]) + term[1] > Fraction(1, 2 ** (work + 8)):
        k += 1
        term = combine_reference(combine_reference(term, z, work, product=True),
                                 (Fraction(1, k), 0), work, product=True)
        total = combine_reference(total, term, work)
    remainder = 2 * (abs(term[0]) + term[1]) * abs(z[0]) / (k + 1)
    total = total[0], total[1] + remainder
    for _ in range(halvings):
        total = combine_reference(total, total, work, product=True)
    value, err = total
    input_err = (abs(value) + err) * y.abs_error / (1 - y.abs_error)
    return BoundedReal(*round_reference(value, precision_bits, err + input_err),
                       precision_bits)


def cos_full_precision(x, precision_bits: int):
    """cos by the plain Maclaurin series, every step rounded at precision_bits + 16.

    The reference for the halved cosine: no halving and no doubling, the
    same alternating-series remainder once the term ratio x^2 /
    ((2k+1)(2k+2)) is below 1 and the term below 2^-(precision_bits + 8),
    and the same input term |cos'| <= 1.  Terms and sums are (value, error)
    pairs, rounded by ``combine_reference``.
    """
    work = precision_bits + 16
    x2 = round_reference(x.value * x.value, work)
    x2_up = x2[0] + x2[1]
    total = term = (1, 0)
    k = 0
    while True:
        k += 1
        term = combine_reference(combine_reference(term, x2, work, product=True),
                                 (Fraction(1, (2 * k - 1) * (2 * k)), 0), work,
                                 product=True)
        sign = -1 if k % 2 else 1
        total = combine_reference(total, (sign * term[0], term[1]), work)
        ratio_den = (2 * k + 1) * (2 * k + 2)
        if (x2_up < ratio_den
                and abs(term[0]) + term[1] <= Fraction(1, 2 ** (precision_bits + 8))):
            break
    remainder = (abs(term[0]) + term[1]) * x2_up / ratio_den
    value, err = total
    return BoundedReal(*round_reference(value, precision_bits,
                                        err + remainder + x.abs_error),
                       precision_bits)


def _round_scaled(p: int, q: int, bits: int, mode: str) -> tuple[int, int, bool]:
    """p/q (q > 0) rounded to `bits` significant bits: (n, e, exact) for n 2^e.

    |p|/q = (a / b) 2^e with 2^(bits-1) <= a / b < 2^bits, e read off the bit
    lengths of p and q and checked by one integer comparison; a / b is
    rounded to an integer on the remainder of a // b: to nearest with ties
    to even (mode "even"), or toward -inf ("floor") or +inf ("ceiling") as
    the sign of p asks.  `exact` says the remainder was 0.  When b is a
    power of two, as it is for a dyadic p/q, a // b and its remainder are a
    shift and a mask.
    """
    if not p:
        return 0, 0, True
    a = abs(p)
    e = a.bit_length() - q.bit_length() - bits  # 2^(bits-1) < |p| / (q 2^e) < 2^(bits+1)
    a, b = (a, q << e) if e >= 0 else (a << -e, q)
    if a >= b << bits:
        e, b = e + 1, 2 * b
    if b & (b - 1):
        n, rem = divmod(a, b)
    else:
        n, rem = a >> (b.bit_length() - 1), a & (b - 1)
    if mode == "even":
        n += 2 * rem > b or (2 * rem == b and n % 2 == 1)
    elif rem and (mode == "ceiling") == (p > 0):
        n += 1
    return (n if p > 0 else -n), e, not rem


class _LowestTermsPair(NamedTuple):
    """numerator / denominator, known to be in lowest terms.

    Registered as a numbers.Rational, so that Fraction(r) copies the two
    fields of a ``_LowestTerms`` r, as it does for any Rational r, and takes
    no gcd.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_LowestTermsPair)


class _LowestTerms(_LowestTermsPair):
    """The pair the Fractions are built from, a subclass of the registered
    one, which isinstance(r, Rational) caches after one check, as it never
    caches a registered class itself (as ``cosprod.arith._Coprime``)."""

    __slots__ = ()


def _dyadic(n: int, e: int) -> Fraction:
    """n 2^e as a Fraction, brought to lowest terms by n's trailing zeros."""
    if e >= 0 or not n:
        return Fraction(n << max(e, 0))
    k = min((n & -n).bit_length() - 1, -e)  # 2^k divides n and 2^-e
    return Fraction(_LowestTerms(n >> k, 1 << (-e - k)))


def round_reference(r, bits: int, err=0,
                    floor: bool = False) -> tuple[Fraction, Fraction]:
    """(value, abs_error) that real_from_rational(r, bits, err, floor) must give.

    The definition, restated on numerators and denominators
    (``_round_scaled``): scale |r| by a power of two into [2^(bits-1),
    2^bits) and round the scaled value to an integer, to nearest with ties
    to even, or down with `floor`.  The cap on the rounding is half a
    quantum 2^e (a full one with `floor`), and 0 when the rounding is
    exact.  err + cap is then rounded up to 8 significant bits.  r and err
    are ints, Fractions or unreduced Ratios, as real_from_rational takes.
    """
    n, e, exact = _round_scaled(r.numerator, r.denominator, bits,
                                "floor" if floor else "even")
    en, ed = err.numerator, err.denominator
    if not exact:  # err + 2^c, c = e - 1 to nearest and e with floor
        c = e - (not floor)
        en, ed = (en + (ed << c), ed) if c >= 0 else ((en << -c) + ed, ed << -c)
    m, k, _ = _round_scaled(en, ed, 8, "ceiling")
    return _dyadic(n, e), _dyadic(m, k)


def _split(r) -> tuple[int, int, int]:
    """(n, d, k) with r = n / (d 2^k) and d odd: r's denominator as an exponent."""
    n, d = r.numerator, r.denominator
    k = (d & -d).bit_length() - 1
    return n, d >> k, k


def combine_reference(a, b, bits: int,
                      product: bool = False) -> tuple[Fraction, Fraction]:
    """a + b, or a * b with `product`, rounded to `bits` by ``round_reference``.

    a and b are (value, error) pairs of rationals, an exact r being (r, 0).
    The error carried into the rounding bounds the distance to the true
    result: e_a + e_b for the sum, |v_a| e_b + |v_b| e_a + e_a e_b for the
    product.  Both are formed as unreduced numerators over a common
    denominator, as a Fraction would reduce them by a gcd at each step; the
    powers of two in the denominators are kept as exponents and the
    numerators shifted to the largest, so that only odd parts multiply.
    The package combines no two balls; this is the ball-by-ball rounding
    that the references above and a few tests step through.
    """
    (na, da, ka), (nb, db, kb) = _split(a[0]), _split(b[0])
    (fa, ga, ja), (fb, gb, jb) = _split(a[1]), _split(b[1])
    if product:
        value = Ratio(na * nb, da * db << (ka + kb))
        top = max(ka + jb, kb + ja, ja + jb)
        err = Ratio((abs(na) * fb * db * ga << (top - ka - jb))
                    + (abs(nb) * fa * da * gb << (top - kb - ja))
                    + (fa * fb * da * db << (top - ja - jb)),
                    da * db * ga * gb << top)
    else:
        top, low = max(ka, kb), max(ja, jb)
        value = Ratio((na * db << (top - ka)) + (nb * da << (top - kb)), da * db << top)
        err = Ratio((fa * gb << (low - ja)) + (fb * ga << (low - jb)), ga * gb << low)
    return round_reference(value, bits, err)


def floor_log10(x: Fraction) -> int:
    """Largest e with 10**e <= x, for rational x > 0, by exact comparison."""
    x = Fraction(x)
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 3 // 10
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def round_half_up(x: Fraction, digits: int) -> Fraction:
    """x rounded to `digits` significant decimal digits, ties away from zero."""
    x = Fraction(x)
    if x == 0:
        return x
    quantum = Fraction(10) ** (floor_log10(abs(x)) + 1 - digits)
    rounded = math.floor(abs(x) / quantum + Fraction(1, 2)) * quantum
    return rounded if x > 0 else -rounded


def decimal_digits(num: int, den: int, places: int) -> str:
    """Decimal expansion of num/den (0 < num < den) by long division."""
    digits = []
    rem = num
    for _ in range(places):
        rem *= 10
        digits.append(str(rem // den))
        rem %= den
    return "".join(digits)


def to_digits_reference(p: int, q: int, digits: int,
                        rounding: str) -> tuple[Decimal, bool]:
    """p/q rounded to `digits` significant digits, and decimal's Rounded flag.

    The renderer as first written: one decimal division of the whole
    numerator by the whole denominator, with no pre-scaling.
    """
    ctx = Context(prec=digits, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)
    quotient = ctx.divide(Decimal(p), Decimal(q))
    return ctx.normalize(quotient), bool(ctx.flags[Rounded])
