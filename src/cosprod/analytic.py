"""Error-bounded numerical verification of the cosine product identity.

Everything here evaluates one of the three routes to the same number,

    product route:  P(n) = prod_{k>=1} (1 - 1/((2k-1)^2 n^2)), truncated,
                    with a rigorous bound on the logarithm of the omitted
                    factors;
    series route:   exp(-L(x)) with L(x) = sum_m c_m x^(2m) / m evaluated at
                    x = pi/(2n), truncated with a geometric tail bound;
    cosine route:   cos at pi/(2n) by argument halving, the versine
                    series summed by rectangular splitting with its
                    alternating-series remainder, and doubling back by
                    squaring,

or one of their ingredients (the odd-reciprocal power sums lambda(2m), the
elementary functions cos and decimal's correctly rounded exp).  The direct
sums of lambda(2m) for m = 1..M come from one pass over k
(``lambda_direct_table``), which divides a running quotient by (2k-1)^2
once per m: floors by positive integers nest, so every m sums the floored
terms floor(2^S / (2k-1)^2m).  All heavy summations, the coefficient
series, and the cosine's series and doublings run in scaled-integer
arithmetic with floor divisions, so every intermediate is exact and the
accumulated rounding is counted in ulps, except the powers c_m x^(2m)
behind the series and the closed forms lambda(2m) = c_m (pi/2)^(2m), which
one chain rounds down at the low end of x and up at the high end, so they
need no count; the product multiplies blocks of _PRODUCT_BLOCK factors
exactly in small integers and floors once per block, so it counts one ulp
per block.  The column order of the rearrangement is one exact rational
sum.  Every tail is bounded by an integral or geometric comparison that is
stated at the point of use; the series route takes its tail at the exact
ratio r = 1/n^2, as the rearrangement's column order does, and encloses its
sum at pi/2n between its sums at the two ends of pi's ball.  Each result is
built from its scaled integer or exact rational by
:func:`~cosprod.arith.real_from_rational`, which rounds it to the requested
precision and adds the carried error to the rounding cap, so the
:class:`~cosprod.arith.BoundedReal` intervals are sound by construction.
Two ball operators are reached, each in one place: ``cos_half_pi_over``
scales pi's ball to pi/2n with ``BoundedReal.__mul__``, for
``verify_identity`` and the CLI's product, and ``verify_identity`` negates
the series for exp with ``BoundedReal.__neg__``.  No other route reaches
one; the series scales pi's two ends to pi/2n itself, each rounded outward.

Precision follows accuracy: the product and series routes need only as
many bits as their truncation tails leave, and exp only as many as its
input's error leaves, so all three work at ``_working_bits``, at most
_GUARD_BITS past that accuracy (Arb does the same, arXiv:1611.02831).
``verify_identity`` takes the product once, at its last factor, and caps
its bits at the requested precision; ``product_trace`` keeps every
snapshot at full precision.  The product's and the series' counts and
decimal's exp are sound at any precision, so the working precision moves
only the width: the extra rounding is a small multiple of 2^-_GUARD_BITS
of the error the result already carries, which the 8-bit round-up of that
error absorbs.  The cosine route has to deliver every requested bit, so it
works at precision_bits + 16 + 6: it halves its argument h times, h =
2h' for the least h' with 4 h'^3 >= work, so that the about 2 sqrt K
full-width products of its K-term series balance the h squarings, and
doubles back through the versine on one fixed point of work + 2h + 8 bits,
whose 2h bits absorb the 4^h growth of the count (``cos_approx``).

Tail-bound inventory (N terms kept, all terms positive and decreasing):

    sum_{j>=N} (2j+1)^(-2m)
        <= (2N+1)^(-2m) + integral_N^inf (2u+1)^(-2m) du
        =  (2N+1)^(-2m) + (2N+1)^(1-2m) / (2(2m-1))

(the first omitted term plus the integral comparison for the rest), and
for the coefficient series the geometric bound of ``_coefficient_tail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import isqrt, lcm
from operator import floordiv
from typing import Iterator, Optional, Union

from .arith import (
    BoundedReal,
    DomainError,
    PrecisionError,
    Ratio,
    WorkBudgetError,
    check_precision,
    pi_constant,
    real_from_rational,
)
from .recurrence import check_table_size, lambda_coefficients

_RationalLike = Union[Fraction, int]

_GUARD_BITS = 32
# factors of the truncated product multiplied exactly before one floor
_PRODUCT_BLOCK = 16
# odd d per chunk of lambda_direct_table's pass: the chunk's quotients are
# all it holds, so the list of num_terms of them is never built
_LAMBDA_CHUNK = 256
# the work budgets.  Each loop whose length its arguments set (the rows,
# lambda_direct_table's divisions, the product's factors) estimates its
# passes before any work and charges each _PASS_BITS + the bits it works
# on; past its budget it raises WorkBudgetError (``_over_budget``).  A row
# pass costs about c0 (1 + shift / 256), c0 = 0.15 us, a fit within 10% of
# passes timed at shifts 40, 160, 4128 and 16,416 (0.16, 0.24, 2.6 and 9.9
# us, Python 3.11); a division of the table costs no more at its shift,
# and a factor of the product about what ``_factor_bits`` charges or less.  The
# rows and the product have _MAX_WORK: 2^20 passes at 128 bits (shift
# 160), about 0.25 s at any precision.  With one row, the n nearest 1 it
# admits is 73681/73680 at 8 bits, 13105/13104 at 128, 47/46 at 4096 and
# 3/2 at 16,384; at n = 3 and 128 bits it admits 30,000 rows and refuses
# 40,000
_PASS_BITS = 256
_MAX_WORK = (_PASS_BITS + 160) << 20
# lambda_direct_table's budget, about 1 s: its pass over 10^6 terms to m = 3
# at 128 bits, which the acceptance criteria run, takes 0.46 s
_MAX_TABLE_WORK = 4 * _MAX_WORK


def _over_budget(passes: int, bits: int, budget: int, what: str,
                 advice: str) -> WorkBudgetError:
    """The refusal of `passes` charged _PASS_BITS + `bits` each, past `budget`."""
    return WorkBudgetError(
        f"{what} may take up to 2^{passes.bit_length()} passes, each charged "
        f"{_PASS_BITS} + {bits} bits, over the budget of {budget >> 20} * 2^20 "
        f"bits; {advice}")


def _working_bits(precision_bits: int, err: Fraction) -> int:
    """Working precision for a result that already carries the error err.

    precision_bits + 16 when err = 0; otherwise at most acc + _GUARD_BITS,
    acc = floor(-log2 err) (0 when err >= 1): the bits the result can
    carry at all, and a guard that keeps the rounding far below err.
    """
    work = precision_bits + 16
    if err:
        num, den = err.numerator, err.denominator
        acc = den.bit_length() - num.bit_length()  # 2^(acc-1) < 1/err < 2^(acc+1)
        if (den < num << acc) if acc >= 0 else (den << -acc < num):
            acc -= 1
        work = min(work, max(acc, 0) + _GUARD_BITS)
    return work


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaEstimate:
    """The first ``num_terms`` terms of lambda(2m), with tail bound.

    ``value`` carries the summation/quantization rounding; ``tail_bound``
    bounds the omitted positive terms, so lambda(2m) lies in
    [value.lower(), value.upper() + tail_bound].  The scaled-integer kernel
    rounds downward, so ``value.value`` itself never exceeds lambda(2m).
    ``lambda_direct_table`` returns those of m = 1..M.
    """

    num_terms: int
    value: BoundedReal
    tail_bound: Fraction

    def bracket(self) -> tuple[Fraction, Fraction]:
        return self.value.lower(), self.value.upper() + self.tail_bound


@dataclass(frozen=True)
class PartialProductResult:
    """The product of the first ``num_factors`` factors, with log-tail bound.

    ``log_tail_bound`` dominates |log(true product) - log(partial)|; it is
    None only for n = 1, where the first factor (and the true value) is
    exactly zero and no logarithm exists.
    """

    num_factors: int
    value: BoundedReal
    log_tail_bound: Optional[Fraction]

    def total_bound(self) -> Fraction:
        """Bound on |value - true infinite product|.

        The true product is partial * exp(-tau) with 0 <= tau <=
        log_tail_bound, and 1 - exp(-tau) <= tau, so the tail contributes
        at most (partial upper bound) * log_tail_bound: e + U t.
        """
        e, t = self.value.abs_error, self.log_tail_bound
        return e if t is None else e + self.value.upper() * t

    def interval(self) -> tuple[Fraction, Fraction]:
        b = self.total_bound()
        return self.value.value - b, self.value.value + b


@dataclass(frozen=True)
class RearrangementReport:
    """Row-order and column-order sums of the same double sum.

    ``overlap`` is the verdict: two enclosures of -log of the product overlap.
    """

    row_sum: BoundedReal
    column_sum: BoundedReal
    overlap: bool


@dataclass(frozen=True)
class IdentityReport:
    """The product, series and cosine routes to cos(pi/2n), and the verdict.

    ``verdict`` is whether every pair of the three intervals overlaps.
    """

    product: BoundedReal
    log_series: BoundedReal
    cosine: BoundedReal
    verdict: bool


# ----------------------------------------------------------------------
# odd-reciprocal power sums
# ----------------------------------------------------------------------

def _odd_tail_bound(num_terms: int, power: int) -> Fraction:
    """Bound on sum_{j>=N} (2j+1)^(-p): first omitted term + integral rest."""
    odd = 2 * num_terms + 1
    return Fraction(1, odd**power) + Fraction(1, 2 * (power - 1) * odd ** (power - 1))


def lambda_direct(m: int, num_terms: int, precision_bits: int) -> LambdaEstimate:
    """lambda(2m)'s estimate alone: the last entry of ``lambda_direct_table``.

    No command calls it.  It stays, as this delegate only, because the
    benchmark's tracer (bench/tracing.py) wraps it by name; it goes once
    the tracer wraps ``lambda_direct_table`` instead.
    """
    return lambda_direct_table(m, num_terms, precision_bits)[-1]


def _table_passes(m_max: int, num_terms: int, shift: int) -> int:
    """Upper bound on the floor divisions of ``lambda_direct_table``'s pass.

    The odd d is divided at level m only if its quotient at level m - 1,
    floor(2^shift / d^(2m-2)), is not 0, and at most m_max times.  For d
    of b >= 2 bits, d^(2m-2) >= 2^(2(m-1)(b-1)), so that quotient is 0
    once 2(m-1)(b-1) > shift: at most shift // (2(b-1)) + 1 divisions.  d =
    1 takes m_max.  The odd d of b bits are counted by the ends of their
    range, so the bound costs one step per bit of the last d.
    """
    passes = m_max
    top = 2 * num_terms - 1  # the last d
    for b in range(2, top.bit_length() + 1):
        count = (min(1 << b, top + 1) - (1 << (b - 1))) // 2  # odd d of b bits
        passes += count * min(m_max, shift // (2 * (b - 1)) + 1)
    return passes


def lambda_direct_table(m_max: int, num_terms: int,
                        precision_bits: int) -> list[LambdaEstimate]:
    """The first num_terms terms of lambda(2m), m = 1..m_max, in one pass over k.

    With d = 2k - 1 and S = precision_bits + _GUARD_BITS, each term is
    floor(2^S / d^(2m)), so the total undershoots the exact partial sum by
    less than num_terms ulps, and the final quantization also rounds down:
    each interval [value - abs_error, value + abs_error + tail_bound]
    contains lambda(2m), and value itself is a certified lower bound.

    For positive integers floor(floor(a / b) / c) = floor(a / (b c)), so
    the quotients q_0 = 2^S, q_m = floor(q_(m-1) / d^2) are those terms:
    one division by d^2 a level in place of a power of d and a division by
    it.  The odd d are taken in chunks of _LAMBDA_CHUNK; each level maps
    the chunk's quotients through one floor division by its squares and
    sums them.  q_m falls as d or m grows, so past a level's first zero in
    a chunk every quotient of that level and of those above is 0: the
    level is cut there, and the next level, mapped over the shorter list,
    is cut with it.  A chunk whose first quotient at level m is 0 has only
    zeros at m and above in it and in every later chunk, so those levels
    stop for good: only zero terms are dropped.  One chunk of quotients is
    held at a time, never a list of num_terms of them.  An m_max past the
    table cap (``check_table_size``), or divisions (``_table_passes``) that
    could cost more than _MAX_TABLE_WORK, each charged _PASS_BITS + S, raise
    WorkBudgetError before any work.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if num_terms < 1:
        raise ValueError("num_terms must be at least 1")
    check_precision(precision_bits)
    check_table_size(m_max)
    shift = precision_bits + _GUARD_BITS
    passes = _table_passes(m_max, num_terms, shift)
    if passes * (_PASS_BITS + shift) > _MAX_TABLE_WORK:
        raise _over_budget(passes, shift, _MAX_TABLE_WORK,
                           "--m-max or --order, --num-terms or --rows, and "
                           "--precision ask too much of the direct sums: their "
                           "divisions", "take a lower --m-max or --order, fewer "
                           "--num-terms or --rows, or a lower --precision")
    one = 1 << shift
    totals = [0] * m_max
    live = m_max  # levels 0..live-1, m = level + 1, may still have terms
    end = 2 * num_terms  # past the last d
    for start in range(1, end, 2 * _LAMBDA_CHUNK):
        squares = [d * d for d in range(start, min(start + 2 * _LAMBDA_CHUNK, end), 2)]
        q = [one] * len(squares)
        for level in range(live):
            q = list(map(floordiv, q, squares))
            if not q[0]:
                live = level
                break
            if not q[-1]:  # else each level above divides the zeros again
                del q[q.index(0):]
            totals[level] += sum(q)
        if not live:
            break
    return [LambdaEstimate(
        num_terms=num_terms,
        value=real_from_rational(Ratio(total, one), precision_bits,
                                 Ratio(num_terms, one), floor=True),
        tail_bound=_odd_tail_bound(num_terms, 2 * m),
    ) for m, total in enumerate(totals, start=1)]


def closed_forms(m_max: int, precision_bits: int) -> list[BoundedReal]:
    """lambda(2m) = c_m (pi/2)^(2m) for m = 1..m_max, rounded at precision_bits + 16.

    c_m (pi/2)^(2m) increases with pi, so it lies between A_m and B_m of
    ``_coefficient_powers`` at the two ends of pi_constant(work) halved,
    work = precision_bits + 16, on one fixed point of S = precision_bits + 48
    bits.  Each result is their centre, with half their spread as its error.
    """
    work, shift = precision_bits + 16, precision_bits + 48
    pi = pi_constant(work)
    (lp, lq), (hp, hq) = pi.lower().as_integer_ratio(), pi.upper().as_integer_ratio()
    den = 2 << shift
    return [real_from_rational(Ratio(low + high, den), work, Ratio(high - low, den))
            for low, high in _coefficient_powers((lp, 2 * lq), (hp, 2 * hq), m_max, shift)]


# ----------------------------------------------------------------------
# the truncated product
# ----------------------------------------------------------------------

def _product_log_tail(n: Fraction, num_factors: int) -> Fraction:
    """Bound on sum_{k>N} -log(1 - a_k) with a_k = 1/((2k-1)^2 n^2).

    Uses -log(1-a) <= a/(1-a) <= a/(1 - a_first), a_first = 1/(o^2 n^2)
    with o = 2N + 1, and sum a_k <= ``_odd_tail_bound(N, 2)`` / n^2, so the
    bound is ``_odd_tail_bound(N, 2)`` / (n^2 - 1/o^2).  Requires n > 1 so
    that a_first < 1.
    """
    odd = 2 * num_factors + 1
    return _odd_tail_bound(num_factors, 2) / (n * n - Fraction(1, odd * odd))


def product_trace(n: _RationalLike, num_factors: int,
                  precision_bits: int) -> list[PartialProductResult]:
    """One left-to-right product pass, snapshotted after 1, 2, 4, ... factors.

    Snapshots double from 1 below num_factors; the last one is always at
    num_factors.  The pass is ``_partial_products`` over those marks.
    """
    n = Fraction(n)
    if n < 1:
        raise DomainError("the product requires n >= 1")
    if num_factors < 1:
        raise ValueError("num_factors must be at least 1")
    check_precision(precision_bits)
    marks = []
    c = 1
    while c < num_factors:
        marks.append(c)
        c *= 2
    marks.append(num_factors)

    if n == 1:
        # first factor is exactly zero; every partial product is exactly 0
        zero = BoundedReal(Fraction(0), Fraction(0), precision_bits)
        return [PartialProductResult(mark, zero, None) for mark in marks]
    return _partial_products(n, marks, precision_bits)


def _factor_bits(n: Fraction, num_factors: int, shift: int) -> int:
    """The bits ``_partial_products`` charges a factor, beside _PASS_BITS.

    w (shift + 4w) / 128 for a = (2k-1) pn of w bits at the last factor:
    a factor's share of its block's exact products, which grow as w^2, and
    of the block's floor of the running value, of shift bits, by them.  The
    charge was 0.9 to 1.5 times the time taken (Python 3.11) at 128 and
    4096 bits for numerators up to 333 bits, and 2 to 4 times for
    numerators of 3,300 to 16,600 bits, where Karatsuba's products gain.
    """
    width = 2 * ((2 * num_factors - 1) * n.numerator).bit_length()
    return width * (shift + 4 * width) // 128


def _partial_products(n: Fraction, marks: list[int],
                      precision_bits: int) -> list[PartialProductResult]:
    """The partial products at each of the increasing marks, for n > 1.

    With a = (2k-1) pn for n = pn/qn, the factor 1 - 1/((2k-1)^2 n^2) is the
    integer ratio (a^2 - qn^2) / a^2.  The factors are taken in blocks of
    up to _PRODUCT_BLOCK consecutive ones, each ending at a mark at the
    latest: the numerators and the denominators of a block are multiplied
    exactly, and the block is applied to the running value, scaled by
    2^(precision_bits + _GUARD_BITS), with a single floor division.  The
    running value therefore undershoots the exact partial product by at
    most one ulp per block (each block's ratio is at most 1, so floor
    errors never amplify), and every block holds at least one factor, so
    after k factors it is at most k ulps low.  At each mark it is floored
    to precision_bits with that count as its error, so the count is sound
    at any precision and however the marks group the blocks.  Factors
    that could cost more than _MAX_WORK, each charged _PASS_BITS +
    ``_factor_bits``, raise WorkBudgetError before any work.
    """
    shift = precision_bits + _GUARD_BITS
    bits = _factor_bits(n, marks[-1], shift)
    if marks[-1] * (_PASS_BITS + bits) > _MAX_WORK:
        raise _over_budget(marks[-1], bits, _MAX_WORK,
                           "--n, --num-factors and --precision ask too much of "
                           "the product: its factors", "take fewer --num-factors, "
                           "a lower --precision or an --n of fewer digits")
    pn2, qn2 = n.numerator ** 2, n.denominator ** 2
    acc = 1 << shift
    results = []
    k = 0
    for mark in marks:
        while k < mark:
            # one block: factors k+1..end, multiplied exactly, one floor
            end = min(k + _PRODUCT_BLOCK, mark)
            num = den = 1
            for odd in range(2 * k + 1, 2 * end, 2):
                a2 = odd * odd * pn2
                num *= a2 - qn2
                den *= a2
            acc = acc * num // den
            k = end
        # acc / 2^shift floored to precision_bits, with mark ulps of error,
        # read as Ratios: a Fraction of acc would cost a gcd of shift bits
        value = real_from_rational(Ratio(acc, 1 << shift), precision_bits,
                                   Ratio(mark, 1 << shift), floor=True)
        results.append(PartialProductResult(mark, value,
                                            _product_log_tail(n, mark)))
    return results


# ----------------------------------------------------------------------
# the coefficient series for -log of the product
# ----------------------------------------------------------------------

def _coefficient_tail(r: Fraction, order: int) -> Fraction:
    """Bound on sum_{m>order} lambda(2m) r^m / m for 0 <= r < 1.

    lambda(2m) <= lambda(2) = pi^2/8 < 5/4 (since pi^2 < 10), and
    1/m <= 1/(order+1), so the sum is at most the geometric series
    (5/4) r^(order+1) / ((order+1)(1-r)), taken exactly.
    """
    return Fraction(5, 4) * r ** (order + 1) / ((order + 1) * (1 - r))


def _coefficient_powers(lo: tuple[int, int], hi: tuple[int, int], order: int,
                        frac_bits: int) -> Iterator[tuple[int, int]]:
    """(A_m, B_m), m <= order: A_m <= 2^F c_m lo^(2m) and 2^F c_m hi^(2m) <= B_m.

    F = frac_bits, and lo and hi are (numerator, denominator) pairs.  By
    directed rounding (Moore, Interval Analysis, 1966) the low step
    floor(lo^2 2^F), chain P_m = floor(P_(m-1) step / 2^F) from P_0 = 2^F
    and term floor(P_m c_m) round down and the high ones up, so the bounds
    hold at any lo, hi and F.  The width: for x = lo or hi and y the
    larger of x^2 and its step over 2^F, each link's rounding moves the
    chain by under an ulp, which later links multiply by at most y, and the
    step, within 2^-F of x^2, moves 2^F x^(2m) by under m y^(m-1); so
    floor(A_m / m) and ceil(B_m / m) are less than c_m y^(m-1) + (1/m)
    sum_(i<m) c_m y^i + 1 ulps from 2^F c_m x^(2m) / m.  As c_m <= 1/2 and
    c_m (pi/2)^(2m-2) = lambda(2m) (2/pi)^2 <= 1/2, that is under 2 while
    y <= (pi/2)^2, and at lo = hi = x their sums are under 4 order ulps apart.
    """
    (lo_num, lo_den), (hi_num, hi_den) = lo, hi
    lo_step = (lo_num ** 2 << frac_bits) // lo_den ** 2
    hi_step = -(-(hi_num ** 2 << frac_bits) // hi_den ** 2)
    low = high = 1 << frac_bits
    for c in lambda_coefficients(order).coeffs:
        low = low * lo_step >> frac_bits
        high = -(-high * hi_step >> frac_bits)
        yield low * c.numerator // c.denominator, -(-high * c.numerator // c.denominator)


def neg_log_product_series(n: _RationalLike, order: int,
                           precision_bits: int) -> BoundedReal:
    """Evaluate sum_{m=1..order} c_m x^(2m) / m at x = pi/(2n), with a bound.

    This is the series whose exact sum is -log cos(pi/2n), the -log of the
    product, for n > 1; n <= 1 raises DomainError.  Its terms are
    c_m x^(2m) / m = lambda(2m) r^m / m with r = (2x/pi)^2 = 1/n^2 exactly,
    so the truncation tail is ``_coefficient_tail(1/n^2, order)``, the
    column order's own call.  An order past the table cap
    (``check_table_size``) raises WorkBudgetError before any work.  The
    result is sound for every n > 1, however near 1: there only its width
    suffers, and a ball whose error reaches 1 is exp's to refuse.

    Every term increases with x >= 0, so the truncated sum at pi/2n lies
    between S_lo, the sum of floor(A_m / m), and S_hi, that of
    ceil(B_m / m), ``_coefficient_powers`` at lo and hi, in ulps 2^-F: the
    ends of pi_constant(precision_bits + 16) times qn / (2 pn), n = pn/qn,
    read down and up at F + 64 bits, so that no square is of pi's width.
    The result is the centre of [S_lo, S_hi], with half its width plus the
    tail as its error.  This needs no bound on x, not even hi < pi/2.  Where
    hi reaches pi_lo / 2, n - 1 is below 2^-(p+12), p = precision_bits, as
    pi's ball at p + 16 bits is that narrow; so 1 - r < 2^-(p+11), and the
    tail exceeds 1 at every order up to the cap: the error is at least 1.

    The tail is known before the sums, which run on F = work + 2z bits:
    work = ``_working_bits(precision_bits, tail)``, at most G = _GUARD_BITS
    past floor(-log2 tail), and z = max(bitlen(den) - bitlen(num), 0) for
    lo = num/den before its reading, so 2^-z < 2 lo.  F moves only the
    width: the rounding, under 2 ulps a term per side while the high step
    is below (pi/2)^2 2^F, adds under 2 order 2^-F < 16 order 2^-work S to
    the error, as S = -log cos(pi/2n) >= lo^2 / 2.  Fitted to the tail,
    that is below order 2^(5-G) S tail, under 2^-18 of the tail for order
    40 and S < 8; at work = precision_bits + 16, below order 2^-11 of the
    final rounding cap, S 2^-(precision_bits+1) or more.  The 8-bit
    round-up of the result absorbs the first, growing the bound by one 2^-7
    step at most, and the second likewise up to order 16.
    """
    n = Fraction(n)
    if order < 1:
        raise ValueError("order must be at least 1")
    check_precision(precision_bits)
    if n <= 1:
        raise DomainError("the series requires n > 1; at n = 1 the product is exactly "
                          "0 = cos(pi/2) but the log-based route is undefined")
    check_table_size(order)
    pn, qn = n.numerator, n.denominator
    pi = pi_constant(precision_bits + 16)
    (lp, lq), (hp, hq) = pi.lower().as_integer_ratio(), pi.upper().as_integer_ratio()
    tail = _coefficient_tail(Fraction(qn * qn, pn * pn), order)
    zeros = max((2 * pn * lq).bit_length() - (lp * qn).bit_length(), 0)
    frac_bits = _working_bits(precision_bits, tail) + 2 * zeros
    read = frac_bits + 64
    lo = (lp * qn << read) // (2 * pn * lq), 1 << read
    hi = -(-(hp * qn << read) // (2 * pn * hq)), 1 << read
    terms = list(enumerate(_coefficient_powers(lo, hi, order, frac_bits), start=1))
    s_lo = sum(low // m for m, (low, _) in terms)
    s_hi = -sum(-high // m for m, (_, high) in terms)
    # [s_lo, s_hi] / 2^F: centre and half width, tail over 2^(F+1)
    den = tail.denominator << (frac_bits + 1)
    err = Ratio((tail.numerator << (frac_bits + 1))
                + (s_hi - s_lo) * tail.denominator, den)
    return real_from_rational(Ratio(s_lo + s_hi, 2 << frac_bits),
                              precision_bits, err)


# ----------------------------------------------------------------------
# elementary functions (cos, exp) with explicit remainders
# ----------------------------------------------------------------------

def _versine_terms(u: int, frac_bits: int, cutoff: int) -> int:
    """K, how many terms the versine series keeps, given U = floor(u 2^F).

    F = frac_bits, and the argument ``u`` is U.  K is the least integer
    >= 1 with (K + 1) a + cutoff < bitlen((2K+2)!), a = bitlen(U) - F.  As
    u < (U + 1) / 2^F <= 2^a and (2K+2)! >= 2^(bitlen - 1), the first
    omitted term u^(K+1) / (2K+2)! is then below 2^-cutoff.  The factorial
    grows by one step a term.
    """
    a = u.bit_length() - frac_bits
    terms, fact = 1, 24  # fact = (2K+2)!
    while (terms + 1) * a + cutoff >= fact.bit_length():
        terms += 1
        fact *= (2 * terms + 1) * (2 * terms + 2)
    return terms


def _versine_series(x: Fraction, halvings: int, frac_bits: int,
                    cutoff: int) -> tuple[int, int]:
    """(S, e) with |(1 - cos y) - S / 2^F| <= e / 2^F, y = x / 2^halvings.

    F = frac_bits >= cutoff >= 0.  u = y^2 is floored once to U / 2^F,
    which moves 1 - cos y by under half an ulp, as |d/du (1 - cos sqrt u)|
    <= 1/2.  Of 1 - cos y = t_1 - t_2 + ..., t_k = u^k / (2k)!, the first
    K = ``_versine_terms`` are kept, so t_(K+1) < 2^-cutoff <= 1.  The
    ratios t_(k+1) / t_k fall with k, and t_1 = u/2 >= 1 when u >= 2, so
    the terms decrease from t_(K+1) on, and the remainder is below
    t_(K+1): 2^(F - cutoff) ulps.

    The K terms are summed at U by rectangular splitting (Smith, Math.
    Comp. 52, 1989; Brent and Zimmermann, Modern Computer Arithmetic,
    4.4.3), in blocks of b = ceil(sqrt K): the powers P_i = floor(P_(i-1)
    U / 2^F), P_1 = U, up to W = P_b, then Horner in W from the last block
    down, one full-width product a block,

        R_j = floor((C_j + floor(W R_(j+1) / 2^F)) / D_j),  R_J = 0.

    Block j holds the terms k = jb+1 .. t, t = min(jb + b, K), D_j =
    (2jb+1) ... (2t), and C_j is the sum of +-P_(k-jb) (2k+1) ... (2t), +
    for odd k, so R_0 / 2^F is the K terms' sum but for the floors.  Each
    floor is counted in ulps.  P_i is low by less than d_i =
    ceil(d_(i-1) U / 2^F) + 1, d_1 = 0 (at most i - 1 while u < 1), so C_j
    is off by at most A_j, its coefficients times those d_i.  With R_(j+1)
    within e of its exact value, the product's floor is within B =
    floor((W e + d_b (|R_(j+1)| + e)) / 2^F) + 2 of its, and R_j within
    ceil((A_j + B) / D_j) + 1.  The remainder and U's floor add 2^(F -
    cutoff) and 1.
    """
    # U = floor(x^2 2^(F - 2h)).  Floors by positive integers nest, so the
    # power of two in x's denominator is a shift, and only its odd part,
    # 1 for the dyadic x of a ball, is divided by: no division by a square
    # of about 2F bits
    den = x.denominator
    zeros = (den & -den).bit_length() - 1
    shift = frac_bits - 2 * halvings - 2 * zeros
    u = (x.numerator ** 2 << max(shift, 0)) // (den >> zeros) ** 2 >> max(-shift, 0)
    terms = _versine_terms(u, frac_bits, cutoff)
    block = isqrt(terms - 1) + 1
    powers, lows = [u], [0]  # P_i and d_i
    for _ in range(block - 1):
        powers.append(powers[-1] * u >> frac_bits)
        lows.append(-(-lows[-1] * u >> frac_bits) + 1)
    w, w_low = powers[-1], lows[-1]
    r = err = 0
    for start in range(block * ((terms - 1) // block), -1, -block):
        top = min(start + block, terms)
        c = c_err = 0
        coeff = 1  # (2k+1) ... (2 top), and D_j once the block is done
        for k in range(top, start, -1):
            term = coeff * powers[k - start - 1]
            c += term if k % 2 else -term
            c_err += coeff * lows[k - start - 1]
            coeff *= (2 * k - 1) * (2 * k)
        product_err = ((w * err + w_low * (abs(r) + err)) >> frac_bits) + 2
        r = (c + (w * r >> frac_bits)) // coeff
        err = -(-(c_err + product_err) // coeff) + 1
    return r, err + (1 << (frac_bits - cutoff)) + 1


def _versine_doubled(s: int, err: int, frac_bits: int,
                     times: int) -> tuple[int, int]:
    """(S, e) for 1 - cos(2^times y), given them for v = 1 - cos y.

    Each step floors 1 - cos 2y = f(v) = 2 v (2 - v) at 2^-F, F = frac_bits,
    as 4 S - S^2 / 2^(F-1): the floor of S (2^(F+1) - S) / 2^(F-1), one
    square.  As v lies in [0, 2] and f(v) - f(v - d) = 4 (1 - v) d + 2 d^2,
    a step turns an error of e ulps into at most 4e + 2 e^2 / 2^F, and the
    floor adds one.
    """
    for _ in range(times):
        s = 4 * s + (-(s * s) >> (frac_bits - 1))
        err = 4 * err + 1 - (-2 * err * err >> frac_bits)
    return s, err


def cos_approx(x: BoundedReal, precision_bits: int) -> BoundedReal:
    """cos by argument halving, the versine series, and doubling back.

    All of it runs on one fixed point S / 2^F with an integer count e of
    ulps 2^-F, as the other scaled-integer kernels do.  work =
    precision_bits + 16 + 6; g = bitlen(floor |x|), so |x| < 2^g; h is
    twice the least integer h' with 4 h'^3 >= work, or g if that is more,
    which balances the series' 2 sqrt K full-width products against the h
    squarings (h = 8 at 128 bits, 22 at 4096 and 34 at 16,384); F = work +
    2h + 8.  ``_versine_series`` sums s = 1 - cos(x / 2^h) with its
    cutoff at one ulp, 2^-F, and counts its floors, its remainder and the
    floor of u = x^2 / 4^h.  ``_versine_doubled`` then applies s <- f(s) =
    2 s (2 - s), the exact identity 1 - cos 2y = 2 sin^2 y, h times.  Every
    true s lies in [0, 2], where |f'| <= 4, so the count goes e <- 4e + 1
    plus the second-order term 2 e^2 / 2^F; none of this asks |x| <= pi/2.
    c is rounded at precision_bits + 16 with that error, so that a cosine
    which is a short dyadic (cos(pi/3) = 1/2) usually comes out exact, and
    then at precision_bits with x's error, by |cos'| <= 1.

    Soundness rests on the count alone, at any F; F moves only the width.
    As h >= g, u < 1, so d_i <= i - 1, A_j / D_j < sum (i-1) / (2i)! <
    1/20 and B <= 4, and every D_j is 2 (b = 1, where B = 2) or at least
    24: each block's count is 2, and the series' 2 + 1 + 1 = 4.  While
    2h <= work, the doublings make that 4^h 4 + 2 (4^h - 1) / 3 < 5 4^h,
    so the 2h bits of F cancel the 4^h: 1 - S / 2^F is within 5
    2^-(work+8) = 5 2^-(precision_bits+30) of c, below 2^-7 of the final
    rounding cap, at least c 2^-(precision_bits+1), when c >= 2^-19; there
    the 8-bit round-up of the result absorbs it.  Nearer pi/2 the
    subtraction 1 - s cancels, as the plain Maclaurin sum of cos does, and
    the guard bits keep the bound no wider than that sum gives at
    precision_bits + 16.
    """
    check_precision(precision_bits)
    work = precision_bits + 16 + 6
    v = x.value
    if not v:  # cos 0 = 1 exactly, where the count would not be 0
        return real_from_rational(1, precision_bits, x.abs_error)
    g = (abs(v.numerator) // v.denominator).bit_length()
    half = 1
    while 4 * half ** 3 < work:
        half += 1
    halvings = max(2 * half, g)
    frac_bits = work + 2 * halvings + 8
    s, err = _versine_series(v, halvings, frac_bits, frac_bits)
    s, err = _versine_doubled(s, err, frac_bits, halvings)
    one = 1 << frac_bits
    c = real_from_rational(Ratio(one - s, one), precision_bits + 16, Ratio(err, one))
    return real_from_rational(c.value, precision_bits,
                              c.abs_error + x.abs_error)


def cos_half_pi_over(n: _RationalLike, precision_bits: int) -> BoundedReal:
    """cos(pi/2n), the product's limit, for a rational n > 0; exactly 0 at n = 1.

    Otherwise it is ``cos_approx`` at pi_constant(precision_bits + 16)
    times qn / (2 pn), n = pn/qn: the one place where pi's ball is scaled
    to pi/2n (the series scales pi's two ends on integers).
    """
    n = Fraction(n)
    if n == 1:
        return BoundedReal(0, 0, precision_bits)
    x = pi_constant(precision_bits + 16) * Fraction(n.denominator, 2 * n.numerator)
    return cos_approx(x, precision_bits)


def exp_approx(y: BoundedReal, precision_bits: int) -> BoundedReal:
    """exp from the stdlib's correctly rounded decimal exp, with a bound.

    At work = ``_working_bits(precision_bits, y.abs_error)`` bits, take
    d = floor(0.30103 work) + 2 digits, so 10^(1-d) < 2^-work.  At d digits
    ``Context.divide`` and ``Context.exp`` are correctly rounded (Python's
    ``decimal`` docs; Cowlishaw, General Decimal Arithmetic): y.value
    rounds to v_d, and r = exp(v_d) to within rho, half an ulp of r.  As
    e' = y.abs_error + |y.value - v_d| >= |t - v_d| for the true t,
    |exp(t) - r| <= rho + (r + rho) (exp(e') - 1) <= rho + (r + rho) e' /
    (1 - e'); e' >= 1 gives no bound and raises PrecisionError.  As
    rho < 2^-(work+1) r, it is below 2^-32 of r e' for an inexact input and
    below 2^-16 of the final rounding cap for an exact one (unless r is
    representable at precision_bits); the 8-bit round-up absorbs it.
    """
    check_precision(precision_bits)
    work = _working_bits(precision_bits, y.abs_error)
    digits = work * 30103 // 100000 + 2
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN,
                  Emax=MAX_EMAX)
    v = y.value
    v_d = ctx.divide(Decimal(v.numerator), Decimal(v.denominator))
    err = y.abs_error + abs(v - Fraction(v_d))
    if err >= 1:
        raise PrecisionError("exp input uncertainty must be below 1")
    r = ctx.exp(v_d)
    rho = Fraction(5) * Fraction(10) ** (r.adjusted() - digits)
    r = Fraction(r)
    return real_from_rational(r, precision_bits,
                              rho + (r + rho) * err / (1 - err))


# ----------------------------------------------------------------------
# rearrangement of the double sum
# ----------------------------------------------------------------------

def _row_passes(a: Fraction, shift: int) -> int:
    """Upper bound on the passes of a row's loop in rearrangement_check.

    For the row of x = a^2 (row k has a = (2k-1) n), the loop floors
    pw_j <= 2^shift / x^j, so pw is 0 once x^j > 2^shift: at most
    shift / log2 x + 1 passes.  For x >= 2, log2 x >= L = floor(log2 x)
    >= 1 makes that at most shift // L + 1.  Below 2, log2 x >= ln x >=
    (x-1)/x makes it at most shift * drift + 1, with drift = floor(x/(x-1))
    + 1 the row's drift cap.  The bound never grows with x.
    """
    p2, q2 = a.numerator ** 2, a.denominator ** 2
    log2_floor = (p2 // q2).bit_length() - 1
    if log2_floor >= 1:
        return shift // log2_floor + 1
    return shift * (p2 // (p2 - q2) + 1) + 1


def _power_sum(coeffs: list[Fraction], r: Fraction) -> Ratio:
    """sum_m c_m r^m, m = 1..M, exactly, with no gcd of a power of r.

    Over D, the least common denominator of the c_m (the lcm of their odd
    parts times their largest power of two), and r = p/q, the sum is
    A / (D q^M), A = sum_m (c_m D) p^m q^(M-m), which Horner's rule builds
    with one multiplication by q a term.  A sum of Fractions would take a
    gcd of about m bitlen(q) bits at the m-th term.
    """
    twos = max(c.denominator & -c.denominator for c in coeffs)
    den = twos * lcm(*(c.denominator // (c.denominator & -c.denominator)
                       for c in coeffs))
    p, q = r.numerator, r.denominator
    total, power = 0, 1
    for c in coeffs:
        power *= p
        total = total * q + c.numerator * (den // c.denominator) * power
    return Ratio(total, den * q ** len(coeffs))


def rearrangement_check(n: _RationalLike, num_rows: int, series_order: int,
                        precision_bits: int) -> RearrangementReport:
    """Sum the double array 1/(j ((2k-1)^2 n^2)^j) both ways, with bounds.

    Row order runs the inner geometric-log series per k (closed tail per
    row, plus a log-tail bound for the omitted rows); column order sums
    lambda estimates against powers of 1/n^2 (one ``lambda_direct_table``
    of num_rows terms for all series_order columns, with their tails, plus
    a geometric bound over the omitted columns).  Both intervals must
    contain -log of the true product, so they must overlap.  Rows whose
    loops could cost more than _MAX_WORK at this precision (passes
    times _PASS_BITS + shift) raise WorkBudgetError before any work,
    as does a series_order past the table cap, by the table's check.  Row 1
    is charged ``_row_passes`` at n and every later row, as x_k >= (3n)^2,
    ``_row_passes`` at 3n.
    """
    n = Fraction(n)
    if n <= 1:
        raise DomainError("rearrangement requires n > 1")
    if num_rows < 1 or series_order < 1:
        raise ValueError("num_rows and series_order must be at least 1")
    check_precision(precision_bits)

    shift = precision_bits + _GUARD_BITS
    steps = _row_passes(n, shift) + (num_rows - 1) * _row_passes(3 * n, shift)
    if steps * (_PASS_BITS + shift) > _MAX_WORK:
        raise _over_budget(steps, shift, _MAX_WORK,
                           "--n, --rows and --precision ask too much of the row "
                           "order: its rows", "take --n farther from 1, fewer "
                           "--rows or a lower --precision")
    # the columns' estimates, first, so that the table's cap comes before
    # any work
    columns = lambda_direct_table(series_order, num_rows, precision_bits + 16)
    one = 1 << shift
    pn, qn = n.numerator, n.denominator
    qn2 = qn * qn

    # --- row order: k-th row is -log(1 - 1/x_k) summed explicitly -------
    total = 0
    err_ulps = 0
    tail_units = 0  # the row tails, in units of 2^-16 ulp
    for k in range(1, num_rows + 1):
        den = ((2 * k - 1) * pn) ** 2   # x_k = den / qn2 > 1
        drift = den // (den - qn2) + 1  # floor-chain drift cap x/(x-1)
        pw = one * qn2 // den
        j = 1
        while pw:
            total += pw // j
            err_ulps += drift + 1
            pw = pw * qn2 // den
            j += 1
        # at exit x_k^-j < drift ulps, so the geometric rest of the row is
        # below drift x_k / (j (x_k - 1)) ulps, rounded up to a 2^-16 ulp
        tail_units += -(-(drift * den << 16) // (j * (den - qn2)))
    rows_tail = _product_log_tail(n, num_rows)
    row_sum = real_from_rational(
        Ratio(total, one), precision_bits,
        Fraction((err_ulps << 16) + tail_units, one << 16) + rows_tail)

    # --- column order: m-th column is lambda(2m) / (m n^2m) -------------
    # the columns' values and bounds (rounding plus tail), each over m,
    # summed exactly in powers of 1/n^2 and rounded once
    r = Fraction(qn2, pn * pn)
    col = _power_sum([est.value.value / m for m, est in enumerate(columns, start=1)], r)
    err = _power_sum([(est.value.abs_error + est.tail_bound) / m
                      for m, est in enumerate(columns, start=1)], r)
    tail = _coefficient_tail(r, series_order)
    col_sum = real_from_rational(col, precision_bits, Ratio(
        err.numerator * tail.denominator + tail.numerator * err.denominator,
        err.denominator * tail.denominator))

    return RearrangementReport(
        row_sum=row_sum,
        column_sum=col_sum,
        overlap=row_sum.overlaps(col_sum),
    )


# ----------------------------------------------------------------------
# the end-to-end identity
# ----------------------------------------------------------------------

def verify_identity(n: _RationalLike, num_factors: int, order: int,
                    precision_bits: int) -> IdentityReport:
    """Compare the product, series, and cosine routes at x = pi/(2n).

    Returns the three bound-carrying estimates and the verdict that all
    pairwise intervals overlap.  Each refusal comes once, from the first
    check that sees its cause, and all of them before the product and the
    cosine: the series raises DomainError for n <= 1 (at n = 1 the product
    is exactly 0 = cos(pi/2) but the logarithmic route is undefined) and
    WorkBudgetError for an order past the table cap, and exp raises
    PrecisionError for a series whose error reaches 1, as near n = 1 at
    too low an order or precision.

    The product's width is set by its log tail t = ``_product_log_tail``
    at num_factors = N, so only its final value is taken, by
    ``_partial_products`` at bits = min(precision_bits, work), work =
    ``_working_bits(precision_bits, t)``.  Its count is sound at any
    precision, so the bits move only the width.  Below precision_bits,
    bits = a + G with a = floor(-log2 t) and G = _GUARD_BITS, so
    t > 2^-(a+1); with U the product's upper end, the bound is e + U t, and
    the final floor adds at most 2^(1-bits) U < 2^(2-G) U t = 2^-30 U t to
    e, the N ulps of 2^-(bits+G) at most N 2^(1-2G) t = (N 2^-63 / U) U t:
    together under 2^-28 of U t while U >= N 2^-34 (U >= 2^-17 at 10^5
    factors, for n - 1 > 10^-5 or so), which the 8-bit round-up of the
    result absorbs, as it does the series' ulps.  The cap keeps the
    product's integers no longer than ``product_trace``'s; where it binds,
    as at low precision, where work reaches precision_bits + 16, the
    arithmetic is that of its last snapshot, with the blocks grouped for
    one mark, and the bound stays that snapshot's rather than tightening.
    """
    n = Fraction(n)
    if num_factors < 1:
        raise ValueError("num_factors must be at least 1")
    # the series route first: its refusals come before the product's work
    neg_log = neg_log_product_series(n, order, precision_bits + 8)
    log_series = exp_approx(-neg_log, precision_bits)
    bits = min(precision_bits,
               _working_bits(precision_bits, _product_log_tail(n, num_factors)))
    detail = _partial_products(n, [num_factors], bits)[0]
    # the value is already dyadic at this precision, so only the bound moves
    product = real_from_rational(detail.value.value, precision_bits,
                                 detail.total_bound())
    cosine = cos_half_pi_over(n, precision_bits)
    verdict = (product.overlaps(log_series)
               and product.overlaps(cosine)
               and log_series.overlaps(cosine))
    return IdentityReport(
        product=product,
        log_series=log_series,
        cosine=cosine,
        verdict=verdict,
    )
