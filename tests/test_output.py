"""Seeded properties of the number rendering, against the conftest oracles.

Each printed string is parsed back with ``Fraction(text)``, so the checks
hold whatever the rendering does inside.  The inputs reach 4096-bit
numerators and exponents down to 2**-4200, with exact ties, carries to the
next power of ten, bounds at exact powers of ten below the value, and
exact values on both sides of the 36-digit limit.
"""

import json
import random
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_UP
from fractions import Fraction as F
from math import factorial

from conftest import (floor_log10, pi_bracket, round_half_up, tangent_numbers,
                      to_digits_reference)
from cosprod import cli
from cosprod.arith import Ratio, real_from_rational
from cosprod.output import _to_digits, format_bound, format_decimal, format_rational

CASES = 2000


def _value(rng):
    sign = rng.choice((1, -1))
    kind = rng.randrange(6)
    if kind == 0:  # dyadic, as a BoundedReal value or error
        num = rng.getrandbits(rng.randint(1, 4096)) | 1
        return sign * F(num, 2 ** rng.randint(0, 4200))
    if kind == 1:
        return sign * F(rng.getrandbits(rng.randint(1, 300)) | 1,
                        rng.getrandbits(rng.randint(1, 300)) | 1)
    if kind == 2:  # an exact tie at some digit: d...d5 * 10^e
        k = rng.randint(1, 40)
        return sign * F(10 * rng.randrange(10 ** (k - 1), 10 ** k) + 5) * F(10) ** rng.randint(-60, 60)
    if kind == 3:  # rounds up to the next power of ten
        k = rng.randint(1, 40)
        return sign * F(10 ** k - rng.randint(1, 9)) * F(10) ** rng.randint(-60, 60)
    if kind == 4:  # exact, 35 to 38 significant digits
        k = rng.randint(35, 38)
        return sign * F(rng.randrange(10 ** (k - 1), 10 ** k)) * F(10) ** rng.randint(-50, 50)
    return F(0) if rng.random() < 0.1 else sign * F(rng.randint(1, 10**6), rng.randint(1, 10**6))


def _bound(rng, value):
    kind = rng.randrange(5)
    if kind == 0:
        return F(0)
    if kind == 1:  # certifies nothing
        return abs(value) * F(rng.randint(100, 300), 100) or F(1)
    if kind == 2:  # |value| / bound an exact power of ten
        return abs(value) / F(10) ** rng.randint(0, 60) or F(1)
    if kind == 3:  # an 8-bit dyadic error
        return F(rng.randint(128, 255)) * F(2) ** rng.randint(-4300, 40)
    return abs(value) * F(rng.randint(1, 999), 10 ** rng.randint(1, 50)) or F(1, 7)


def _cases(seed):
    rng = random.Random(seed)
    for _ in range(CASES):
        value = _value(rng)
        yield value, _bound(rng, value)


def test_value_is_rounded_half_up_at_the_certified_digit_count():
    for i, (value, bound) in enumerate(_cases(1)):
        if bound == 0:
            digits = 36
        elif bound >= abs(value):
            digits = 1
        else:
            digits = min(floor_log10(abs(value) / bound) + 2, 36)
        assert F(format_decimal(value, bound)) == round_half_up(value, digits), i


def test_bound_is_rounded_up_by_less_than_a_unit_in_its_second_digit():
    for i, (_, bound) in enumerate(_cases(2)):
        text = format_bound(bound)
        if bound == 0:
            assert text == "0"
            continue
        printed = F(text)
        assert bound <= printed < bound + F(10) ** (floor_log10(printed) - 1), i


def _printed_contract(value: str, bound: str) -> tuple[F, F]:
    """value ± (bound + half a unit in the value's last printed digit)."""
    mantissa, _, exponent = value.partition("e")
    half_unit = F(10) ** (int(exponent or 0) - len(mantissa.partition(".")[2])) / 2
    v, b = F(value), F(bound)
    return v - b - half_unit, v + b + half_unit


def test_a_printed_row_may_miss_value_plus_bound_but_not_the_contract(capsys):
    # coeffs --m-max 9 --precision 64 prints lambda(18) = c_9 (pi/2)^18 to a
    # last place of 1e-23 with a bound of 1.1e-23: the truth lies about
    # 1.8e-24 above value + bound, and within the half unit of 5e-24 past it
    argv = ["coeffs", "--m-max", "9", "--precision", "64", "--format", "json"]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["rows"][8]
    value, bound = row["lambda_2m"], row["lambda_bound"]
    assert (value, bound) == ("1.00000000258143755665976", "1.1e-23")
    c_9 = F(tangent_numbers(9)[-1], 2 * factorial(17))
    pi_lo, pi_hi = pi_bracket(200)
    truth_lo, truth_hi = c_9 * (pi_lo / 2) ** 18, c_9 * (pi_hi / 2) ** 18
    assert F(value) + F(bound) < truth_lo
    lo, hi = _printed_contract(value, bound)
    assert lo <= truth_lo and truth_hi <= hi


def test_a_balls_interval_lies_inside_its_printed_contract():
    # a ball printed as the commands print it, its value by format_decimal
    # and its error by format_bound
    rng = random.Random(8)
    for i in range(CASES):
        r = _value(rng)
        ball = real_from_rational(r, rng.choice((8, 9, 16, 53, 64, 128, 1024, 4096)),
                                  _bound(rng, r), rng.random() < 0.3)
        lo, hi = _printed_contract(format_decimal(ball.value, ball.abs_error),
                                   format_bound(ball.abs_error))
        assert lo <= ball.lower() and ball.upper() <= hi, i


def test_unreduced_ratios_print_as_their_fractions():
    rng = random.Random(6)
    for i, (value, bound) in enumerate(_cases(6)):
        g, h = (rng.choice((1, 1 << rng.randint(1, 300), rng.getrandbits(200) | 1))
                for _ in range(2))
        v = Ratio(value.numerator * g, value.denominator * g)
        b = Ratio(bound.numerator * h, bound.denominator * h)
        assert format_decimal(v, b) == format_decimal(value, bound), i
        assert format_bound(b) == format_bound(bound), i


def test_exact_values_of_at_most_36_digits_print_exactly():
    rng = random.Random(3)
    for i in range(CASES):
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            k = rng.randint(1, 36)
            value = F(rng.randrange(10 ** (k - 1), 10 ** k)) * F(10) ** rng.randint(-80, 80)
        else:  # 2^-20 has 20 significant digits
            value = F(rng.randrange(1, 2 ** 16), 2 ** rng.randint(0, 20))
        assert F(format_decimal(sign * value, F(0))) == sign * value, i


def test_rational_past_the_int_to_str_digit_limit():
    text = format_rational(F(10**4400 + 1, 3))
    assert len(text) == 4403
    assert text == "1" + "0" * 4399 + "1/3"


def _ratio(rng):
    """An unreduced p/q of one of the kinds the pre-scaling has to get right.

    Values past binary exponent 2^18 have their own test below.
    """
    kind = rng.randrange(6)
    if kind == 0:  # a 4,100-bit dyadic ball end
        p, q = rng.getrandbits(4100) | 1, 1 << rng.randint(0, 4200)
    elif kind == 1:  # exact, with zeros past the digits kept: 10^40 is one
        p, q = rng.randrange(1, 10 ** rng.randint(1, 37)) * 10 ** rng.randint(0, 60), 1
        if rng.random() < 0.5:
            q = 10 ** rng.randint(0, 120)
    elif kind == 2:  # an exact tie at some digit, above and below 1
        k = rng.randint(1, 36)
        p = 10 * rng.randrange(10 ** (k - 1), 10 ** k) + 5
        p, q = (p * 10 ** rng.randint(0, 40), 1) if rng.random() < 0.5 else (p, 10 ** rng.randint(0, 80))
    elif kind == 3:  # wide numerator and denominator, neither a power of two
        p, q = rng.getrandbits(rng.randint(1, 4200)) | 1, rng.getrandbits(rng.randint(1, 4200)) | 1
    elif kind == 4:  # zero, over any denominator
        p, q = 0, rng.randint(1, 10 ** 6)
    else:  # small, with a common factor left in
        g = rng.randint(1, 10 ** 6)
        p, q = rng.randint(1, 10 ** 9) * g, rng.randint(1, 10 ** 9) * g
    return (p if rng.random() < 0.5 else -p), q


def test_pre_scaled_digits_and_flag_match_one_full_division():
    rng = random.Random(4)
    for i in range(CASES):
        p, q = _ratio(rng)
        digits = rng.choice((1, 2, rng.randint(1, 36), 36))
        for rounding in (ROUND_HALF_UP, ROUND_FLOOR, ROUND_CEILING):
            want = to_digits_reference(p, q, digits, rounding)
            got = _to_digits(p, q, digits, rounding)
            assert (got, str(got[0])) == (want, str(want[0])), (i, p, q, digits, rounding)


def test_pre_scaling_past_binary_exponent_two_to_the_18():
    # 0.30102 bounds t log10 2 from below only for t >= 0; at t = -2^18 it
    # would put e two or three digits too high.  The reference converts numbers of
    # 80,000 digits, so these cases are few.
    rng = random.Random(5)
    for i in range(3):
        e = rng.randint(2 ** 18, 2 ** 18 + 2 ** 12)
        m = rng.getrandbits(rng.randint(8, 64)) | 1
        p, q = (m, 1 << e) if i < 2 else (m << e, 1)
        p = -p if i == 1 else p
        for rounding in (ROUND_HALF_UP, ROUND_FLOOR, ROUND_CEILING):
            want = to_digits_reference(p, q, 36, rounding)
            got = _to_digits(p, q, 36, rounding)
            assert (got, str(got[0])) == (want, str(want[0])), (i, e, rounding)

