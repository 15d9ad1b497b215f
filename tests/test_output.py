"""Seeded properties of the number rendering, against the conftest oracles.

Each printed string is parsed back with ``Fraction(text)``, so the checks
hold whatever the rendering does inside.  The inputs reach 4096-bit
numerators and exponents down to 2**-4200, with exact ties, carries to the
next power of ten, bounds at exact powers of ten below the value, and
exact values on both sides of the 36-digit limit.
"""

import random
from fractions import Fraction as F

from conftest import floor_log10, round_half_up
from cosprod.output import format_bound, format_decimal, format_rational

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
