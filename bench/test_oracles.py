"""Tests of the benchmark's own oracles and of how it reads cosprod's output.

    python3 -m pytest bench
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (Oracles, certified_bits, cos_bracket, log_bracket,
                     pi_bracket, tangent_numbers)
from workloads import bound_bits, parse_table, printed_interval

PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164"
    "062862089986280348253421170679")
LN2_60 = Fraction("0.693147180559945309417232121458176568075500134360255254120680")


def encloses_digits(bracket, digits: Fraction, places: int) -> bool:
    """The bracket holds all of [digits, digits + 10^-places], where the
    constant is known to lie.  Callers pick a precision whose bracket is
    wider than 10^-places, so a misplaced bracket cannot pass."""
    lo, hi = bracket
    return lo <= digits and digits + Fraction(1, 10**places) <= hi


def test_oracles_do_not_import_cosprod():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("cosprod") for name in imported)


def test_tangent_numbers_start():
    assert tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]


def test_coefficients_are_the_paper_rationals():
    oracles = Oracles()
    assert [oracles.coefficient(m) for m in range(1, 5)] == [
        Fraction(1, 2), Fraction(1, 6), Fraction(1, 15), Fraction(17, 630)]
    # q_m = c_m / 4^m: 1/8, 1/96, 1/960
    assert [oracles.coefficient(m) / 4**m for m in range(1, 4)] == [
        Fraction(1, 8), Fraction(1, 96), Fraction(1, 960)]


def test_pi_bracket_uses_gauss_formula_and_holds_known_digits():
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert "_atan_recip(18," in source and "_atan_recip(5," not in source
    bracket = pi_bracket(256)
    assert encloses_digits(bracket, PI_100, 100)
    assert certified_bits(*bracket) > 240


@pytest.mark.parametrize("n, square", [(2, Fraction(1, 2)), (3, Fraction(3, 4))])
def test_cos_bracket_holds_exact_values(n, square):
    lo, hi = Oracles().cos_half_pi_over(Fraction(n))
    assert 0 < lo and lo * lo <= square <= hi * hi
    assert certified_bits(lo, hi) > 300


def test_cos_bracket_at_zero_and_at_pi_over_two():
    lo, hi = cos_bracket(Fraction(0), Fraction(0), 64)
    assert lo <= 1 <= hi
    lo, hi = Oracles().cos_half_pi_over(Fraction(1))
    assert lo <= 0 <= hi


def test_log_brackets():
    assert encloses_digits(log_bracket(Fraction(2), 128), LN2_60, 60)
    assert encloses_digits(log_bracket(Fraction(1, 2), 128), -LN2_60 - Fraction(1, 10**60), 60)
    lo, hi = log_bracket(Fraction(1), 128)
    assert lo <= 0 <= hi
    # -log cos(pi/3) = log 2
    bracket = Oracles(bits=128).neg_log_cos_half_pi_over(Fraction(3, 2))
    assert encloses_digits(bracket, LN2_60, 60)
    assert certified_bits(*bracket) > 110


def test_lambda_bracket_is_pi_squared_over_eight():
    oracles = Oracles()
    lo, hi = oracles.lambda_bracket(1)
    pi_lo, pi_hi = oracles.pi
    assert pi_lo**2 / 8 - Fraction(1, 2**300) <= lo <= hi <= pi_hi**2 / 8 + Fraction(1, 2**300)


def test_certified_bits_on_hand_made_intervals():
    assert certified_bits(Fraction(0), Fraction(1, 8)) == 3
    assert certified_bits(Fraction(1), 1 + Fraction(1, 2**100)) == 100
    tiny = Fraction(1, 2**4100)  # far below the float range
    assert certified_bits(-tiny, tiny) == 4099
    assert certified_bits(Fraction(0), Fraction(3)) == pytest.approx(-math.log2(3))
    with pytest.raises(ValueError):
        certified_bits(Fraction(1), Fraction(1))


def test_printed_interval_covers_decimal_rounding():
    assert printed_interval("0.5", "1.0e-01") == (Fraction(35, 100), Fraction(65, 100))
    lo, hi = printed_interval("1.25e-07", "3.0e-09")
    # the last printed digit of 1.25e-07 is worth 1e-09
    assert lo == Fraction(125, 10**9) - Fraction(3, 10**9) - Fraction(5, 10**10)
    assert hi == Fraction(125, 10**9) + Fraction(3, 10**9) + Fraction(5, 10**10)
    assert bound_bits("2.5e-01") == 1


def test_parse_table():
    text = ("# command: verify\n# n = 3\n"
            "    method  value    bound\n"
            "   product  0.866  1.0e-03\n"
            "    cosine  0.8660  1.0e-04\n"
            "verdict: PASS\n")
    rows, verdict = parse_table(text)
    assert verdict == "PASS"
    assert rows == [{"method": "product", "value": "0.866", "bound": "1.0e-03"},
                    {"method": "cosine", "value": "0.8660", "bound": "1.0e-04"}]
