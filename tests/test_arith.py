import random
from fractions import Fraction as F

import pytest

from cosprod.arith import (
    BoundedReal,
    pi_constant,
    real_from_rational,
)
from conftest import decimal_digits, pi_bracket

# 50 digits of pi, a standard reference constant
PI_50 = F("3.14159265358979323846264338327950288419716939937510")


class TestRealFromRational:
    def test_exactly_representable(self):
        b = real_from_rational(F(1, 2), 64)
        assert b.value == F(1, 2)
        assert b.abs_error == 0

    def test_one_third_bound(self):
        b = real_from_rational(F(1, 3), 64)
        assert abs(b.value - F(1, 3)) <= b.abs_error <= F(1, 2**63) * F(1, 3) * 2

    def test_relative_contract_random(self):
        rng = random.Random(7)
        for _ in range(200):
            r = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if r == 0:
                continue
            bits = rng.choice([8, 16, 53, 64, 128])
            b = real_from_rational(r, bits)
            assert abs(b.value - r) <= b.abs_error
            assert b.abs_error <= abs(r) * F(2) ** (1 - bits)

    def test_long_division_digits(self):
        # independent digit-by-digit expansion of 17/630
        digits = decimal_digits(17, 630, 40)
        assert digits.startswith("02698412698412")
        b = real_from_rational(F(17, 630), 128)
        scaled = int(b.value * 10**40)
        assert abs(scaled - int(digits)) <= 1

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            real_from_rational(F(1, 3), 4)


class TestBoundedRealOps:
    def test_soundness_random_chains(self):
        # every op's interval must contain the exactly tracked value
        rng = random.Random(123)
        for _ in range(120):
            bits = rng.choice([24, 53, 96])
            exact = F(rng.randint(-999, 999), rng.randint(1, 999))
            b = real_from_rational(exact, bits)
            for _ in range(10):
                r = F(rng.randint(-99, 99), rng.randint(1, 99))
                op = rng.choice(["add", "sub", "mul", "bmul", "div"])
                if op == "add":
                    b, exact = b + r, exact + r
                elif op == "sub":
                    b, exact = b - r, exact - r
                elif op == "mul":
                    b, exact = b * r, exact * r
                elif op == "bmul":
                    other = real_from_rational(r, bits)
                    b, exact = b * other, exact * r
                else:
                    if r == 0:
                        continue
                    b, exact = b / r, exact / r
                assert abs(b.value - exact) <= b.abs_error

    def test_negation_and_interval(self):
        b = real_from_rational(F(1, 3), 64)
        assert (-b).value == -b.value
        assert b.lower() <= F(1, 3) <= b.upper()
        assert b.contains(F(1, 3))

    def test_overlap(self):
        a = BoundedReal(F(1), F(1, 10), 64)
        c = BoundedReal(F(6, 5), F(1, 10), 64)
        d = BoundedReal(F(2), F(1, 10), 64)
        assert a.overlaps(c) and c.overlaps(a)
        assert not a.overlaps(d)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BoundedReal(F(1), F(-1, 10), 64)
        with pytest.raises(ZeroDivisionError):
            real_from_rational(F(1, 3), 64) / 0


class TestPiConstant:
    def test_against_independent_formula(self):
        lo, hi = pi_bracket(terms=80)
        for bits in (64, 128, 256):
            p = pi_constant(bits)
            assert p.lower() <= hi and lo <= p.upper()
            assert p.contains(PI_50) or abs(p.value - PI_50) <= p.abs_error + F(1, 10**49)

    def test_digit_literal(self):
        p = pi_constant(192)
        assert abs(p.value - PI_50) <= p.abs_error + F(1, 10**49)

    def test_error_contract(self):
        for bits in (8, 16, 64, 128, 256):
            p = pi_constant(bits)
            assert p.abs_error <= F(2) ** (4 - bits)

    def test_monotone_and_nested(self):
        coarse = pi_constant(64)
        fine = pi_constant(256)
        assert fine.abs_error < coarse.abs_error
        # sound intervals around the same constant must pairwise overlap
        for a_bits in (64, 96, 128):
            for b_bits in (64, 96, 128):
                assert pi_constant(a_bits).overlaps(pi_constant(b_bits))

    def test_deterministic(self):
        assert pi_constant(100).value == pi_constant(100).value

    def test_refinement_consistency(self):
        a, b = pi_constant(64), pi_constant(128)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error
