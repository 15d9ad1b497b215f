import random
from fractions import Fraction as F

import pytest

from cosprod.recurrence import lambda_coefficients, tangent_coefficients
from cosprod.series import (
    EvenSeries,
    OddSeries,
    integrate_twice_scaled,
    ode_residual,
    picard_fixed_point,
    square_odd,
)


def naive_square_coeffs(coeffs):
    """O(M^2) polynomial multiplication oracle over full odd exponents."""
    m = len(coeffs)
    out = [F(0)] * (2 * m)  # index i holds x^(2i) coefficient, i=1..2m-1
    for i, a in enumerate(coeffs, start=1):
        for j, b in enumerate(coeffs, start=1):
            out[i + j - 1] += a * b
    return out[1:]


class TestSquareOdd:
    def test_single_term(self):
        assert square_odd(OddSeries((F(1, 2),))).coeffs == (F(1, 4),)

    def test_two_terms(self):
        sq = square_odd(OddSeries((F(1, 2), F(1, 6))))
        assert sq.coeffs == (F(1, 4), F(1, 6))  # (1/2)^2, 2*(1/2)(1/6)

    def test_third_coefficient_of_reference_square(self):
        sq = square_odd(OddSeries(lambda_coefficients(4).coeffs))
        # 2*(1/2)(1/15) + (1/6)^2 = 17/180, by direct multiplication
        assert sq.coeffs[2] == F(17, 180)

    def test_against_naive_multiplication(self):
        rng = random.Random(42)
        for _ in range(60):
            m = rng.randint(1, 8)
            coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
            sq = square_odd(OddSeries(coeffs))
            assert list(sq.coeffs) == naive_square_coeffs(coeffs)[:m]


class TestIntegrateTwiceScaled:
    def test_single_term(self):
        out = integrate_twice_scaled(EvenSeries((F(1, 4),)))
        assert out.coeffs == (F(0), F(1, 6))  # 2/3 * 1/4 lands on x^3

    def test_reference_square_reproduces_next_coefficients(self):
        sq = square_odd(OddSeries(lambda_coefficients(4).coeffs))
        out = integrate_twice_scaled(sq)
        table = lambda_coefficients(5)
        assert out.coeffs == (F(0), table.c(2), table.c(3), table.c(4), table.c(5))

    def test_zero_input(self):
        out = integrate_twice_scaled(EvenSeries((F(0), F(0), F(0))))
        assert all(c == 0 for c in out.coeffs)


class TestPicardFixedPoint:
    def test_order_one(self):
        assert picard_fixed_point(1).coeffs == (F(1, 2),)

    def test_order_four(self):
        assert picard_fixed_point(4).coeffs == (F(1, 2), F(1, 6), F(1, 15), F(17, 630))

    def test_one_hand_computed_step(self):
        seed = OddSeries((F(1, 2), F(0), F(0), F(0)))
        integrated = integrate_twice_scaled(square_odd(seed)).coeffs[:4]
        step = tuple(s + i for s, i in zip(seed.coeffs, integrated))
        assert step == (F(1, 2), F(1, 6), F(0), F(0))

    def test_matches_recurrence_through_25(self):
        assert picard_fixed_point(25).coeffs == lambda_coefficients(25).coeffs

    def test_doubled_fixed_point_is_the_tangent_series(self):
        # coefficient-level form of "twice the fixed point is tan x"
        doubled = [2 * c for c in picard_fixed_point(12).coeffs]
        assert doubled == tangent_coefficients(12)

    def test_progress_locks_leading_coefficients(self):
        # after k substitution rounds the first k+1 coefficients are final
        order = 8
        table = lambda_coefficients(order)
        seed = (F(1, 2),) + (F(0),) * (order - 1)
        current = OddSeries(seed)
        for k in range(1, order):
            integ = integrate_twice_scaled(square_odd(current)).coeffs[:order]
            current = OddSeries(tuple(s + i for s, i in zip(seed, integ)))
            assert current.coeffs[: k + 1] == table.coeffs[: k + 1]

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            picard_fixed_point(0)


class TestOdeResidual:
    def test_minimal_series(self):
        res = ode_residual(OddSeries((F(1, 2),)))
        assert res == [F(0), F(-1)]  # constant vanishes; x^2 is the artifact

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 12])
    def test_reference_series_vanishes(self, order):
        res = ode_residual(OddSeries(lambda_coefficients(order).coeffs))
        assert res[:order] == [F(0)] * order  # degrees 0..2(order-1)
        assert res[order] != 0                # truncation artifact at 2*order

    def test_perturbation_is_detected(self):
        coeffs = list(lambda_coefficients(4).coeffs)
        coeffs[1] += 1
        res = ode_residual(OddSeries(tuple(coeffs)))
        assert res[1] != 0
