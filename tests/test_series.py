import random
from fractions import Fraction as F
from math import factorial

import pytest

from cosprod.recurrence import lambda_coefficients, tangent_coefficients
from cosprod.series import OddSeries, _picard_round, ode_residual, picard_fixed_point


def naive_square_coeffs(coeffs):
    """O(M^2) polynomial multiplication oracle over full odd exponents."""
    m = len(coeffs)
    out = [F(0)] * (2 * m)  # index i holds x^(2i) coefficient, i=1..2m-1
    for i, a in enumerate(coeffs, start=1):
        for j, b in enumerate(coeffs, start=1):
            out[i + j - 1] += a * b
    return out[1:]


def numerators(coeffs, order):
    """The coefficients as integers over the Picard denominator 2 (2 order - 1)!."""
    denom = 2 * factorial(2 * order - 1)
    scaled = [c * denom for c in coeffs]
    assert all(s.denominator == 1 for s in scaled)
    return [int(s) for s in scaled], denom


class TestPicardFixedPoint:
    def test_order_one(self):
        assert picard_fixed_point(1).coeffs == (F(1, 2),)

    def test_order_four(self):
        assert picard_fixed_point(4).coeffs == (F(1, 2), F(1, 6), F(1, 15), F(17, 630))

    def test_one_hand_computed_step(self):
        seed, denom = numerators((F(1, 2), F(0), F(0), F(0)), 4)
        step = [F(a, denom) for a in _picard_round(seed, denom)]
        assert step == [F(1, 2), F(1, 6), F(0), F(0)]  # 2/3 * (1/2)^2 on x^3

    def test_reference_series_is_fixed_by_one_round(self):
        current, denom = numerators(lambda_coefficients(5).coeffs, 5)
        assert _picard_round(current, denom) == current

    def test_matches_recurrence_through_25(self):
        assert picard_fixed_point(25).coeffs == lambda_coefficients(25).coeffs

    def test_matches_recurrence_at_every_order_through_60(self):
        for k in range(1, 61):
            assert picard_fixed_point(k) == lambda_coefficients(k), k

    def test_recurrence_table_is_an_odd_series(self):
        table = lambda_coefficients(3)
        assert isinstance(table, OddSeries)
        assert table.order == 3

    def test_doubled_fixed_point_is_the_tangent_series(self):
        # coefficient-level form of "twice the fixed point is tan x"
        doubled = [2 * c for c in picard_fixed_point(12).coeffs]
        assert doubled == tangent_coefficients(12)

    def test_progress_locks_leading_coefficients(self):
        # after k substitution rounds the first k+1 coefficients are final
        order = 8
        table = lambda_coefficients(order)
        current, denom = numerators((F(1, 2),) + (F(0),) * (order - 1), order)
        for k in range(1, order):
            current = _picard_round(current, denom)
            assert [F(a, denom) for a in current[: k + 1]] == list(table.coeffs[: k + 1])

    def test_inexact_division_is_an_assertion_error(self):
        # 2 * (1/2)^2 / 3 = 1/6 is no multiple of 1/2
        with pytest.raises(AssertionError):
            _picard_round([1, 0], 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            picard_fixed_point(0)


class TestOdeResidual:
    def test_minimal_series(self):
        res = ode_residual(OddSeries((F(1, 2),)))
        assert res == [F(0), F(-1)]  # constant vanishes; x^2 is the artifact

    def test_two_terms(self):
        # the square is 1/4 x^2 + 1/6 x^4 + ..., so 2 * 3 * 1/6 - 4 * 1/4 = 0
        res = ode_residual(OddSeries((F(1, 2), F(1, 6))))
        assert res == [F(0), F(0), F(-2, 3)]

    def test_truncation_artifact_of_reference_series(self):
        # x^6 of t^2 is 2*(1/2)(1/15) + (1/6)^2 = 17/180, by direct multiplication
        res = ode_residual(lambda_coefficients(3))
        assert res[-1] == -4 * F(17, 180)

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_against_naive_multiplication(self, kind):
        # the square sums each pair i < j once, doubled, and adds the middle
        # square at odd k; orders 1..12 give every k of either parity
        rng = random.Random(f"naive-{kind}")
        for m in range(1, 13):
            for _ in range(10):
                if kind == "int":
                    coeffs = tuple(rng.randint(-10**6, 10**6) for _ in range(m))
                else:
                    coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
                sq = naive_square_coeffs(coeffs)[:m]
                deriv = [2 * (2 * i + 1) * c for i, c in enumerate(coeffs)] + [0]
                expected = [deriv[0] - 1] + [d - 4 * s for d, s in zip(deriv[1:], sq)]
                assert ode_residual(OddSeries(coeffs)) == expected

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 12])
    def test_reference_series_vanishes(self, order):
        res = ode_residual(lambda_coefficients(order))
        assert res[:order] == [F(0)] * order  # degrees 0..2(order-1)
        assert res[order] != 0                # truncation artifact at 2*order

    def test_perturbation_is_detected(self):
        coeffs = list(lambda_coefficients(4).coeffs)
        coeffs[1] += 1
        res = ode_residual(OddSeries(tuple(coeffs)))
        assert res[1] != 0
