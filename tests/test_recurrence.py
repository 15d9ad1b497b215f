from fractions import Fraction as F
from math import comb, factorial

import pytest

from cosprod import recurrence
from cosprod.arith import pi_constant
from cosprod.recurrence import (
    bernoulli_numbers,
    lambda_closed_form,
    lambda_coefficients,
    tangent_coefficients,
)
from conftest import combine_reference, tangent_numbers


def zeta_over_pi_power(m: int, b4m) -> F:
    """Oracle: zeta(2m)/pi^2m = (-1)^(m+1) B_2m 2^2m / (2 (2m)!)."""
    fact = 1
    for i in range(1, 2 * m + 1):
        fact *= i
    return F((-1) ** (m + 1) * b4m[2 * m] * 2 ** (2 * m), 2 * fact)


class TestCoefficientTable:
    def test_first_term(self):
        assert lambda_coefficients(1).coeffs == (F(1, 2),)

    def test_hand_evaluated_first_four(self):
        # c2 = 2/3 * (1/2)^2 = 1/6; c3 = 2/5 * 2*(1/2)(1/6) = 1/15;
        # c4 = 2/7 * (2*(1/2)(1/15) + (1/6)^2) = 2/7 * 17/180 = 17/630
        assert lambda_coefficients(4).coeffs == (F(1, 2), F(1, 6), F(1, 15), F(17, 630))

    def test_matches_half_tangent_coefficients(self):
        table = lambda_coefficients(25)
        tangent = tangent_coefficients(25)
        for m in range(1, 26):
            assert 2 * table.coeffs[m - 1] == tangent[m - 1]

    def test_positive_and_strictly_decreasing(self):
        table = lambda_coefficients(40)
        for m in range(1, 40):
            assert table.coeffs[m - 1] > table.coeffs[m] > 0

    def test_lambda_values_decrease_toward_one(self):
        # c_m (pi/2)^2m = lambda(2m) must sit in (1, 1.234] and decrease
        # (pi/2)^2m as a chain of ball products at 160 bits, stepped through
        # as (value, error) pairs by conftest's combine_reference
        table = lambda_coefficients(25)
        half_pi = pi_constant(160) * F(1, 2)
        half_pi = half_pi.value, half_pi.abs_error
        step = power = combine_reference(half_pi, half_pi, 160, product=True)
        previous_upper = None
        for m in range(1, 26):
            value, err = combine_reference(power, (table.coeffs[m - 1], 0), 160,
                                           product=True)
            assert value - err > 1
            assert value + err <= F(1234, 1000)
            if previous_upper is not None:
                assert value + err < previous_upper
            previous_upper = value + err
            power = combine_reference(power, step, 160, product=True)

    def test_rejects_bad_m_max(self):
        with pytest.raises(ValueError):
            lambda_coefficients(0)

    def test_matches_knuth_buckholtz_tangent_numbers_to_400(self):
        # criterion 7 reads coefficients up to m = 400
        table = lambda_coefficients(400)
        for m, t in enumerate(tangent_numbers(400), start=1):
            c = F(t, 2 * factorial(2 * m - 1))
            assert table.coeffs[m - 1] == c
            assert lambda_closed_form(m) == c / 4**m

    def test_a_coefficient_equal_to_its_predecessor_stops_the_extension(self, monkeypatch):
        # from T_1 = 3, c_1 = 3/2: T_2 = C(2, 1) T_1^2 = 18 = (3)(2) T_1, so
        # c_2 = 18 / (2 * 3!) = 3/2 = c_1, at the bound and outside (0, c_1)
        prefix = [(3, F(3, 2))]
        monkeypatch.setattr(recurrence, "_coeff_prefix", prefix)
        with pytest.raises(AssertionError, match=r"^c_2 is not in \(0, c_1\)$"):
            lambda_coefficients(2)
        assert prefix == [(3, F(3, 2))]

    def test_a_zero_tangent_number_stops_the_extension(self, monkeypatch):
        # T_1 = 0 makes T_3 = 2 C(4, 1) T_1 T_2 = 0, below the bound
        # (5)(4) T_2 = 20 that the upper check alone would pass
        prefix = [(0, F(0)), (1, F(1, 12))]
        monkeypatch.setattr(recurrence, "_coeff_prefix", prefix)
        with pytest.raises(AssertionError, match=r"^c_3 is not in \(0, c_2\)$"):
            lambda_coefficients(3)
        assert len(prefix) == 2

    def test_tables_in_any_request_order_are_prefixes(self):
        small, large, middle = (lambda_coefficients(m) for m in (7, 400, 50))
        assert small.coeffs == large.coeffs[:7]
        assert middle.coeffs == large.coeffs[:50]


class TestBernoulli:
    def test_base_cases(self):
        table = bernoulli_numbers(4)
        assert table[0] == 1
        assert table[1] == F(-1, 2)
        # k=2: B2 = -(C(3,0)B0 + C(3,1)B1)/C(3,2) = -(1 - 3/2)/3 = 1/6
        assert table[2] == F(1, 6)
        # k=4: B4 = -(B0 + 5B1 + 10B2 + 10B3)/5 = -(1 - 5/2 + 10/6)/5 = -1/30
        assert table[4] == F(-1, 30)

    def test_ramanujan_first_four(self):
        # n = k + 3: C(5,3) B_2 = 5/3; C(7,3) B_4 = -7/6; C(9,3) B_6 = 9/3
        # - C(9,0) B_0; C(11,3) B_8 = 11/3 - C(11,2) B_2 = 11/3 - 55/6
        table = bernoulli_numbers(8)
        assert table[2::2] == (F(1, 6), F(-1, 30), F(1, 42), F(-1, 30))

    def test_odd_indices_vanish(self):
        table = bernoulli_numbers(31)
        for k in range(3, 32, 2):
            assert table[k] == 0

    def test_defining_recurrence_resubstitution(self):
        table = bernoulli_numbers(30)
        for k in range(1, 30):
            assert sum(comb(k + 1, j) * table[j] for j in range(k + 1)) == 0

    def test_even_signs_alternate(self):
        table = bernoulli_numbers(20)
        for k in range(2, 21, 2):
            assert ((-1) ** (k // 2 + 1)) * table[k] > 0

    def test_every_value_to_410_against_knuth_buckholtz(self):
        # tangent_coefficients(205), the largest cold-path oracle, reads
        # B_0..B_410
        table = bernoulli_numbers(410)
        assert type(table) is tuple and len(table) == 411
        assert all(type(b) is F for b in table)
        assert table[0] == 1 and table[1] == F(-1, 2)
        assert all(table[k] == 0 for k in range(3, 411, 2))
        for m, t in enumerate(tangent_numbers(205), start=1):
            assert table[2 * m] == F((-1) ** (m - 1) * 2 * m * t, 4**m * (4**m - 1))

    def test_every_table_is_a_prefix_of_the_largest(self):
        # D = lcm(1..k_max+1) differs from one k_max to the next; among 0..64
        # are k_max+1 prime, whose prime only B_k_max needs, and k_max+1 a
        # prime power (8, 9, 16, 25, 27, 32, 49, 64), which adds no prime
        full = bernoulli_numbers(400)
        for k_max in range(65):
            assert bernoulli_numbers(k_max) == full[:k_max + 1], k_max

    def test_inexact_division_is_an_assertion_error(self, monkeypatch):
        # D = 6 clears the denominators of B_1 and B_2 but not 30, that of B_4
        monkeypatch.setattr(recurrence, "lcm", lambda *args: 6)
        with pytest.raises(AssertionError, match="B_4"):
            bernoulli_numbers(6)


class TestTangentCoefficients:
    def test_leading_terms(self):
        assert tangent_coefficients(4) == [F(1), F(1, 3), F(2, 15), F(17, 315)]

    def test_all_positive(self):
        assert all(t > 0 for t in tangent_coefficients(20))

    def test_matches_knuth_buckholtz_tangent_numbers_to_205(self):
        # coeffs --m-max 205 and its cross-check, the largest cold-tables reads
        tangent = tangent_coefficients(205)
        for m, t in enumerate(tangent_numbers(205), start=1):
            assert tangent[m - 1] == F(t, factorial(2 * m - 1))


class TestLambdaClosedForm:
    def test_first_three(self):
        assert lambda_closed_form(1) == F(1, 8)
        assert lambda_closed_form(2) == F(1, 96)
        assert lambda_closed_form(3) == F(1, 960)

    def test_against_zeta_oracle(self):
        # lambda(2m) = (1 - 2^-2m) zeta(2m); zeta(2m)/pi^2m via Bernoulli
        table = bernoulli_numbers(50)
        for m in range(1, 26):
            expected = (1 - F(1, 4**m)) * zeta_over_pi_power(m, table)
            assert lambda_closed_form(m) == expected

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            lambda_closed_form(0)
