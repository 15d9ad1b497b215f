import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from cosprod import analytic, cli, recurrence
from cosprod.analytic import (
    _MAX_WORK,
    _PASS_BITS,
    DomainError,
    _coefficient_powers,
    _coefficient_tail,
    _factor_bits,
    _partial_products,
    _product_log_tail,
    _row_passes,
    _table_passes,
    _versine_doubled,
    _versine_series,
    _versine_terms,
    PartialProductResult,
    closed_forms,
    cos_approx,
    cos_half_pi_over,
    exp_approx,
    lambda_direct,
    lambda_direct_table,
    neg_log_product_series,
    product_trace,
    rearrangement_check,
    verify_identity,
)
from cosprod.arith import (BoundedReal, PrecisionError, WorkBudgetError, pi_constant,
                           real_from_rational)
from cosprod.recurrence import (MAX_TABLE_M, bernoulli_numbers, lambda_closed_form,
                                lambda_coefficients, tangent_coefficients)
from cosprod.series import OddSeries
from conftest import (
    coefficient_sums_exact,
    coefficient_tail_exact,
    combine_reference,
    contains,
    cos_full_precision,
    exp_full_precision,
    lambda_direct_reference,
    ln_bracket,
    neg_log_series_full_precision,
    partial_products_exact,
    pi_bracket,
    product_log_tail_reference,
    round_reference,
    row_order_reference,
    scaled,
    sqrt_bracket,
)
from test_golden import README_COMMANDS

E_40 = F("2.7182818284590452353602874713526624977572")


def pi_over(denom: int, bits: int = 192) -> BoundedReal:
    return scaled(pi_constant(bits), F(1, denom))


def neg_log_cos_bracket(n: F, bits: int, width: F) -> tuple[F, F]:
    """(lo, hi) around -log cos(pi/2n), narrower than width by about 2^-24.

    cos comes from ``cos_full_precision`` at bits + 64, and its ends are
    rounded outward to P = floor(-log2 width) + 24 bits past c's scale.
    ln c = ln(2^k c) - k ln 2, with k chosen so that 2^k c is near [1/2, 1]
    and ``ln_bracket``'s u is at most about 1/3; each ``ln_bracket`` gets the
    terms that leave its remainder below 2^-(P+2).
    """
    x = scaled(pi_constant(bits + 80), F(n.denominator, 2 * n.numerator))
    cos = cos_full_precision(x, bits + 64)
    c_lo, c_hi = cos.lower(), cos.upper()
    assert c_lo > 0
    k = max(0, c_hi.denominator.bit_length() - c_hi.numerator.bit_length() - 1)
    p = max(0, width.denominator.bit_length() - width.numerator.bit_length()) + 24
    scale = 1 << (p + k + 2)

    def ln(r: F, extra: int = 0) -> tuple[F, F]:
        u = (r - 1) / (r + 1)
        g = max(1, u.denominator.bit_length() - abs(u.numerator).bit_length() - 1)
        return ln_bracket(r, -(-(p + 3 + extra) // (2 * g)) + 1)

    a_lo = F(math.floor(c_lo * scale) << k, scale)  # 2^k c_lo, rounded down
    a_hi = F(-math.floor(-c_hi * scale) << k, scale)
    ln2_lo, ln2_hi = ln(F(2), k.bit_length()) if k else (F(0), F(0))
    return k * ln2_lo - ln(a_hi)[1], k * ln2_hi - ln(a_lo)[0]


def spy_on_rounding(monkeypatch, module=analytic) -> list[tuple[F, F]]:
    """(r, err) of every call to ``module.real_from_rational``, as Fractions."""
    carried = []

    def spy(r, bits, err=0, floor=False):
        carried.append((F(r.numerator, r.denominator),
                        F(err.numerator, err.denominator)))
        return real_from_rational(r, bits, err, floor)

    monkeypatch.setattr(module, "real_from_rational", spy)
    return carried


def pi_power_bracket(power: int, bits: int = 256) -> tuple[F, F]:
    p = pi_constant(bits)
    return p.lower() ** power, p.upper() ** power


class TestLambdaDirect:
    def test_m1_brackets_pi_squared_over_eight(self):
        est = lambda_direct(1, 10_000, 128)
        lo, hi = pi_power_bracket(2)
        q = lambda_closed_form(1)
        assert est.bracket()[0] <= q * lo and q * hi <= est.bracket()[1]
        assert abs(est.value.value - F("1.2337005")) < F(1, 10**3)

    def test_m2_contains_pi4_over_96(self):
        est = lambda_direct(2, 1_000, 128)
        lo, hi = pi_power_bracket(4)
        q = lambda_closed_form(2)
        assert est.bracket()[0] <= q * lo and q * hi <= est.bracket()[1]

    def test_large_m_single_term(self):
        est = lambda_direct(20, 1, 128)
        assert est.value.value == 1
        assert est.tail_bound < F(1, 10**18)
        # the bracket still covers at least the next two true terms
        lo, hi = est.bracket()
        assert lo <= 1 + F(1, 3**40) + F(1, 5**40) <= hi

    def test_lower_upper_bracketing(self):
        # all omitted terms are positive: value <= lambda(2m) <= value + err + tail
        for m, n in ((1, 50), (2, 200), (3, 31)):
            est = lambda_direct(m, n, 96)
            refined = lambda_direct(m, n * 20, 384)
            assert est.value.value <= refined.value.value + refined.value.abs_error
            assert refined.value.value <= est.bracket()[1]

    def test_tail_decreases_with_terms(self):
        a = lambda_direct(1, 100, 64)
        b = lambda_direct(1, 1_000, 64)
        assert b.tail_bound < a.tail_bound

    def test_lower_precision_widens_interval(self):
        coarse = lambda_direct(2, 500, 32)
        fine = lambda_direct(2, 500, 256)
        assert coarse.value.abs_error > fine.value.abs_error

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_direct(0, 10, 64)
        with pytest.raises(ValueError):
            lambda_direct(1, 0, 64)


class TestLambdaDirectTable:
    TERMS = (1, 2, 255, 256, 257, 513, 10**4)

    @staticmethod
    def grid():
        """(num_terms, m_max, bits): corners and seeded draws, 8 to 4096 bits."""
        rng = random.Random(3030)
        for terms in TestLambdaDirectTable.TERMS:
            # at 8 bits every level from m = 13 on keeps d = 1 alone and dies
            # in the first chunk, while m = 2 runs on to d = 2^10 and m = 1
            # to 2^20
            yield terms, 60, 8
            # the reference's cost grows with terms, m and bits alike
            top = 4096 if terms < 10**4 else 1024
            yield terms, 60 if terms < 10**4 else 4, 4096
            for _ in range(3):
                yield terms, rng.randint(1, 60), rng.randint(8, top)

    def test_every_field_matches_lambda_direct(self):
        # against conftest's plain per-m loop, which shares no code with the
        # one pass
        for terms, m_max, bits in self.grid():
            table = lambda_direct_table(m_max, terms, bits)
            assert len(table) == m_max
            for m, est in enumerate(table, start=1):
                ref = lambda_direct_reference(m, terms, bits)
                where = (terms, m, bits)
                assert est.num_terms == ref.num_terms, where
                assert est.value == ref.value, where
                assert est.value.abs_error == ref.value.abs_error, where
                assert est.tail_bound == ref.tail_bound, where

    @pytest.mark.parametrize("chunk", [1, 2, 3, 255, 257, 10**4])
    def test_the_chunk_moves_no_total(self, monkeypatch, chunk):
        # chunks of one odd d put a chunk edge between every two terms
        expected = {(terms, bits): lambda_direct_table(30, terms, bits)
                    for terms in (1, 600) for bits in (8, 128)}
        monkeypatch.setattr(analytic, "_LAMBDA_CHUNK", chunk)
        for (terms, bits), table in expected.items():
            assert lambda_direct_table(30, terms, bits) == table, (terms, bits)

    def test_holds_one_chunk_not_every_term(self):
        # 20,000 quotients of 160 bits would take about 3 MB; a chunk of
        # them takes kilobytes
        tracemalloc.start()
        try:
            lambda_direct_table(2, 20_000, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000


class TestTableCap:
    def test_the_tables_admit_the_cap_and_refuse_one_more(self):
        # the one pass and the coefficient table alike; past the cap the
        # refusal comes before the coefficient table grows at all
        cap = MAX_TABLE_M
        assert len(lambda_direct_table(cap, 3, 8)) == cap
        assert len(lambda_coefficients(cap).coeffs) == cap
        refused = f"^a table to m = {cap + 1} is over the cap of m = {cap};"
        with pytest.raises(WorkBudgetError, match=refused):
            lambda_direct_table(cap + 1, 3, 8)
        with pytest.raises(WorkBudgetError, match=refused):
            lambda_coefficients(cap + 1)
        assert len(recurrence._coeff_prefix) == cap

    def test_every_caller_refuses_before_its_work(self):
        # an order of 10^20 would hang or exhaust memory anywhere past the
        # check: the series' tail alone is a power r^(order + 1)
        huge = 10**20
        for call in (lambda: lambda_direct(huge, 3, 8),
                     lambda: neg_log_product_series(3, huge, 64),
                     lambda: rearrangement_check(3, 10, huge, 64),
                     lambda: verify_identity(3, 10, huge, 64),
                     lambda: lambda_closed_form(huge)):
            with pytest.raises(WorkBudgetError, match=f"^a table to m = {huge} "):
                call()


class TestWorkBudget:
    @staticmethod
    def table_charge(m_max, terms, bits):
        shift = bits + analytic._GUARD_BITS
        return _table_passes(m_max, terms, shift) * (_PASS_BITS + shift)

    @staticmethod
    def product_charge(n, factors, bits):
        shift = bits + analytic._GUARD_BITS
        return factors * (_PASS_BITS + _factor_bits(F(n), factors, shift))

    def test_each_estimate_is_at_least_its_count(self, monkeypatch):
        # the table's floor divisions, counted through its floordiv, and the
        # product's factors, counted through its range, against the passes
        # charged before the work; the estimates themselves are not capped
        rng = random.Random(3434)
        monkeypatch.setattr(analytic, "_MAX_TABLE_WORK", 1 << 80)
        monkeypatch.setattr(analytic, "_MAX_WORK", 1 << 80)
        count = [0]

        def counted_floordiv(a, b):
            count[0] += 1
            return a // b

        def counted_range(*args):
            r = range(*args)
            count[0] += len(r)
            return r

        for _ in range(30):
            m_max = rng.choice((1, 2, rng.randint(3, 60), rng.randint(60, 300)))
            terms = rng.choice((1, 2, rng.randint(3, 600), rng.randint(600, 5000)))
            bits = rng.choice((8, 16, 64, 128, 512))
            count[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "floordiv", counted_floordiv)
                lambda_direct_table(m_max, terms, bits)
            assert _table_passes(m_max, terms, bits + analytic._GUARD_BITS) >= count[0]
        for _ in range(30):
            q = rng.randint(1, 1000)
            n = F(rng.randint(q + 1, 10 * q), q)
            factors = rng.choice((1, 2, 16, 17, rng.randint(3, 5000)))
            count[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "range", counted_range, raising=False)
                _partial_products(n, [factors], rng.choice((8, 64, 512)))
            # the charged width holds a^2 at every factor
            top = ((2 * factors - 1) * n.numerator) ** 2
            assert count[0] == factors
            assert 2 * ((2 * factors - 1) * n.numerator).bit_length() >= top.bit_length()

    def test_the_table_budget_admits_its_limit_and_refuses_past_it(self, monkeypatch):
        charge = self.table_charge(5, 300, 64)
        monkeypatch.setattr(analytic, "_MAX_TABLE_WORK", charge)
        assert len(lambda_direct_table(5, 300, 64)) == 5
        monkeypatch.setattr(analytic, "_MAX_TABLE_WORK", charge - 1)
        with pytest.raises(WorkBudgetError, match="^--m-max or --order, --num-terms"):
            lambda_direct_table(5, 300, 64)

    def test_the_product_budget_admits_its_limit_and_refuses_past_it(self, monkeypatch):
        charge = self.product_charge(F(7, 3), 100, 64)
        monkeypatch.setattr(analytic, "_MAX_WORK", charge)
        assert product_trace(F(7, 3), 100, 64)[-1].num_factors == 100
        monkeypatch.setattr(analytic, "_MAX_WORK", charge - 1)
        with pytest.raises(WorkBudgetError, match="^--n, --num-factors and --precision"):
            product_trace(F(7, 3), 100, 64)

    def test_every_size_in_use_is_admitted(self):
        # README's commands and library call, the acceptance criteria's
        # largest table, the benchmark's 4096-bit verify and the sweep's
        # longest product, each within its budget
        for m_max, terms, bits in ((10, 10**5, 128), (1, 10**6, 128), (3, 10**6, 128),
                                   (60, 10**4, 300), (20, 1000, 528)):
            assert self.table_charge(m_max, terms, bits) <= analytic._MAX_TABLE_WORK
        for n, factors, bits in ((3, 10**5, 128), (F(11, 10), 1000, 4096),
                                 (10**16, 1000, 1024), (3, 1000, 4096)):
            assert self.product_charge(n, factors, bits) <= analytic._MAX_WORK

    def test_terms_and_factors_of_twenty_digits_are_refused(self):
        huge = 10**20
        with pytest.raises(WorkBudgetError, match="fewer --num-terms or --rows"):
            lambda_direct_table(1, huge, 128)
        for call in (lambda: product_trace(3, huge, 128),
                     lambda: verify_identity(3, huge, 30, 128)):
            with pytest.raises(WorkBudgetError, match="take fewer --num-factors"):
                call()


class TestPartialProduct:
    def test_n_one_is_exactly_zero(self):
        for n_factors in (1, 7, 500):
            res = product_trace(1, n_factors, 64)[-1]
            assert res.value.value == 0
            assert res.value.abs_error == 0
            assert res.log_tail_bound is None

    def test_n2_contains_cos_quarter_pi(self):
        res = product_trace(2, 20_000, 128)[-1]
        lo, hi = sqrt_bracket(F(1, 2))
        ilo, ihi = res.interval()
        assert ilo <= lo and hi <= ihi

    def test_n3_contains_cos_sixth_pi(self):
        res = product_trace(3, 20_000, 128)[-1]
        lo, hi = sqrt_bracket(F(3, 4))
        ilo, ihi = res.interval()
        assert ilo <= lo and hi <= ihi

    def test_total_bound_is_the_error_plus_the_upper_end_times_the_tail(self):
        # e + U t, U the value's upper end, not the value; e alone at n = 1
        ball = BoundedReal(F(1, 2), F(1, 4), 8)
        res = PartialProductResult(5, ball, F(1, 2))
        assert res.total_bound() == F(1, 4) + F(3, 4) * F(1, 2)
        assert res.interval() == (F(-1, 8), F(9, 8))
        assert PartialProductResult(5, ball, None).total_bound() == F(1, 4)

    def test_non_integer_n_contains_half(self):
        res = product_trace(F(3, 2), 20_000, 128)[-1]
        lo, hi = res.interval()
        assert lo <= F(1, 2) <= hi

    def test_trace_monotone_decreasing_above_target(self):
        trace = product_trace(3, 4096, 128)
        lo, _ = sqrt_bracket(F(3, 4))
        values = [snap.value.value for snap in trace]
        assert values == sorted(values, reverse=True)
        for snap in trace:
            assert snap.value.value >= lo - snap.value.abs_error
            assert 0 < snap.value.value <= 1

    def test_log_tail_decreases_with_factors(self):
        a = product_trace(3, 100, 64)[-1]
        b = product_trace(3, 1_000, 64)[-1]
        assert b.log_tail_bound < a.log_tail_bound

    def test_rejects_n_below_one(self):
        with pytest.raises(DomainError):
            product_trace(F(1, 2), 10, 64)

    def test_log_tail_is_the_three_step_bound(self):
        rng = random.Random(1513)
        ns = [F(3), F(3, 2), F(11, 10), F(10**21 + 1, 10**21)]
        while len(ns) < 40:
            q = rng.randint(1, 10**6)
            ns.append(F(rng.randint(q + 1, 50 * q), q))
        for n in ns:
            for count in (1, 2, 16, 1000, rng.randint(3, 10**6)):
                assert _product_log_tail(n, count) == product_log_tail_reference(n, count)

    def test_blocks_against_the_exact_partial_products(self):
        # factor counts at the edges of the 16-factor blocks; at n = 1 +
        # 10^-21 each a^2 = ((2k-1) pn)^2 spans several 30-bit limbs
        counts = (1, 15, 16, 17, 31, 32, 33, 1000)
        ns = (F(3), F(3, 2), F(11, 10), F(1001, 1000), F(10**21 + 1, 10**21))
        for n in ns:
            exact = partial_products_exact(n, range(1, 1001))
            for bits in (8, 128, 4096):
                for count in counts:
                    trace = product_trace(n, count, bits)
                    marks = [1 << i for i in range(count.bit_length())
                             if 1 << i < count] + [count]
                    assert [snap.num_factors for snap in trace] == marks
                    for snap in trace:
                        value = snap.value
                        assert value.value <= exact[snap.num_factors]
                        assert exact[snap.num_factors] - value.value <= value.abs_error

    def test_one_mark_against_the_exact_partial_products(self):
        # the single mark verify uses groups the blocks from the first
        # factor on; the value is floored at 2^-shift and once more to bits
        rng = random.Random(1919)
        for _ in range(10):
            q = rng.randint(1, 40)
            n = F(rng.randint(q + 1, 10 * q), q)
            counts = [rng.randint(1, 2000) for _ in range(3)] + [1, 16, 17]
            exact = partial_products_exact(n, counts)
            for count in counts:
                bits = rng.choice((8, 24, 64, 128, 1024))
                (res,) = _partial_products(n, [count], bits)
                value = res.value.value
                top = value.numerator.bit_length() - value.denominator.bit_length()
                top -= F(2) ** top > value  # 2^top <= value < 2^(top+1)
                quantum = F(2) ** (top - bits + 1)
                low_by = exact[count] - value
                assert res.num_factors == count
                assert 0 <= low_by <= F(count, 2 ** (bits + analytic._GUARD_BITS)) + quantum
                assert low_by <= res.value.abs_error
                assert res.log_tail_bound == _product_log_tail(n, count)


class TestNegLogProductSeries:
    def test_pi_sixth_matches_half_ln_four_thirds(self):
        # n = 3: -ln cos(pi/6) = -ln(sqrt(3)/2) = (1/2) ln(4/3)
        res = neg_log_product_series(3, 30, 128)
        lo, hi = ln_bracket(F(4, 3))
        assert res.lower() <= lo / 2 and hi / 2 <= res.upper()
        assert res.abs_error <= F(1, 10**8)

    def test_pi_quarter_matches_half_ln_two(self):
        # n = 2: -ln cos(pi/4) = (1/2) ln 2
        res = neg_log_product_series(2, 60, 128)
        lo, hi = ln_bracket(F(2))
        assert res.lower() <= lo / 2 and hi / 2 <= res.upper()

    def test_rejects_at_and_beyond_half_pi(self):
        # n = 1 puts x at pi/2, and n = 5/8 at 4 pi / 5
        with pytest.raises(DomainError):
            neg_log_product_series(1, 10, 128)
        with pytest.raises(DomainError):
            neg_log_product_series(F(5, 8), 10, 128)

    def test_high_end_of_pi_over_2n_at_half_pi_low_is_a_sound_wide_ball(self):
        # at n = pi_hi / pi_lo, for the ends of pi_constant(precision + 16),
        # the high end of pi/2n is pi_lo / 2 exactly.  The series is still
        # sound there: its tail passes 1, and the ball holds -log cos(pi/2n)
        # = -ln sin y, y = pi (n - 1) / 2n, bracketed by y - y^3/6 <= sin y
        # <= y at the ends of conftest's pi.  ln r = ln s - k ln 2 for r =
        # s 2^-k, s in (1/2, 2) read outward to 64 bits for ln_bracket
        pi_lo, pi_hi = pi_bracket()
        ln2_lo, ln2_hi = ln_bracket(F(2))

        def ln(r):
            k = r.denominator.bit_length() - r.numerator.bit_length()
            s_lo = F(math.floor(r * 2 ** (k + 64)), 2**64)
            s_hi = F(math.ceil(r * 2 ** (k + 64)), 2**64)
            assert F(1, 2) <= s_lo and s_hi <= 2
            return ln_bracket(s_lo)[0] - k * ln2_hi, ln_bracket(s_hi)[1] - k * ln2_lo

        for bits in (8, 64, 1024):
            pi = pi_constant(bits + 16)
            n = pi.upper() / pi.lower()
            y_lo, y_hi = pi_lo * (n - 1) / (2 * n), pi_hi * (n - 1) / (2 * n)
            res = neg_log_product_series(n, 5, bits)
            assert res.abs_error >= 1
            assert res.lower() <= -ln(y_hi)[1] and -ln(y_lo - y_lo**3 / 6)[0] <= res.upper()

    def test_accepts_just_inside_domain(self):
        # x = pi/2n = 49 pi / 100
        res = neg_log_product_series(F(50, 49), 200, 64)
        assert res.value > 0

    def test_contains_minus_log_cos_over_seeded_n(self):
        # the truth oracle of the tail and of the bracket between the sums
        # at the two ends of pi/2n's ball: the interval holds a bracket of
        # -log cos(pi/2n) itself, at every n > 1, however near 1.
        rng = random.Random(1717)
        fixed = [1 + F(1, 10**4), 1 + F(1, 10**8), F(101, 100), F(11, 10),
                 F(3, 2), F(2), F(3), F(7), F(100), F(10**6)]
        cases = [(n, bits) for n in fixed for bits in (8, 16, 64, 128, 512, 1024)]
        cases += [(rng.choice((1 + F(1, rng.randint(10, 10**4)),
                               F(rng.randint(11, 400), 10),
                               F(rng.randint(10**3, 10**6)))),
                   rng.choice((8, 16, 64, 128, 512, 1024))) for _ in range(40)]
        for n, bits in cases:
            order = rng.randint(5, 40)
            res = neg_log_product_series(n, order, bits)
            lo, hi = neg_log_cos_bracket(n, bits, res.upper() - res.lower())
            assert res.lower() <= lo and hi <= res.upper(), (n, order, bits)

    def test_a_wide_pi_ball_is_enclosed_by_the_sums_at_its_ends(self, monkeypatch):
        # pi with an error of 2^-20, still around conftest's pi: at n = 3 and
        # 3/2 pi's error, not the tail, sets the width, so a sum taken at one
        # end of the ball alone misses -log cos(pi/2n).  The 8-bit round-up
        # of the error would hide the high end's 2 order ulps, so the spy
        # also reads the interval handed to the final rounding: it must hold
        # [T(lo), T(hi) + tail] exactly, T the truncated sum from conftest's
        # tangent numbers and lo, hi the ends of pi/2n
        pi_lo, pi_hi = pi_bracket()
        wide = BoundedReal(pi_constant(1024).value, F(1, 2**20), 1024)
        assert wide.lower() <= pi_lo and pi_hi <= wide.upper()
        monkeypatch.setattr(analytic, "pi_constant", lambda bits: wide)
        carried = spy_on_rounding(monkeypatch)
        order = 40
        for n in (F(3), F(3, 2), F(11, 10)):
            res = neg_log_product_series(n, order, 1024)
            value, err = carried[-1]
            lo, hi = neg_log_cos_bracket(n, 1024, res.upper() - res.lower())
            assert res.lower() <= lo and hi <= res.upper(), n
            tail = _coefficient_tail(1 / (n * n), order)
            if n >= F(3, 2):
                assert tail < res.abs_error / 2**16, n
            scale = F(n.denominator, 2 * n.numerator)
            t_lo, d_lo = coefficient_sums_exact(wide.lower() * scale, (order,))[order]
            t_hi, d_hi = coefficient_sums_exact(wide.upper() * scale, (order,))[order]
            low, high = value - err, value + err - tail
            assert low.numerator * d_lo <= t_lo * low.denominator, n
            assert t_hi * high.denominator <= high.numerator * d_hi, n
            # centred: the error is half the spread plus the tail, up to the
            # 8-bit round-up, not the whole spread from the low end
            half = F(t_hi * d_lo - t_lo * d_hi, 2 * d_lo * d_hi)
            assert res.abs_error <= (half + tail) * (1 + F(1, 2**6)), n


class TestCoefficientPowers:
    """The one chain of ``_coefficient_powers`` against
    ``conftest.coefficient_sums_exact``, and the series' use of it."""

    FRAC_BITS = (8, 12, 16, 24, 32, 64)
    ORDERS = (1, 2, 5, 20, 40, 100, 300)

    def test_sums_at_one_point_bracket_the_exact_partial_sums(self):
        # at lo = hi = x the sums of floor(A_m/m) and ceil(B_m/m) hold 2^F
        # times the exact sum, and lie under 4 order ulps apart while the
        # raised step is at most (pi/2)^2 2^F, as the docstring proves
        rng = random.Random(1616)
        # pi/2 rounded down to 60 bits, from the oracle's own pi
        pi_lo = pi_bracket()[0]
        half_pi = F(math.floor(pi_lo * 2**59), 2**60)
        general = [rng.choice((-1, 1)) * x for x in
                   [F(rng.randrange(1, half_pi.numerator), 2**60) for _ in range(20)]
                   + [F(rng.randint(10**6, 10**12), 10**18) for _ in range(6)]
                   + [half_pi - F(rng.randint(0, 10**6), 10**12) for _ in range(6)]]
        cases = [(x, self.FRAC_BITS) for x in general]
        for frac_bits in self.FRAC_BITS:
            # x^2 2^F just below an integer k, so the floor of u loses most of an ulp
            s = frac_bits + 30
            for _ in range(4):
                k = rng.randint(2, math.floor(half_pi**2 * 2**frac_bits))
                cases.append((F(math.isqrt(k << (2 * s - frac_bits)), 1 << s),
                              (frac_bits,)))
        count, spreads, worst = 0, 0, 0  # worst: the larger side per term, in 2^-16 ulp
        for x, frac_bits_list in cases:
            sums = coefficient_sums_exact(x, self.ORDERS)
            for frac_bits in frac_bits_list:
                step = -(-(x.numerator ** 2 << frac_bits) // x.denominator ** 2)
                within = step <= (pi_lo / 2) ** 2 * 2**frac_bits
                s_lo = s_hi = 0
                for m, (low, high) in enumerate(
                        _coefficient_powers(x.as_integer_ratio(), x.as_integer_ratio(),
                                            max(self.ORDERS), frac_bits), start=1):
                    s_lo += low // m
                    s_hi -= -high // m
                    if m not in sums:
                        continue
                    num, den = sums[m]
                    exact = num << frac_bits  # 2^F sum, times den
                    assert s_lo * den <= exact <= s_hi * den, (x, frac_bits, m)
                    count += 1
                    if within:
                        assert s_hi - s_lo < 4 * m, (x, frac_bits, m)
                        side = max(exact - s_lo * den, s_hi * den - exact)
                        worst = max(worst, (side << 16) // (m * den))
                        spreads += 1
        # a side passes one ulp a term, so a count of order per side would not hold
        assert count >= 1500 and spreads >= 1300 and worst > 1 << 16

    def test_the_series_reads_its_ends_and_divides_by_m_outward(self, monkeypatch):
        # the ends handed to the chain enclose pi's lower() and upper() times
        # qn/(2pn), with at most F + 64 fraction bits; and the
        # interval handed to the final rounding, less the tail, holds the
        # exact sums of A_m/m and B_m/m.  The 8-bit round-up of the error
        # hides an end read the wrong way or a quotient rounded inward from
        # every output-level check
        calls = []

        def spy(lo, hi, order, frac_bits):
            pairs = list(_coefficient_powers(lo, hi, order, frac_bits))
            calls.append((lo, hi, frac_bits, pairs))
            return iter(pairs)

        monkeypatch.setattr(analytic, "_coefficient_powers", spy)
        carried = spy_on_rounding(monkeypatch)
        rng = random.Random(2323)
        ns = [F(11, 10), F(81, 64), F(3, 2), F(5), 1 + F(1, 10**6), F(10**16)]
        ns += [F(rng.randint(11, 4000), 10) for _ in range(6)]
        checked = 0
        for n in ns:
            pn, qn = n.numerator, n.denominator
            for bits in (8, 16, 64, 128, 1024, 4096):
                order = rng.randint(1, 60)
                calls.clear()
                try:
                    neg_log_product_series(n, order, bits)
                except PrecisionError:
                    continue
                ((lo, lo_den), (hi, hi_den), frac_bits, pairs), = calls
                pi = pi_constant(bits + 16)
                assert F(lo, lo_den) <= pi.lower() * F(qn, 2 * pn), (n, bits)
                assert pi.upper() * F(qn, 2 * pn) <= F(hi, hi_den), (n, bits)
                assert max(lo_den, hi_den).bit_length() <= frac_bits + 65
                value, err = carried[-1]
                err -= _coefficient_tail(1 / (n * n), order)
                low = sum(F(a, m) for m, (a, _) in enumerate(pairs, start=1))
                high = sum(F(b, m) for m, (_, b) in enumerate(pairs, start=1))
                assert (value - err) * 2**frac_bits <= low, (n, bits, order)
                assert high <= (value + err) * 2**frac_bits, (n, bits, order)
                checked += 1
        assert checked >= 60


class TestCoefficientTail:
    def test_within_two_to_minus_50_above_the_exact_geometric_bound(self):
        # the tail is now taken at r itself, so "within" is equality
        rng = random.Random(2024)
        ratios = [F(1, n * n) for n in [2, 3, 10**6] + [rng.randint(2, 10**6) for _ in range(5)]]
        ratios.append(1 - F(1, 2**70))
        # 1/n^2 as the series takes it at n = 11/10 and at n = 1 + 10^-21,
        # where r is within 2^-69 of 1
        ratios.append(F(100, 121))
        ratios.append(1 / (1 + F(1, 10**21)) ** 2)
        for r in ratios:
            for order in (1, 5, 30, 40, 200, 400):
                num, den = coefficient_tail_exact(r, order)
                tail = _coefficient_tail(r, order)
                assert num * tail.denominator == tail.numerator * den, (r, order)


class TestCosApprox:
    def test_zero(self):
        res = cos_approx(BoundedReal(0, 0, 128), 128)
        assert res.value == 1
        assert res.abs_error == 0

    def test_half_pi_contains_zero(self):
        res = cos_approx(pi_over(2), 128)
        assert contains(res, 0)
        assert res.abs_error < F(1, 10**30)

    def test_sixth_pi_squares_to_three_quarters(self):
        res = cos_approx(pi_over(6), 128)
        ball = res.value, res.abs_error
        value, err = combine_reference(ball, ball, 128, product=True)
        assert value - err <= F(3, 4) <= value + err
        lo, hi = sqrt_bracket(F(3, 4))
        assert res.lower() <= lo and hi <= res.upper()

    def test_third_pi_is_half(self):
        res = cos_approx(pi_over(3), 128)
        assert contains(res, F(1, 2))

    def test_cos_half_pi_over(self):
        # exactly 0 at n = 1; else cos_approx at pi/2n from pi at bits + 16,
        # enclosing cos(pi/6) = sqrt(3)/2 and cos(pi/3) = 1/2
        for bits in (8, 128, 4096):
            zero = cos_half_pi_over(1, bits)
            assert (zero.value, zero.abs_error, zero.precision_bits) == (0, 0, bits)
            for n in (F(3), F(3, 2), F(11, 10), F(1000)):
                x = scaled(pi_constant(bits + 16), F(n.denominator, 2 * n.numerator))
                assert cos_half_pi_over(n, bits) == cos_approx(x, bits), (n, bits)
            lo, hi = sqrt_bracket(F(3, 4), bits + 64)
            res = cos_half_pi_over(3, bits)
            assert res.lower() <= lo and hi <= res.upper()
            assert contains(cos_half_pi_over(F(3, 2), bits), F(1, 2))

    def test_cos_half_pi_over_reads_pi_over_2n_at_pis_precision(self, monkeypatch):
        # cos_approx's x is pi's value times s = qn/(2pn), rounded at pi's
        # bits + 16, with pi's error times s carried: it encloses pi/2n
        seen = []
        monkeypatch.setattr(analytic, "cos_approx", lambda x, bits: seen.append(x) or x)
        lo, hi = pi_bracket(700)
        for bits in (8, 128, 1024):
            pi = pi_constant(bits + 16)
            for n in (F(3), F(3, 2), F(11, 10), F(1000)):
                s = F(n.denominator, 2 * n.numerator)
                cos_half_pi_over(n, bits)
                x = seen.pop()
                assert (x.value, x.abs_error) == round_reference(pi.value * s, bits + 16,
                                                                 pi.abs_error * s), (n, bits)
                assert x.precision_bits == bits + 16
                assert x.lower() <= lo * s and hi * s <= x.upper(), (n, bits)

    def test_cos_half_pi_over_refuses_n_at_or_below_zero(self):
        for n in (0, -1, F(-1, 2), F(-3)):
            with pytest.raises(DomainError):
                cos_half_pi_over(n, 128)

    def test_moderately_large_argument(self):
        # series still converges with a valid remainder beyond the identity range
        res = cos_approx(BoundedReal(5, 0, 128), 128)
        cos5 = F("0.2836621854632262644666391715135573083344")
        assert abs(res.value - cos5) <= res.abs_error + F(1, 10**39)


class TestCosineHalving:
    """The halved cosine against the plain Maclaurin loop (``conftest``):
    the intervals overlap, and the error is at most one 8-bit step wider.
    At n = 3/2, cos(pi/3) = 1/2 is exact, the final rounding is often exact
    too, and then only the carried error shows, so there the error is held
    to 2^-p instead."""

    STEP = 1 + F(1, 2**7)
    BITS = (8, 16, 64, 128, 512, 1024, 4096)

    def test_against_the_maclaurin_loop(self):
        squares = {F(2): F(1, 2), F(3): F(3, 4)}  # cos(pi/2n)^2
        rng = random.Random(1212)
        # near 1, c is small and so is the final rounding cap: there the
        # guard bits of the working precision show
        ns = [F(101, 100), F(1001, 1000), F(11, 10), F(3, 2), F(2), F(3), F(5), F(1000)]
        while len(ns) < 18:
            q = rng.randint(1, 64)
            ns.append(F(rng.randint(q + 1, 20 * q), q))
        for n in ns:
            for bits in self.BITS:
                x = scaled(pi_constant(bits + 16), F(n.denominator, 2 * n.numerator))
                res, ref = cos_approx(x, bits), cos_full_precision(x, bits)
                assert res.overlaps(ref), (n, bits)
                if n == F(3, 2):
                    assert res.abs_error <= F(1, 2**bits), (n, bits)
                    assert contains(res, F(1, 2)), (n, bits)
                else:
                    assert res.abs_error <= ref.abs_error * self.STEP, (n, bits)
                if n in squares:
                    lo, hi = sqrt_bracket(squares[n], bits + 64)
                    assert res.lower() <= lo and hi <= res.upper(), (n, bits)

    def test_versine_remainder_alone_covers_a_coarse_cutoff(self):
        # at 512 bits the floors are far below these cutoffs, so only the
        # alternating-series remainder, counted as 2^(512 - cutoff) ulps,
        # keeps the count around 1 - cos y; the floors add a few ulps
        for y in (F(1, 10), F(1, 2), F(1), F(3), F(5)):
            ref = cos_full_precision(BoundedReal(y, 0, 640), 640)
            for cutoff in (8, 20, 40):
                s, err = _versine_series(y, 0, 512, cutoff)
                assert F(s - err, 2**512) <= 1 - ref.upper(), (y, cutoff)
                assert 1 - ref.lower() <= F(s + err, 2**512), (y, cutoff)
                assert err - 2 ** (512 - cutoff) <= 64, (y, cutoff)

    def test_rounding_dominates_at_a_narrow_fixed_point(self):
        # at F = 24..40 bits the floors and their growth through the
        # doublings make the width; F - 2h is cos_approx's cutoff for |x| < 1
        for x in (F(1, 10), F(-1, 10), F(1), F(3), F(-5), F(10)):
            for frac_bits in (24, 32, 40):
                ref = cos_full_precision(BoundedReal(x, 0, 8), frac_bits + 64)
                one = 2**frac_bits
                for halvings in range(int(abs(x)).bit_length(), 7):
                    s, err = _versine_series(x, halvings, frac_bits,
                                             frac_bits - 2 * halvings)
                    s, err = _versine_doubled(s, err, frac_bits, halvings)
                    assert F(one - s - err, one) <= ref.lower(), (x, frac_bits, halvings)
                    assert ref.upper() <= F(one - s + err, one), (x, frac_bits, halvings)

    def test_the_count_covers_the_floors_for_every_number_of_terms(self):
        # one narrow fixed point, F = 128, against u = x^2 up to 2^13, where
        # the terms reach 2^130 and the floors dominate: for each a =
        # bitlen(U) - F a seeded x with 2^(a-1) <= x^2 < 2^a, and every
        # cutoff, so that K runs over 1..150 and past, each with its
        # b = ceil(sqrt K)
        rng = random.Random(2727)
        frac_bits, one, seen = 128, 2**128, set()
        for a in range(1 - frac_bits, 14):
            m = rng.randint(math.isqrt(1 << (a + 159)) + 1,
                            math.isqrt((1 << (a + 160)) - 1))
            x = F(rng.choice((-1, 1)) * m, (1 << 80) - 1)
            ref = cos_full_precision(BoundedReal(x, 0, 8), frac_bits + 64 + 2 * int(abs(x)))
            u = (x.numerator ** 2 << frac_bits) // x.denominator ** 2
            for cutoff in range(frac_bits + 1):
                seen.add(_versine_terms(u, frac_bits, cutoff))
                s, err = _versine_series(x, 0, frac_bits, cutoff)
                assert F(s - err, one) <= 1 - ref.upper(), (x, cutoff)
                assert 1 - ref.lower() <= F(s + err, one), (x, cutoff)
        assert seen >= set(range(1, 151))

    def test_the_square_is_the_product_form(self):
        # 4 s + floor(-s^2 / 2^(F-1)) = floor(s (2^(F+1) - s) / 2^(F-1))
        rng = random.Random(2728)
        for frac_bits in (8, 24, 64, 200, 4170):
            two = 2 << frac_bits
            for s0 in [0, 1, two - 1, two] + [rng.randint(0, two) for _ in range(200)]:
                s = s0
                for times in range(1, 4):
                    s = s * (two - s) >> (frac_bits - 1)
                    assert _versine_doubled(s0, 0, frac_bits, times)[0] == s, (s0, times)

    def test_doubling_an_exact_versine(self):
        # from an error of 0 the count is the floors' alone
        rng = random.Random(1515)
        for frac_bits in (24, 32, 40):
            one = 2**frac_bits
            for _ in range(30):
                s0, times = rng.randrange(1, 2 * one), rng.randint(1, 8)
                exact = F(s0, one)
                for _ in range(times):
                    exact = 2 * exact * (2 - exact)
                s, err = _versine_doubled(s0, 0, frac_bits, times)
                assert abs(exact - F(s, one)) <= F(err, one), (s0, times)

    def test_the_widest_fixed_point_against_square_roots(self):
        # 16,384 bits: h = 34 and F = 16,482
        for n, square in ((2, F(1, 2)), (3, F(3, 4))):
            res = cos_approx(scaled(pi_constant(16400), F(1, 2 * n)), 16384)
            lo, hi = sqrt_bracket(square, 16384 + 64)
            assert res.lower() <= lo and hi <= res.upper(), n
            assert res.abs_error < F(1, 2**16380), n


def ln_ball(y: F, bits: int) -> BoundedReal:
    """ln y from the oracle's bracket, as midpoint +- half-width.

    y is first divided by 2^k into (1/2, 2), where the oracle's 80 terms
    are tight, and k ln 2 is added back from the bracket of ln 2.
    """
    k = y.numerator.bit_length() - y.denominator.bit_length()
    lo, hi = ln_bracket(y / F(2) ** k)
    lo2, hi2 = ln_bracket(F(2))
    lo, hi = (lo + k * lo2, hi + k * hi2) if k >= 0 else (lo + k * hi2, hi + k * lo2)
    return BoundedReal((lo + hi) / 2, (hi - lo) / 2, bits)


def test_ln_bracket_is_the_term_by_term_sum():
    # the oracle's one denominator against its Fraction terms added one by one
    def term_by_term(r, terms):
        u = (r - 1) / (r + 1)
        total = sum((u ** (2 * k + 1) / (2 * k + 1) for k in range(terms)), F(0))
        rem = abs(u) ** (2 * terms + 1) / ((2 * terms + 1) * (1 - u * u))
        return (2 * total, 2 * (total + rem)) if u >= 0 else (2 * (total - rem), 2 * total)

    cases = [(F(2), 80), (F(4, 3), 80), (F(1, 3), 7), (F(1), 5), (F(10**9, 10**9 + 7), 1),
             (F(123456789, 98765432) ** 3, 40), (F(2**200 + 1, 2**199), 33)]
    for r, terms in cases:
        assert ln_bracket(r, terms) == term_by_term(r, terms), (r, terms)


# balls of verify_identity(n, 1000, 30, bits) that tightened when exp came
# from decimal and the cosine cutoff dropped its extra 4^-h, as they were
# before: (n, bits, route) -> (value, abs_error)
OLD_ROWS = {
    (F(10**6), 8, "log_series"): (F(1), F(129, 2**32)),
    (F(10**6), 16, "log_series"): (F(1), F(97, 2**38)),
    (F(3, 2), 128, "cosine"): (F(1, 2), F(43, 2**149)),
}


class TestExpLog:
    def test_exp_zero(self):
        # exp(0) = 1 is exact, but the bound is still rho, half an ulp of
        # 1 at d = 9 (8 bits) or 45 (128 bits) digits, rounded up to 8 bits
        for bits, rho, bound in ((8, F(5, 10**9), F(43, 2**33)),
                                 (128, F(5, 10**45), F(229, 2**155))):
            res = exp_approx(BoundedReal(0, 0, bits), bits)
            assert res.value == 1
            assert res.abs_error == bound
            assert rho <= bound <= rho * (1 + F(1, 2**7))

    def test_exp_one_against_digits(self):
        res = exp_approx(BoundedReal(1, 0, 192), 192)
        assert abs(res.value - E_40) <= res.abs_error + F(1, 10**39)

    def test_input_too_uncertain_is_a_precision_error(self):
        # every real is in exp's domain; an error bound of 1 is a precision
        # problem, which the CLI reports apart from domain errors
        with pytest.raises(PrecisionError):
            exp_approx(BoundedReal(F(-5), F(1), 64), 64)
        assert not issubclass(PrecisionError, DomainError)

    def test_exp_of_inexact_log_contains_y(self):
        rng = random.Random(99)
        for _ in range(25):
            y = F(rng.randint(1, 2500), rng.randint(1, 50))
            logged = ln_ball(y, 128)
            assert logged.abs_error > 0
            back = exp_approx(logged, 128)
            assert contains(back, y)
            assert back.abs_error <= y * F(1, 2**100)

    def test_exact_non_dyadic_arguments_of_large_magnitude(self):
        # y = k + 1/3 has 6 integer digits of the d = 9..45 that the input
        # rounds to, so |y - v_d| is a sizable share of the bound
        rng = random.Random(1414)
        for bits in (8, 16, 64, 128):
            for _ in range(6):
                y = BoundedReal(F(3 * rng.randint(2**17, 2**19) + 1, 3), 0, bits)
                assert exp_approx(y, bits).overlaps(exp_full_precision(y, bits + 64)), (y, bits)

    def test_tightened_rows_lie_inside_the_old_ones(self):
        for (n, bits, route), (value, bound) in OLD_ROWS.items():
            report = verify_identity(n, 1000, 30, bits)
            ball = report.cosine if route == "cosine" else report.log_series
            assert ball.abs_error < bound, (n, bits)
            assert value - bound < ball.lower() <= ball.upper() < value + bound, (n, bits)


class TestWorkingPrecision:
    """The series and exp, run at the bits their inputs carry, against
    full-precision references (``conftest``: the same series, and exp by
    halving and Taylor): the intervals overlap, and the capped error is at
    most one 8-bit step wider."""

    STEP = 1 + F(1, 2**7)
    BITS = (8, 16, 64, 128, 512, 1024, 4096)

    def assert_close(self, capped, full):
        assert capped.overlaps(full)
        assert capped.abs_error <= full.abs_error * self.STEP

    @staticmethod
    def verify_ns():
        rng = random.Random(1111)
        return [F(11, 10), F(3, 2), F(5)] + [F(rng.randint(21, 200), 20) for _ in range(3)]

    def test_working_bits_are_the_guard_past_floor_log2_of_one_over_err(self):
        # acc + G with acc = floor(-log2 err), the largest a with 2^a err <=
        # 1, found here by Fraction comparison; 0 for err >= 1; capped at
        # bits + 16
        def largest_power(err):
            a = err.denominator.bit_length() - err.numerator.bit_length()
            while F(2) ** a * err > 1:
                a -= 1
            while F(2) ** (a + 1) * err <= 1:
                a += 1
            return a

        rng = random.Random(4444)
        errs = [F(1), F(3, 2), F(7), F(2**100 + 1, 3)]
        for k in (1, 2, 7, 8, 9, 64, 1000, 4095):
            errs += [F(1, 2**k), F(1, 2**k) + F(1, 2 ** (k + 40)),
                     F(1, 2**k) - F(1, 2 ** (k + 40))]
        errs += [F(rng.randrange(1, 256, 2), 2 ** rng.randint(0, 5000)) for _ in range(40)]
        for _ in range(40):
            den = rng.getrandbits(rng.randint(1000, 5000)) | 1
            num = (den >> rng.randint(0, 200)) + rng.choice((-1, 0, 1))
            errs += [F(max(num, 1), den), F(rng.getrandbits(64) | 1, den)]
        errs += [_coefficient_tail(F(rng.randint(2, 99), rng.randint(100, 10**4)) ** 2,
                                   rng.randint(1, 500)) for _ in range(20)]
        assert any(err.denominator.bit_length() > 1000 and err.denominator % 2
                   for err in errs)
        for err in errs:
            acc = max(largest_power(err), 0)
            for bits in (8, 128, 1024, 16384):
                expected = min(bits + 16, acc + analytic._GUARD_BITS)
                assert analytic._working_bits(bits, err) == expected, (err, bits)
        assert analytic._working_bits(128, F(0)) == 144

    def test_product_on_the_verify_route(self):
        # verify takes one product at the bits its log tail leaves, capped at
        # bits; product_trace's last snapshot takes it at bits + 32.  The
        # floor leaves the value with at most the fitted bits, and where the
        # cap binds the ball is the snapshot's (the blocks, grouped for one
        # mark, floor to the same value here)
        fitted_bits_reached = False
        for n in self.verify_ns():
            for bits in self.BITS:
                for factors in (10, 1000, 100_000):
                    if factors == 100_000 and bits > 256:
                        continue
                    case = n, bits, factors
                    capped = verify_identity(n, factors, 40, bits).product
                    full = product_trace(n, factors, bits)[-1]
                    lo, hi = full.interval()
                    assert capped.lower() <= hi and lo <= capped.upper(), case
                    assert capped.abs_error <= full.total_bound() * self.STEP, case
                    work = analytic._working_bits(bits, _product_log_tail(n, factors))
                    if work >= bits:
                        assert capped == real_from_rational(
                            full.value.value, bits, full.total_bound()), case
                        continue
                    num = capped.value.numerator
                    significant = (num >> (num & -num).bit_length() - 1).bit_length()
                    assert significant <= work, case
                    fitted_bits_reached |= significant == work
        assert fitted_bits_reached

    def test_series_and_exp_on_the_verify_route(self):
        for n in self.verify_ns():
            for bits in self.BITS:
                # pi/2n from the ball of pi whose ends the series reads at bits + 8
                x = scaled(pi_constant(bits + 24), F(n.denominator, 2 * n.numerator))
                for order in (5, 30, 40):
                    full = neg_log_series_full_precision(x, order, bits + 8)
                    self.assert_close(neg_log_product_series(n, order, bits + 8), full)
                    y = BoundedReal(-full.value, full.abs_error, full.precision_bits)
                    try:
                        full_exp = exp_full_precision(y, bits)
                    except PrecisionError:
                        with pytest.raises(PrecisionError):
                            exp_approx(y, bits)
                        continue
                    self.assert_close(exp_approx(y, bits), full_exp)

    def test_exp_over_seeded_arguments_and_errors(self):
        rng = random.Random(2222)
        for _ in range(40):
            bits = rng.choice(self.BITS)
            y = BoundedReal(F(rng.randint(-3000, 300), 100),
                            F(1, 2 ** rng.randint(1, bits + 40)), bits + 16)
            self.assert_close(exp_approx(y, bits), exp_full_precision(y, bits))


    def test_series_prologue_near_and_far_from_half_pi(self):
        # the tail is taken at the exact r = 1/n^2; for n within 2^-62 of 1,
        # r is within 2^-61 of 1, and 1 - r must still be exact
        rng = random.Random(3333)
        for case in range(32):
            bits = rng.choice((128, 512, 1024, 4096))
            if case % 2:
                n = 1 + F(rng.randint(1, 2**20), 2 ** rng.randint(60, 120))
            else:
                n = 1 + F(rng.randint(1, 2**20), 2**14)
            order = rng.choice((5, 30, 40))
            capped = neg_log_product_series(n, order, bits)
            x = scaled(pi_constant(bits + 16), F(n.denominator, 2 * n.numerator))
            full = neg_log_series_full_precision(x, order, bits)
            assert contains(capped, full.value)
            self.assert_close(capped, full)

            num, den = coefficient_tail_exact(1 / (n * n), order)
            tail = _coefficient_tail(1 / (n * n), order)
            assert num * tail.denominator <= tail.numerator * den
            assert num <= capped.abs_error * den


class TestRearrangement:
    def test_n3_overlaps_and_contains_truth(self):
        rep = rearrangement_check(3, 1_000, 20, 128)
        assert rep.overlap
        lo, hi = ln_bracket(F(4, 3))
        for est in (rep.row_sum, rep.column_sum):
            assert est.lower() <= lo / 2 and hi / 2 <= est.upper()

    def test_n10_overlaps_near_known_window(self):
        rep = rearrangement_check(10, 1_000, 10, 128)
        assert rep.overlap
        # -ln cos(pi/20) = 0.0123880757...
        for est in (rep.row_sum, rep.column_sum):
            assert est.lower() <= F("0.0123881")
            assert est.upper() >= F("0.0123880")

    def test_huge_n_leading_order(self):
        n = 10**6
        rep = rearrangement_check(n, 10, 3, 128)
        assert rep.overlap
        target = lambda_closed_form(1) * pi_constant(256).value ** 2 / n**2
        assert contains(rep.row_sum, target)
        assert contains(rep.column_sum, target)

    def test_non_integer_n(self):
        # x = pi/3, so the target is -ln cos(pi/3) = ln 2 itself
        rep = rearrangement_check(F(3, 2), 500, 25, 128)
        assert rep.overlap
        lo, hi = ln_bracket(F(2))
        assert rep.row_sum.lower() <= hi and lo <= rep.row_sum.upper()
        assert rep.column_sum.lower() <= hi and lo <= rep.column_sum.upper()

    def test_column_bound_carries_every_column_rounding(self, monkeypatch):
        # The column order rounds the exact sum of its columns once, carrying
        # sum_m (rounding_m + tail_m) qn^2m / (m pn^2m) plus the column tail,
        # both recomputed here from conftest's per-m loop at precision_bits
        # + 16 and _coefficient_tail.  The final abs_error alone cannot show a
        # column's rounding term dropped: that term is below 2^-14 of the
        # final rounding cap, which covers it.  So the error carried into
        # that last rounding is read too.
        carried = spy_on_rounding(monkeypatch)
        rng = random.Random(1818)
        for i in range(40):
            n = F(rng.randint(3, 80), rng.choice((1, 2)))
            rows, order = rng.randint(20, 300), rng.randint(1, 30)
            bits = rng.choice((8, 16, 64, 256))
            carried.clear()
            rep = rearrangement_check(n, rows, order, bits)
            pn, qn = n.numerator, n.denominator
            col = err = F(0)
            for m in range(1, order + 1):
                est = lambda_direct_reference(m, rows, bits + 16)
                weight = F(qn ** (2 * m), m * pn ** (2 * m))
                col += est.value.value * weight
                err += (est.value.abs_error + est.tail_bound) * weight
            err += _coefficient_tail(F(qn * qn, pn * pn), order)
            (col_err,) = [e for r, e in carried if r == col]
            assert col_err >= err, i
            assert rep.column_sum.abs_error >= err, i

    def test_rejects_n_at_or_below_one(self):
        with pytest.raises(DomainError):
            rearrangement_check(1, 10, 3, 64)
        with pytest.raises(DomainError):
            rearrangement_check(F(2, 3), 10, 3, 64)

    def test_row_estimate_is_at_least_its_loop_count_over_all_rows(self):
        def passes(a, shift):
            # a row of rearrangement_check, x = a^2: pw = floor(pw / x) until 0
            den, qn2 = a.numerator ** 2, a.denominator ** 2
            pw, count = (1 << shift) * qn2 // den, 0
            while pw:
                count += 1
                pw = pw * qn2 // den
            return count

        rng = random.Random(3030)
        for _ in range(100):
            a = rng.choice((rng.randint(1, 3000), rng.randint(1, 10**6)))
            n = 1 + F(rng.randint(1, 40), a)
            shift = rng.choice((8, 16, 64, 128, 1024, 4096)) + 32
            rows = rng.choice((1, 2, rng.randint(3, 40)))
            first, later = _row_passes(n, shift), _row_passes(3 * n, shift)
            if first <= 1 << 18:
                counts = [passes((2 * k - 1) * n, shift) for k in range(1, rows + 1)]
                assert first >= counts[0]
                assert all(later >= count for count in counts[1:])
                assert self.row_work(n, rows, shift) >= sum(counts) * (_PASS_BITS + shift)

    @staticmethod
    def row_work(n, rows, shift):
        # the charge of rearrangement_check: row 1 at n, every later row at 3n
        steps = _row_passes(n, shift) + (rows - 1) * _row_passes(3 * n, shift)
        return steps * (_PASS_BITS + shift)

    def test_every_row_is_charged(self):
        # at 128 bits n = 3 is admitted with 30,000 rows and refused with
        # 40,000; so is 7/3 with 1,000 rows at 20,000 bits, which ran 6 s
        # while the budget charged row 1 alone
        assert self.row_work(F(3), 30000, 160) <= _MAX_WORK
        assert self.row_work(F(3), 40000, 160) > _MAX_WORK
        with pytest.raises(WorkBudgetError, match="--rows"):
            rearrangement_check(3, 40000, 1, 128)
        with pytest.raises(WorkBudgetError, match="--rows"):
            rearrangement_check(F(7, 3), 1000, 40, 20000)

    def test_row_order_matches_its_reference(self, monkeypatch):
        # the row sum and the error carried into its rounding, against
        # conftest's plain loop over the rows: the final abs_error alone
        # would not show a count of a pass or a row rest dropped, as the
        # 8-bit round-up of the rows' log tail covers it
        carried = spy_on_rounding(monkeypatch)
        rng = random.Random(3232)
        cases = [(F(3), 1000, 128), (1 + F(1, 1000), 3, 8), (F(10**6), 1000, 512)]
        cases += [(rng.choice((1 + F(1, rng.randint(2, 64)), F(rng.randint(11, 400), 10),
                               F(rng.randint(10, 10**6)))),
                   rng.choice((1, 2, rng.randint(3, 100), rng.randint(100, 1000))),
                   rng.choice((8, 16, 64, 128, 512))) for _ in range(30)]
        for n, rows, bits in cases:
            carried.clear()
            rep = rearrangement_check(n, rows, 1, bits)
            value, err = row_order_reference(n, rows, bits)
            assert (value, err) in carried, (n, rows, bits)
            want = real_from_rational(value, bits, err)
            assert (rep.row_sum.value, rep.row_sum.abs_error) == (want.value, want.abs_error)

    def test_n_near_one_over_the_row_budget_is_refused(self):
        # each pass is charged _PASS_BITS + shift: allowed at 128 bits,
        # over the budget at 4096
        n = F(1001, 1000)
        assert self.row_work(n, 1, 160) <= _MAX_WORK
        assert self.row_work(n, 1, 4128) > _MAX_WORK
        with pytest.raises(WorkBudgetError, match="--n"):
            rearrangement_check(n, 1, 1, 4096)
        assert issubclass(WorkBudgetError, PrecisionError)

    def test_n_of_two_is_within_the_row_budget_at_16384_bits(self):
        # for n^2 >= 4 the estimate is shift // floor(log2 n^2) + 1, not the
        # drift bound, which would refuse every n at this precision
        shift = 16384 + 32
        assert self.row_work(F(2), 1, shift) <= _MAX_WORK
        assert rearrangement_check(2, 1, 1, 16384).overlap

    def test_the_row_budget_admits_three_halves_at_16384_bits(self):
        # a 16,416-bit pass is charged 56 times a 40-bit one, not 410 times
        # (one took about 60 times as long): n = 3/2 is admitted at 16,384
        # bits, 123/122 is not, and at 8 bits 100000001/100000000 is not
        shift = 16384 + 32
        assert self.row_work(F(3, 2), 1, shift) <= _MAX_WORK
        assert self.row_work(F(123, 122), 1, shift) > _MAX_WORK
        assert self.row_work(F(100000001, 100000000), 1, 40) > _MAX_WORK
        assert rearrangement_check(F(3, 2), 1, 1, 16384).overlap


class TestNoBallArithmetic:
    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__neg__")
    NS = (F(11, 10), F(3, 2), F(3), F(1000))
    BITS = (8, 128, 1024)

    @staticmethod
    def refuse(*args):
        raise AssertionError("a ball operator was reached")

    def test_the_routes_reach_no_ball_operator(self, monkeypatch):
        # every route sums in scaled integers or exact rationals and builds
        # its balls through real_from_rational or the constructor: no ball
        # operator at all, the cosine's pi/2n and exp's input included
        for name in self.OPERATORS:
            monkeypatch.setattr(BoundedReal, name, self.refuse)
        for bits in self.BITS:
            assert lambda_direct(3, 100, bits).value.value > 0
            assert product_trace(1, 100, bits)[-1].value.value == 0
            for n in self.NS:
                neg_log = neg_log_product_series(n, 30, bits)
                y = BoundedReal(-neg_log.value, neg_log.abs_error, bits)
                assert neg_log.value > 0
                assert product_trace(n, 100, bits)[-1].value.value > 0
                assert cos_half_pi_over(n, bits).value > 0
                assert exp_approx(y, bits).value > 0
                assert verify_identity(n, 100, 30, bits).verdict
                assert rearrangement_check(n, 50, 10, bits).overlap

    def test_verify_hands_exp_the_series_negated(self):
        # exp reads the series' value negated, with its error and its
        # precision bits + 8 kept, and the cosine is cos_half_pi_over's
        for n in self.NS:
            for bits in self.BITS:
                neg_log = neg_log_product_series(n, 30, bits + 8)
                y = BoundedReal(-neg_log.value, neg_log.abs_error, bits + 8)
                report = verify_identity(n, 100, 30, bits)
                assert report.log_series == exp_approx(y, bits), (n, bits)
                assert report.cosine == cos_half_pi_over(n, bits), (n, bits)

    def test_no_command_reaches_a_ball_operator(self, monkeypatch, capsys):
        # the five README commands and every golden's
        for name in self.OPERATORS:
            monkeypatch.setattr(BoundedReal, name, self.refuse)
        for argv in README_COMMANDS.values():
            assert cli.main(argv) == cli.EXIT_OK, argv


class TestExtremeParameters:
    """Soundness holds at the edges: minimum precision, n barely above 1.

    Target literals were computed to 50 digits with an independent
    arbitrary-precision tool and carry a 1e-45 slack for their own
    truncation.
    """

    SLACK = F(1, 10**45)

    def test_product_minimum_precision_near_one(self):
        cos_target = F("0.01555181192035087401015544673879955583168043875309")
        res = product_trace(F(101, 100), 5_000, 8)[-1]
        lo, hi = res.interval()
        assert lo - self.SLACK <= cos_target <= hi + self.SLACK

    def test_lambda_minimum_precision(self):
        est = lambda_direct(3, 17, 8)
        q = lambda_closed_form(3)
        pi_ref = pi_constant(256)
        lo, hi = est.bracket()
        assert lo <= q * pi_ref.lower() ** 6 and q * pi_ref.upper() ** 6 <= hi

    def test_neg_log_series_near_domain_edge(self):
        target = F("3.46060479895733132454982463431309068033470981210")
        # x = pi/2n = 49 pi / 100
        res = neg_log_product_series(F(50, 49), 120, 64)
        assert res.lower() - self.SLACK <= target <= res.upper() + self.SLACK

    def test_cos_beyond_half_pi(self):
        target = F("-0.80901699437494742410229341718281905886015458990")
        res = cos_approx(scaled(pi_constant(80), F(12, 10)), 64)
        assert res.lower() - self.SLACK <= target <= res.upper() + self.SLACK

    def test_cos_of_large_arguments_by_periodicity(self):
        # h grows with |x|, so that x / 2^h < 1; the reference reduces x by
        # 2 pi k first, with pi to 320 bits
        pi = pi_constant(320)
        for x in (F(1000), F(-12345 * 7 + 1, 7), F(2**40 + 1, 3), F(-(10**15))):
            k = round(x / (2 * pi.value))
            shift = combine_reference((pi.value, pi.abs_error), (-2 * k, 0), 320,
                                      product=True)
            ref = cos_full_precision(
                BoundedReal(*combine_reference((x, 0), shift, 320), 320), 128)
            res = cos_approx(BoundedReal(x, 0, 128), 128)
            assert res.overlaps(ref), x
            assert res.abs_error <= F(1, 2**125), x

    def test_rearrangement_near_one(self):
        target = F("4.16357812493601978035167932997590356560778217170")
        rep = rearrangement_check(F(101, 100), 50, 30, 64)
        assert rep.overlap
        for est in (rep.row_sum, rep.column_sum):
            assert est.lower() - self.SLACK <= target <= est.upper() + self.SLACK

    def test_exp_large_negative_argument(self):
        target = F("9.3576229688401746049158322233787067449583226889359e-14")
        res = exp_approx(BoundedReal(-30, 0, 32), 32)
        assert res.lower() - self.SLACK <= target <= res.upper() + self.SLACK

    def test_verify_identity_near_one(self):
        rep = verify_identity(F(101, 100), 3_000, 200, 32)
        assert rep.verdict


class TestVerifyIdentity:
    def test_n3(self):
        rep = verify_identity(3, 20_000, 30, 128)
        assert rep.verdict
        lo, hi = sqrt_bracket(F(3, 4))
        assert rep.cosine.lower() <= lo and hi <= rep.cosine.upper()
        assert rep.log_series.lower() <= lo and hi <= rep.log_series.upper()

    def test_n2(self):
        rep = verify_identity(2, 20_000, 60, 128)
        assert rep.verdict
        lo, hi = sqrt_bracket(F(1, 2))
        assert rep.log_series.lower() <= lo and hi <= rep.log_series.upper()

    def test_non_integer_n_exact_target(self):
        rep = verify_identity(F(3, 2), 20_000, 40, 128)
        assert rep.verdict
        lo, hi = product_trace(F(3, 2), 20_000, 128)[-1].interval()
        assert lo <= F(1, 2) <= hi
        assert contains(rep.cosine, F(1, 2))
        assert contains(rep.log_series, F(1, 2))

    def test_consistency_chain(self):
        # the series route and the product route must agree within bounds
        for n, factors, order in ((3, 500, 20), (F(5, 2), 2_000, 25), (10, 100, 10)):
            rep = verify_identity(n, factors, order, 96)
            gap = abs(rep.log_series.value - rep.product.value)
            assert gap <= rep.log_series.abs_error + rep.product.abs_error

    def test_rejects_n_at_or_below_one(self):
        with pytest.raises(DomainError):
            verify_identity(1, 10, 5, 64)
        with pytest.raises(DomainError):
            verify_identity(F(1, 2), 10, 5, 64)

    def test_rejects_no_factors_and_too_little_precision(self):
        with pytest.raises(ValueError):
            verify_identity(3, 0, 5, 64)
        with pytest.raises(ValueError):
            verify_identity(3, 10, 5, 7)


@pytest.mark.parametrize("call, message", [
    (lambda: lambda_direct_table(0, 10, 64), "m_max must be at least 1"),
    (lambda: lambda_direct_table(1, 0, 64), "num_terms must be at least 1"),
    (lambda: lambda_direct_table(1, 10, 7), "precision_bits must be at least 8"),
    (lambda: closed_forms(3, 4), "precision_bits must be at least 8"),
    (lambda: product_trace(3, 0, 64), "num_factors must be at least 1"),
    (lambda: neg_log_product_series(3, 0, 64), "order must be at least 1"),
    (lambda: rearrangement_check(3, 0, 1, 64),
     "num_rows and series_order must be at least 1"),
    (lambda: bernoulli_numbers(-1), "k_max must be nonnegative"),
    (lambda: tangent_coefficients(0), "m_max must be at least 1"),
    (lambda: OddSeries(()), "series must carry at least one term"),
    (lambda: real_from_rational(1, 64, -1), "error bounds must be nonnegative"),
])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
