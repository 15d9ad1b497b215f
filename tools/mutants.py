"""Run a fixed table of mutants of the package, each against the tests that kill it.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file of this checkout, an exact snippet
of it, the snippet's replacement and the tests (pytest node ids) that must
fail once the replacement is made.  First every snippet must occur exactly
once in its file, or the table is stale and nothing runs.  Then the named
tests of all entries run once on an unmutated copy, where they must pass.
Then for each mutant ``src/`` and ``tests/`` are copied into a temporary
directory, the replacement is made there, and its tests run in a fresh
pytest process: the mutant is killed if they fail or run past
``TIMEOUT_S``, and survives if they pass.

No entry may name a test of ``tests/test_golden.py``, so a golden never
counts as a kill.  A survivor is killed with a new test, never dropped; a
mutant that no test can kill, as it changes no behaviour, is kept as a
comment in the table with the reason.

The exit code is 1 if the table is stale, if the unmutated tests fail, or
if a mutant survives or its run errs; else 0.  Stdlib and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
WORKERS = 2
GOLDEN = "tests/test_golden.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


ANALYTIC = "src/cosprod/analytic.py"
SUMS = ("tests/test_analytic.py::TestCoefficientPowers"
        "::test_sums_at_one_point_bracket_the_exact_partial_sums")
PI_ENDS = "tests/test_cli.py::TestClosedForms::test_rounded_from_the_powers_at_the_ends_of_pi"
OUTWARD = ("tests/test_analytic.py::TestCoefficientPowers"
           "::test_the_series_reads_its_ends_and_divides_by_m_outward")
DIGITS = ("tests/test_output.py::test_pre_scaled_digits_and_flag_match_one_full_division",
          "tests/test_output.py::test_pre_scaling_past_binary_exponent_two_to_the_18")
NO_ARITHMETIC = "tests/test_arith.py::TestBoundedRealOps::test_a_ball_has_no_arithmetic"
READS = "tests/test_arith.py::TestRoundingOracle::test_every_read_is_the_reduced_fraction"
ROW_EDGE = ("tests/test_cli.py::TestProduct"
            "::test_a_row_passes_with_the_cosine_at_total_plus_its_error")
PRINTED_ENDS = ("tests/test_cli.py::TestFormatting"
                "::test_printed_ends_contain_the_ball_and_the_truth")
FLOORS = ("tests/test_analytic.py::TestCosineHalving"
          "::test_the_count_covers_the_floors_for_every_number_of_terms")
TABLE = "tests/test_analytic.py::TestLambdaDirectTable::test_every_field_matches_lambda_direct"
ROWS = "tests/test_analytic.py::TestRearrangement"
ROW_ORDER = f"{ROWS}::test_row_order_matches_its_reference"
WORKING_BITS = ("tests/test_analytic.py::TestWorkingPrecision"
                "::test_working_bits_are_the_guard_past_floor_log2_of_one_over_err")
SERIES_ERROR = "Fraction(s_hi - s_lo, 2 << frac_bits) + tail)"
# verify_identity's exp of the series and its product, which exp's
# refusal comes before
VERIFY_EXP = ("    log_series = exp_approx(real_from_rational(-neg_log.value, neg_log.precision_bits,\n"
              "                                               neg_log.abs_error), precision_bits)\n")
VERIFY_PRODUCT = ("    bits = min(precision_bits,\n"
            "               _working_bits(precision_bits, _product_log_tail(n, num_factors)))\n"
            "    detail = _partial_products(n, [num_factors], bits)[0]\n")
BUDGET = "tests/test_analytic.py::TestWorkBudget"
TABLE_LIMIT = f"{BUDGET}::test_the_table_budget_admits_its_limit_and_refuses_past_it"
PRODUCT_LIMIT = f"{BUDGET}::test_the_product_budget_admits_its_limit_and_refuses_past_it"
PRECISION_CAP = "tests/test_cli.py::TestPrecisionCap::test_the_cap_is_admitted_and_one_more_refused"
RECURRENCE = "src/cosprod/recurrence.py"
TABLE_CAP = "tests/test_analytic.py::TestTableCap::test_the_tables_admit_the_cap_and_refuse_one_more"
TANGENT = ("tests/test_recurrence.py::TestCoefficientTable::test_hand_evaluated_first_four",
           "tests/test_recurrence.py::TestCoefficientTable"
           "::test_matches_knuth_buckholtz_tangent_numbers_to_400")
BERNOULLI = "tests/test_recurrence.py::TestBernoulli"
FOLDED_SQUARE = ("tests/test_series.py::TestOdeResidual::test_against_naive_multiplication",
                 "tests/test_series.py::TestPicardFixedPoint"
                 "::test_matches_recurrence_at_every_order_through_60")

MUTANTS = (
    # the directed-rounding chain of _coefficient_powers, each link rounded
    # the wrong way
    Mutant("low step raised", ANALYTIC,
           "lo_step = (lo_num ** 2 << frac_bits) // lo_den ** 2",
           "lo_step = -(-(lo_num ** 2 << frac_bits) // lo_den ** 2)",
           (SUMS, PI_ENDS)),
    Mutant("high step floored", ANALYTIC,
           "hi_step = -(-(hi_num ** 2 << frac_bits) // hi_den ** 2)",
           "hi_step = (hi_num ** 2 << frac_bits) // hi_den ** 2",
           (SUMS, PI_ENDS)),
    Mutant("low chain raised", ANALYTIC,
           "low = low * lo_step >> frac_bits",
           "low = -(-low * lo_step >> frac_bits)",
           (PI_ENDS,)),
    Mutant("high chain floored", ANALYTIC,
           "high = -(-high * hi_step >> frac_bits)",
           "high = high * hi_step >> frac_bits",
           (SUMS, PI_ENDS)),
    Mutant("low term raised", ANALYTIC,
           "yield low * c.numerator // c.denominator,",
           "yield -(-low * c.numerator // c.denominator),",
           (SUMS, PI_ENDS)),
    Mutant("high term floored", ANALYTIC,
           "-(-high * c.numerator // c.denominator)",
           "high * c.numerator // c.denominator",
           (SUMS, PI_ENDS)),
    # the series: pi/2n's ends read outward, the divisions by m outward
    Mutant("series high end read down", ANALYTIC,
           "hi = -(-(hp * qn << read) // (2 * pn * hq)), 1 << read",
           "hi = (hp * qn << read) // (2 * pn * hq), 1 << read",
           (OUTWARD,)),
    Mutant("series low end read up", ANALYTIC,
           "lo = (lp * qn << read) // (2 * pn * lq), 1 << read",
           "lo = -(-(lp * qn << read) // (2 * pn * lq)), 1 << read",
           (OUTWARD,)),
    Mutant("series low division by m raised", ANALYTIC,
           "s_lo = sum(low // m for m, (low, _) in terms)",
           "s_lo = -sum(-low // m for m, (low, _) in terms)",
           (OUTWARD,)),
    Mutant("series high division by m floored", ANALYTIC,
           "s_hi = -sum(-high // m for m, (_, high) in terms)",
           "s_hi = sum(high // m for m, (_, high) in terms)",
           (OUTWARD,)),
    Mutant("series error without its tail", ANALYTIC,
           SERIES_ERROR,
           "Fraction(s_hi - s_lo, 2 << frac_bits))",
           ("tests/test_analytic.py::TestNegLogProductSeries"
            "::test_contains_minus_log_cos_over_seeded_n",)),
    Mutant("series error without its half width", ANALYTIC,
           SERIES_ERROR,
           "tail)",
           (OUTWARD,)),
    Mutant("series admits n = 1", ANALYTIC,
           "    if n <= 1:\n        raise DomainError(\"the series requires n > 1",
           "    if n < 1:\n        raise DomainError(\"the series requires n > 1",
           ("tests/test_analytic.py::TestVerifyIdentity::test_rejects_n_at_or_below_one",
            "tests/test_cli.py::TestVerify::test_n_one_domain_exit")),
    Mutant("series fixed point without its zeros", ANALYTIC,
           "zeros = max((2 * pn * lq).bit_length() - (lp * qn).bit_length(), 0)",
           "zeros = 0",
           ("tests/test_analytic.py::TestExpLog::test_tightened_rows_lie_inside_the_old_ones",
            "tests/test_analytic.py::TestWorkingPrecision"
            "::test_series_and_exp_on_the_verify_route")),
    # lambda_direct_table's one pass over k, in chunks of odd d.  The cut at
    # a level's first zero drops only zeros, so no total can see it; the
    # count of divisions does, against the budget's estimate
    Mutant("lambda chunk one odd short", ANALYTIC,
           "range(start, min(start + 2 * _LAMBDA_CHUNK, end), 2)",
           "range(start, min(start + 2 * _LAMBDA_CHUNK - 2, end), 2)",
           (TABLE,)),
    Mutant("lambda squares of d + 2", ANALYTIC,
           "squares = [d * d for d in",
           "squares = [(d + 2) * (d + 2) for d in",
           (TABLE,)),
    Mutant("lambda level stop ending every level", ANALYTIC,
           "                live = level\n",
           "                live = 0\n",
           (TABLE,)),
    Mutant("lambda level cut dropped", ANALYTIC,
           "            if not q[-1]:  # else each level above divides the zeros again\n"
           "                del q[q.index(0):]\n",
           "",
           (f"{BUDGET}::test_each_estimate_is_at_least_its_count",)),
    Mutant("lambda level cut one before its first zero", ANALYTIC,
           "del q[q.index(0):]",
           "del q[q.index(0) - 1:]",
           (TABLE,)),
    Mutant("coefficient tail one power short", ANALYTIC,
           "r ** (order + 1) / ((order + 1) * (1 - r))",
           "r ** order / ((order + 1) * (1 - r))",
           ("tests/test_analytic.py::TestCoefficientTail",)),
    # verify's refusals, each before the product and the cosine, and exp's
    # input, the series negated with its error
    Mutant("verify multiplies before exp", ANALYTIC,
           VERIFY_EXP + VERIFY_PRODUCT,
           VERIFY_PRODUCT + VERIFY_EXP,
           ("tests/test_cli.py::TestVerify::test_a_refusal_comes_before_the_product_and_the_cosine",)),
    Mutant("exp's input without its error", ANALYTIC,
           "neg_log.precision_bits,\n"
           "                                               neg_log.abs_error), precision_bits)",
           "neg_log.precision_bits), precision_bits)",
           ("tests/test_analytic.py::TestNoBallArithmetic"
            "::test_verify_hands_exp_the_series_negated",)),
    # the working precision, acc + G with acc = floor(-log2 err)
    Mutant("working bits one past floor(log2 1/err)", ANALYTIC,
           "acc = (err.denominator // err.numerator).bit_length() - 1",
           "acc = (err.denominator // err.numerator).bit_length()",
           (WORKING_BITS,)),
    Mutant("working bits one short", ANALYTIC,
           "acc = (err.denominator // err.numerator).bit_length() - 1",
           "acc = (err.denominator // err.numerator).bit_length() - 2",
           (WORKING_BITS,)),
    # the row order: the budget of its rows, the count of its floors
    Mutant("rows past the first charged nothing", ANALYTIC,
           " + (num_rows - 1) * _row_passes(3 * n, shift)",
           "",
           (f"{ROWS}::test_every_row_is_charged",
            "tests/test_cli.py::TestRearrange::test_rows_at_high_precision_are_refused_by_their_bits")),
    Mutant("row pass counted without its drift", ANALYTIC,
           "err_ulps += drift + 1",
           "err_ulps += 1",
           (ROW_ORDER,)),
    Mutant("row rest without its drift", ANALYTIC,
           "-(-(drift * den << 16) //",
           "-(-(den << 16) //",
           (ROW_ORDER,)),
    Mutant("closed forms centred at the low end", ANALYTIC,
           "real_from_rational(Ratio(low + high, den), work, Ratio(high - low, den))",
           "real_from_rational(Ratio(2 * low, den), work, Ratio(high - low, den))",
           ("tests/test_cli.py::TestClosedForms",)),
    # the cosine: the versine series' count of its floors, its terms, and
    # the doubling's one square rounded down.  Dropping A_j (c_err, the
    # block coefficients times the powers' errors) is not listed, as no
    # test can see it.  While u < 1, as in cos_approx, it changes nothing:
    # A_j < D_j / 20 and B <= 4 <= D_j / 6 (or A_j = 0 at b = 1), so
    # ceil((A_j + B) / D_j) = 1 either way.  Above, it lowers the count,
    # but the W e term of B is larger, and against the exact K-term sum the
    # floors' true error stayed below 0.68 of the count without A_j over
    # 23,000 seeded series at F = 8..128.
    Mutant("versine product error dropped", ANALYTIC,
           "product_err = ((w * err + w_low * (abs(r) + err)) >> frac_bits) + 2",
           "product_err = 2",
           (FLOORS,)),
    Mutant("versine division counted without its +1", ANALYTIC,
           "err = -(-(c_err + product_err) // coeff) + 1",
           "err = -(-(c_err + product_err) // coeff)",
           (FLOORS,)),
    Mutant("versine one term short", ANALYTIC,
           "    return terms\n",
           "    return max(terms - 1, 1)\n",
           (FLOORS, "tests/test_analytic.py::TestCosineHalving"
                    "::test_versine_remainder_alone_covers_a_coarse_cutoff")),
    Mutant("square rounded up", ANALYTIC,
           "s = 4 * s + (-(s * s) >> (frac_bits - 1))",
           "s = 4 * s - (s * s >> (frac_bits - 1))",
           ("tests/test_analytic.py::TestCosineHalving::test_the_square_is_the_product_form",)),
    Mutant("cosine count of 1", ANALYTIC,
           "precision_bits + 16, Ratio(err, one))",
           "precision_bits + 16, Ratio(1, one))",
           ("tests/test_analytic.py::TestCosApprox::test_half_pi_contains_zero",)),
    # the numeric flags read their whole text
    Mutant("integer flags matched at the start only", "src/cosprod/cli.py",
           "if _INTEGER_RE.fullmatch(text):",
           "if _INTEGER_RE.match(text):",
           ("tests/test_cli.py::TestNumericFlags",)),
    Mutant("--n matched at the start only", "src/cosprod/cli.py",
           "if not _RATIONAL_RE.fullmatch(text):",
           "if not _RATIONAL_RE.match(text):",
           ("tests/test_cli.py::TestNumericFlags",
            "tests/test_cli.py::TestVerify::test_decimal_n_rejected")),
    # the printed ends of a ball, rounded outward
    Mutant("low rounded half-up", "src/cosprod/cli.py",
           '"low": format_decimal(est.lower(), bound, ROUND_FLOOR),',
           '"low": format_decimal(est.lower(), bound),',
           (PRINTED_ENDS,)),
    Mutant("high rounded down", "src/cosprod/cli.py",
           '"high": format_decimal(est.upper(), bound, ROUND_CEILING),',
           '"high": format_decimal(est.upper(), bound, ROUND_FLOOR),',
           (PRINTED_ENDS,)),
    # output._to_digits: the pre-scaling and its sticky half
    Mutant("sticky half for exact quotients too", "src/cosprod/output.py",
           "        if r:\n            half = ",
           "        if True:\n            half = ",
           DIGITS),
    Mutant("plain a in place of the sticky half", "src/cosprod/output.py",
           "Decimal(10 * a + 5 if p > 0 else -10 * a - 5), -s - 1)",
           "Decimal(a if p > 0 else -a), -s)",
           DIGITS),
    Mutant("0.30102 at both signs", "src/cosprod/output.py",
           "t * (30102 if t >= 0 else 30103) // 100000",
           "t * 30102 // 100000",
           DIGITS),
    Mutant("s one digit short", "src/cosprod/output.py",
           "s = digits - t *",
           "s = digits - 1 - t *",
           DIGITS),
    Mutant("printed bound rounded down", "src/cosprod/output.py",
           "d, _ = _to_digits(bound.numerator, bound.denominator, 2, ROUND_CEILING)",
           "d, _ = _to_digits(bound.numerator, bound.denominator, 2, ROUND_FLOOR)",
           ("tests/test_output.py::test_a_balls_interval_lies_inside_its_printed_contract",)),
    # the cap on a table's m, one comparison for every table, moved by one
    # either way
    Mutant("table cap refusing the cap", RECURRENCE,
           "if m_max > MAX_TABLE_M:",
           "if m_max >= MAX_TABLE_M:",
           (TABLE_CAP,)),
    Mutant("table cap admitting one more", RECURRENCE,
           "if m_max > MAX_TABLE_M:",
           "if m_max > MAX_TABLE_M + 1:",
           (TABLE_CAP,)),
    # the folded convolutions and the Bernoulli denominator
    Mutant("tangent numbers without the doubling", RECURRENCE,
           "            t *= 2\n",
           "",
           TANGENT),
    Mutant("tangent numbers without the middle term", RECURRENCE,
           "t += binom * prefix[m // 2 - 1][0] ** 2",
           "pass",
           TANGENT),
    Mutant("tangent numbers one pair short at odd m", RECURRENCE,
           "for i in range(1, (m + 1) // 2):",
           "for i in range(1, m // 2):",
           TANGENT),
    # each c_m's check, 0 < T_m < (2m-1)(2m-2) T_(m-1), on integers
    Mutant("monotonicity bound without its (2m-2)", RECURRENCE,
           "0 < t < (2 * m - 1) * (2 * m - 2) * prefix[-1][0]",
           "0 < t < (2 * m - 1) * prefix[-1][0]",
           ("tests/test_recurrence.py::TestCoefficientTable::test_hand_evaluated_first_four",)),
    Mutant("monotonicity check at equality passes", RECURRENCE,
           "0 < t < (2 * m - 1) * (2 * m - 2) * prefix[-1][0]",
           "0 < t <= (2 * m - 1) * (2 * m - 2) * prefix[-1][0]",
           ("tests/test_recurrence.py::TestCoefficientTable"
            "::test_a_coefficient_equal_to_its_predecessor_stops_the_extension",)),
    Mutant("monotonicity check without its zero", RECURRENCE,
           "0 < t < (2 * m - 1) * (2 * m - 2) * prefix[-1][0]",
           "t < (2 * m - 1) * (2 * m - 2) * prefix[-1][0]",
           ("tests/test_recurrence.py::TestCoefficientTable"
            "::test_a_zero_tangent_number_stops_the_extension",)),
    # Ramanujan's lacunary recurrence for the Bernoulli oracle, and the
    # tangent coefficients built from it
    Mutant("Ramanujan constant at k = 4 (mod 6) with its sign flipped", RECURRENCE,
           "-(denom // 6) * n",
           "denom // 6 * n",
           (f"{BERNOULLI}::test_ramanujan_first_four",)),
    Mutant("Ramanujan binomial started at C(n, 8)", RECURRENCE,
           "binom = comb(n, 9)",
           "binom = comb(n, 8)",
           (f"{BERNOULLI}::test_ramanujan_first_four",)),
    Mutant("Ramanujan sum stepped by 4", RECURRENCE,
           "for i in range(k - 6, -1, -6):",
           "for i in range(k - 6, -1, -4):",
           (f"{BERNOULLI}::test_defining_recurrence_resubstitution",
            f"{BERNOULLI}::test_every_value_to_410_against_knuth_buckholtz")),
    Mutant("tangent coefficient with 4^m for 4^m - 1", RECURRENCE,
           "4**m * (4**m - 1) * b[2 * m].numerator",
           "4**m * 4**m * b[2 * m].numerator",
           ("tests/test_recurrence.py::TestTangentCoefficients::test_leading_terms",)),
    Mutant("square without its middle term", "src/cosprod/series.py",
           "s += cs[half] * cs[half]",
           "pass",
           FOLDED_SQUARE),
    Mutant("square without the doubling", "src/cosprod/series.py",
           "s = 2 * sum(a * b for a, b in zip(cs[:half], reversed(cs[k - half:k])))",
           "s = sum(a * b for a, b in zip(cs[:half], reversed(cs[k - half:k])))",
           FOLDED_SQUARE),
    Mutant("Bernoulli denominator without k_max+1", RECURRENCE,
           "denom = lcm(*range(1, k_max + 2))",
           "denom = lcm(*range(1, k_max + 1))",
           ("tests/test_recurrence.py::TestBernoulli::test_every_table_is_a_prefix_of_the_largest",)),
    # the product's rows: total = e + U t, passed while within total plus
    # the cosine's error
    Mutant("row check at equality fails", "src/cosprod/cli.py",
           "ok = deviation <= total + c_err",
           "ok = deviation < total + c_err",
           (ROW_EDGE,)),
    Mutant("row check without the cosine's error", "src/cosprod/cli.py",
           "ok = deviation <= total + c_err",
           "ok = deviation <= total",
           (ROW_EDGE, "tests/test_cli.py::TestProduct::test_rows_against_fraction_arithmetic")),
    Mutant("total bound from the value, not the upper end", ANALYTIC,
           "e + self.value.upper() * t",
           "e + self.value.value * t",
           (ROW_EDGE, "tests/test_analytic.py::TestPartialProduct"
            "::test_total_bound_is_the_error_plus_the_upper_end_times_the_tail")),
    # arith
    Mutant("ball negation restored", "src/cosprod/arith.py",
           "        __truediv__ = __neg__ = None\n",
           "        __truediv__ = None\n"
           "    __neg__ = lambda self: BoundedReal._make(_neg(self._v), self._e,\n"
           "                                             self.precision_bits)\n",
           (NO_ARITHMETIC,)),
    # a ball's ends as lowest-terms Fractions: stripped when dyadic,
    # reduced by Fraction otherwise
    Mutant("end read without stripping its zeros", "src/cosprod/arith.py",
           "end = _fraction(_canon(n, x))",
           "end = _fraction((n, x, 1))",
           (READS,)),
    Mutant("non-dyadic end read without reduction", "src/cosprod/arith.py",
           "return end if d == 1 else end / d",
           "return end if d == 1 else Fraction(_Coprime(end.numerator, end.denominator * d))",
           (READS,)),
    Mutant("reads built from the registered pair", "src/cosprod/arith.py",
           "Fraction(_Coprime(n << x, d) if x >= 0 else _Coprime(n, d << -x))",
           "Fraction(_CoprimePair(n << x, d) if x >= 0 else _CoprimePair(n, d << -x))",
           ("tests/test_arith.py::TestRoundingOracle"
            "::test_repeated_reads_take_one_subclass_check_each",)),
    Mutant("error rounded to nearest", "src/cosprod/arith.py",
           "return _neg(_round_sig(_neg(t), 8, floor=True)[0])",
           "return _round_sig(t, 8)[0]",
           ("tests/test_arith.py::TestRoundingOracle::test_random_real_from_rational",)),
    # the triple layer's one path per operation
    Mutant("sum without its cross factor", "src/cosprod/arith.py",
           "(n1 * d2 << (x1 - x))",
           "(n1 << (x1 - x))",
           ("tests/test_arith.py::TestRoundingOracle::test_overlaps_against_the_interval_ends",)),
    Mutant("quantizer dividing by the odd part alone", "src/cosprod/arith.py",
           "num, den = (n << s, d) if s >= 0 else (n, d << -s)",
           "num, den = (n << s, d) if s >= 0 else (n, d)",
           ("tests/test_arith.py::TestRoundingOracle::test_random_real_from_rational",)),
    # the work budgets and the precision cap at their limits, and the
    # table's estimate
    Mutant("table budget refusing its limit", ANALYTIC,
           "if passes * (_PASS_BITS + shift) > _MAX_TABLE_WORK:",
           "if passes * (_PASS_BITS + shift) >= _MAX_TABLE_WORK:",
           (TABLE_LIMIT,)),
    Mutant("table budget admitting one more", ANALYTIC,
           "if passes * (_PASS_BITS + shift) > _MAX_TABLE_WORK:",
           "if passes * (_PASS_BITS + shift) > _MAX_TABLE_WORK + 1:",
           (TABLE_LIMIT,)),
    Mutant("table estimate one division short", ANALYTIC,
           "min(m_max, shift // (2 * (b - 1)) + 1)",
           "min(m_max, shift // (2 * (b - 1)))",
           (f"{BUDGET}::test_each_estimate_is_at_least_its_count",)),
    Mutant("product budget refusing its limit", ANALYTIC,
           "if marks[-1] * (_PASS_BITS + bits) > _MAX_WORK:",
           "if marks[-1] * (_PASS_BITS + bits) >= _MAX_WORK:",
           (PRODUCT_LIMIT,)),
    Mutant("product budget admitting one more", ANALYTIC,
           "if marks[-1] * (_PASS_BITS + bits) > _MAX_WORK:",
           "if marks[-1] * (_PASS_BITS + bits) > _MAX_WORK + 1:",
           (PRODUCT_LIMIT,)),
    Mutant("precision cap refusing the cap", "src/cosprod/cli.py",
           "if cap is not None and value > cap:",
           "if cap is not None and value >= cap:",
           (PRECISION_CAP,)),
    Mutant("precision cap admitting one more", "src/cosprod/cli.py",
           "if cap is not None and value > cap:",
           "if cap is not None and value > cap + 1:",
           (PRECISION_CAP,)),
    # the column order's one denominator
    Mutant("column sum without its Horner step", ANALYTIC,
           "total = total * q + c.numerator",
           "total = total + c.numerator",
           (f"{ROWS}::test_column_bound_carries_every_column_rounding",)),
    Mutant("column sum over the odd parts alone", ANALYTIC,
           "den = twos * lcm(",
           "den = lcm(",
           (f"{ROWS}::test_column_bound_carries_every_column_rounding",)),
    Mutant("column error without its tail", ANALYTIC,
           "Fraction(*err) + tail)",
           "Fraction(*err))",
           (f"{ROWS}::test_column_bound_carries_every_column_rounding",)),
)


def problems(mutants) -> list[str]:
    """A stale snippet or a golden named as a test, one line each."""
    found = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            found.append(f"stale: {m.name}: the snippet occurs {count} times in {m.path}")
        found += [f"golden: {m.name}: {t}" for t in m.tests if t.startswith(GOLDEN)]
        if not m.tests:
            found.append(f"no tests: {m.name}")
    return found


def run_tests(tests, mutant: Mutant | None = None) -> str:
    """'pass', 'fail', 'timeout' or 'error': `tests` on a copy of src/ and
    tests/, with `mutant` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        # an ini file of its own keeps pytest from reading one further up
        (tree / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
        if mutant is not None:
            path = tree / mutant.path
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "pass", 1: "fail"}.get(done.returncode, "error")


def run(mutants) -> int:
    found = problems(mutants)
    for line in found:
        print(line)
    if found:
        return 1
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    if run_tests(tests) != "pass":
        print("the unmutated tests do not pass")
        return 1

    def one(m: Mutant) -> tuple[Mutant, str, float]:
        start = time.perf_counter()
        outcome = run_tests(m.tests, m)
        return m, outcome, time.perf_counter() - start

    counts = {"killed": 0, "survived": 0, "error": 0}
    with ThreadPoolExecutor(WORKERS) as pool:
        for m, outcome, seconds in pool.map(one, mutants):
            verdict = {"fail": "killed", "timeout": "killed", "pass": "survived"}.get(
                outcome, "error")
            counts[verdict] += 1
            note = " (timeout)" if outcome == "timeout" else ""
            print(f"{verdict}{note}: {m.name} ({seconds:.1f} s)")
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
