import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction as F
from pathlib import Path

import pytest

from cosprod import analytic, cli
from cosprod.analytic import product_trace, rearrangement_check, verify_identity
from cosprod.arith import (BoundedReal, PrecisionError, WorkBudgetError, pi_constant,
                           real_from_rational)
from cosprod.recurrence import MAX_TABLE_M, lambda_coefficients
from cosprod.output import OutputRecord, format_bound, format_decimal, render_json
from conftest import combine_reference, cos_full_precision, pi_bracket
from test_analytic import neg_log_cos_bracket, spy_on_rounding
from test_golden import README_COMMANDS


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormatting:
    def test_rational_lowest_terms_in_output(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--m-max", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[3]["c_m"] == "17/630"
        assert rows[3]["tangent_coeff"] == "17/315"
        assert rows[0]["c_m"] == "1/2"

    def test_decimal_rendering_respects_bound(self):
        # bound 1e-4 certifies 4 leading digits; two guards allowed
        text = format_decimal(F("1.23370055"), F(1, 10**4))
        assert text.startswith("1.2337")
        assert len(text) <= 2 + 6  # "1." plus at most certain+2 digits

    def test_decimal_zero_certainty_prints_guards_only(self):
        # bound within a decade of the value certifies nothing: 2 guard digits
        text = format_decimal(F("1.23370055"), F(1, 2))
        assert text == "1.2"

    def test_decimal_exact_terminating(self):
        assert format_decimal(F(1, 2), F(0)) == "0.5"
        assert format_decimal(F(0), F(0)) == "0"
        assert format_decimal(F(-3, 4), F(0)) == "-0.75"

    def test_decimal_scientific_for_tiny(self):
        text = format_decimal(F(12337, 10**16), F(1, 10**18))
        assert "e-" in text

    def test_fixed_layout_for_exponents_from_minus_4_to_15(self):
        bound = F(1, 10**12)
        assert format_decimal(F(12345, 10**8), bound) == "0.00012345"
        assert format_decimal(F(12345, 10**9), bound) == "1.2345e-05"
        assert format_decimal(F(10**15 + 1), F(1)) == "1000000000000001"
        assert format_decimal(F(10**16 + 1), F(1)) == "1.0000000000000001e+16"

    def test_bound_rounded_upward(self):
        rendered = format_bound(F(24057, 10**10))
        assert rendered == "2.5e-06"
        assert format_bound(F(0)) == "0"

    def test_numbers_past_the_int_to_str_digit_limit(self):
        # numerators and denominators of 5000 digits, as at ~15000 bits
        value = F(10**5000 + 7, 3 * 10**4999)
        assert value.numerator > 10**4300  # past sys.get_int_max_str_digits()
        assert format_decimal(value, F(1, 10**20)) == "3." + "3" * 21
        assert format_decimal(value, F(1, 3**9000)).startswith("3." + "3" * 30)
        bound = F(1, 3**9000)
        mantissa, exponent = format_bound(bound).split("e")
        printed = F(mantissa) * F(10) ** int(exponent)
        assert bound <= printed <= bound * F(11, 10)

    def test_exact_value_past_the_digit_limit_is_rounded(self):
        # 2^-15000 = 10^-4515.45...; its exact expansion has 10485 significant digits
        text = format_decimal(F(1, 2**15000), F(0))
        assert text.startswith("3.5486") and text.endswith("e-4516")

    def test_exact_value_of_more_than_36_digits_is_rounded(self):
        # 10^35 has 36 digits and prints in full; 10^36 has 37 and is rounded
        assert format_decimal(F(10**35), F(0)) == "1" + "0" * 35
        assert format_decimal(F(10**36), F(0)) == "1e+36"
        assert format_decimal(-F(10**40), F(0)) == "-1e+40"

    def test_interval_rows_print_the_ends_of_each_ball(self):
        # a row prints a ball's value, the lower end rounded down as low and
        # the upper end rounded up as high
        for n, bits in ((F(11, 10), 4096), (F(3), 128), (F(7), 16)):
            report = verify_identity(n, 100, 20, bits)
            rep = rearrangement_check(n, 50, 10, bits)
            estimates = [("product", report.product), ("log_series", report.log_series),
                         ("cosine", report.cosine), ("row_order", rep.row_sum),
                         ("column_order", rep.column_sum)]
            for name, est in estimates:
                b = est.abs_error
                assert cli._interval_row(name, est) == {
                    "method": name, "value": format_decimal(est.value, b),
                    "bound": format_bound(b),
                    "low": format_decimal(est.lower(), b, ROUND_FLOOR),
                    "high": format_decimal(est.upper(), b, ROUND_CEILING)}, (n, bits, name)

    def test_printed_ends_contain_the_ball_and_the_truth(self):
        # seeded verify and rearrange runs from 8 to 16,384 bits: each row's
        # printed [low, high] holds its ball, and the truth from the conftest
        # oracles, cos(pi/2n) for verify and -log cos(pi/2n) for rearrange
        # (a printed end has at most 36 digits, so brackets of 2^-150 do)
        rng = random.Random(2626)
        neg_log_cos = functools.cache(lambda n: neg_log_cos_bracket(n, 192, F(1, 2**150)))
        checked = 0
        for bits in (8, 16384, *(rng.randint(8, 2 ** rng.randint(4, 14)) for _ in range(16))):
            q = rng.choice((1, 2, 3, 7, 10, 64, 1000))
            n = F(q + rng.choice((1, rng.randint(1, q), rng.randint(q, 20 * q))), q)
            cos = cos_full_precision(pi_constant(256) * F(n.denominator, 2 * n.numerator), 192)
            runs = [(verify_identity, (rng.randint(1, 2000), rng.randint(1, 40)),
                     ("product", "log_series", "cosine"), (cos.lower(), cos.upper())),
                    (rearrangement_check, (rng.randint(1, 60), rng.randint(1, 16)),
                     ("row_sum", "column_sum"), neg_log_cos(n))]
            for check, sizes, routes, (truth_lo, truth_hi) in runs:
                try:
                    report = check(n, *sizes, bits)
                except (PrecisionError, WorkBudgetError):
                    continue
                for route in routes:
                    est = getattr(report, route)
                    row = cli._interval_row(route, est)
                    low, high = F(row["low"]), F(row["high"])
                    assert low <= est.lower() <= est.upper() <= high, (n, bits, route, row)
                    assert low <= truth_lo <= truth_hi <= high, (n, bits, route, row)
                    checked += 1
        assert checked >= 60

    def test_exact_value_prints_at_most_36_significant_digits(self):
        text = format_decimal(F(1, 2**200), F(0))
        mantissa = text.split("e")[0].replace(".", "").lstrip("0")
        assert 0 < len(mantissa) <= 36
        assert text.startswith("6.223015277861141707")


class TestCoeffs:
    def test_m_max_one(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--m-max", "1")
        assert code == 0
        assert "1/2" in out

    def test_usage_error_on_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--m-max", "0"])
        assert exc.value.code == cli.EXIT_USAGE


    def test_m_max_past_the_int_to_str_digit_limit(self, capsys):
        # c_250's denominator has more digits than the int-to-str limit the
        # suite runs under (tests/conftest.py)
        code, out, _ = run(capsys, "coeffs", "--m-max", "250", "--precision", "8")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0].split()[:2] == ["m", "c_m"]
        column = [line.split()[1] for line in lines[1:]]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            printed = [F(text) for text in column]
        finally:
            sys.set_int_max_str_digits(limit)
        assert printed == list(lambda_coefficients(250).coeffs)


class TestClosedForms:
    """``analytic.closed_forms`` against a narrow bracket of pi, the ends of
    pi's ball and the ball products that computed the closed forms before."""

    BITS = (8, 64, 128, 300, 1024)

    @staticmethod
    def ball_chain(coeffs, bits):
        # the ball products as (value, error) pairs, each step rounded at
        # bits + 16 by conftest's combine_reference
        work = bits + 16
        half_pi = pi_constant(work) * F(1, 2)
        half_pi = half_pi.value, half_pi.abs_error
        step = power = combine_reference(half_pi, half_pi, work, product=True)
        forms = []
        for c in coeffs:
            forms.append(combine_reference(power, (c, 0), work, product=True))
            power = combine_reference(power, step, work, product=True)
        return forms

    def test_between_a_narrow_bracket_of_pi_and_inside_the_ball_products(self):
        # [L, H] from conftest's pi, rounded outward to k = bits + 64 bits,
        # far narrower than pi's ball: c_m (a/2^(k+1))^2m <= lambda(2m) <=
        # c_m (b/2^(k+1))^2m, compared on integers.  The ball products
        # enclose the same powers, rounded another way, so nesting is checked
        # at BITS alone: it is no theorem, and fails at 113 of the 148,250
        # pairs for m <= 250 at 8 to 600 bits, all at m <= 3, by about 1.3
        # units in the last place at precision_bits + 16
        rng = random.Random(2121)
        coeffs = lambda_coefficients(250).coeffs
        pi_lo, pi_hi = pi_bracket(700)
        for bits in (*self.BITS, *rng.sample(range(9, 600), 3)):
            k = bits + 64
            a, b = math.floor(pi_lo * 2**k), -math.floor(-pi_hi * 2**k)
            assert (b - a) << (bits + 32) < 1 << k
            forms = analytic.closed_forms(250, bits)
            low = high = 1
            for m, (c, form, ball) in enumerate(
                    zip(coeffs, forms, self.ball_chain(coeffs, bits)), start=1):
                low, high, e = low * a * a, high * b * b, m * (2 * k + 2)
                lo, hi = form.lower(), form.upper()
                assert lo.numerator * c.denominator << e <= c.numerator * low * lo.denominator
                assert c.numerator * high * hi.denominator <= hi.numerator * c.denominator << e
                if bits in self.BITS:
                    value, err = ball
                    assert value - err <= lo and hi <= value + err, (bits, m)

    def test_rounded_from_the_powers_at_the_ends_of_pi(self, monkeypatch):
        # the 8-bit round-up of the error hides a chain rounded the wrong
        # way, so the spy reads what reaches the final rounding: it must hold
        # c_m (pi_lo/2)^2m .. c_m (pi_hi/2)^2m exactly, at the ends of the
        # ball the chains start from, with c_m times half that spread as its
        # error, up to the floors of the chains.  A chain rounded the wrong
        # way falls short at about one precision in ten
        carried = spy_on_rounding(monkeypatch, analytic)
        coeffs = lambda_coefficients(16).coeffs
        for bits in range(8, 301):
            carried.clear()
            analytic.closed_forms(16, bits)
            pi = pi_constant(bits + 16)
            low_step, high_step = (pi.lower() / 2) ** 2, (pi.upper() / 2) ** 2
            low = high = F(1)
            for c, (value, err) in zip(coeffs, carried, strict=True):
                low, high = low * low_step, high * high_step
                assert value - err <= c * low and c * high <= value + err, bits
                assert err <= c * (high - low) / 2 * (1 + F(1, 2**20)), bits


class TestLambda:
    def test_table_passes(self, capsys):
        code, out, _ = run(capsys, "lambda", "--m-max", "3",
                           "--num-terms", "2000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert payload["rows"][0]["q_m"] == "1/8"
        assert payload["rows"][1]["q_m"] == "1/96"
        assert all(r["overlap"] == "PASS" for r in payload["rows"])


class TestProduct:
    def test_n_one_exact_zero(self, capsys):
        code, out, _ = run(capsys, "product", "--n", "1",
                           "--num-factors", "32", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["value"] == "0" for r in rows)
        assert all(r["log_tail_bound"] == "n/a" for r in rows)
        assert all(r["contained"] == "PASS" for r in rows)

    def test_trace_passes(self, capsys):
        code, out, _ = run(capsys, "product", "--n", "3",
                           "--num-factors", "2048", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[-1]["num_factors"] == "2048"
        assert all(r["contained"] == "PASS" for r in rows)

    def test_n_past_the_int_to_str_digit_limit(self, capsys):
        n = "1" + "0" * 5000 + "/3"
        code, out, err = run(capsys, "product", "--n", n,
                             "--num-factors", "8", "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[-1]["num_factors"] == "8"
        assert all(r["contained"] == "PASS" for r in rows)

    def test_rows_against_fraction_arithmetic(self, capsys, monkeypatch):
        # each row as Fractions give it: the value to the digits its total
        # bound e + U t certifies, and contained iff |value - cosine| <=
        # total + the cosine's error; the cosine is moved off cos(pi/2n) by
        # about one snapshot's total, so that some rows fail, and some pass
        # only by the cosine's error
        rng = random.Random(2020)
        true_cos = cli.cos_half_pi_over
        verdicts = set()
        for _ in range(16):
            n = F(rng.randint(21, 200), rng.choice((1, 20)))
            bits = rng.choice((8, 64, 128, 4096))
            factors = rng.randint(1, 3000)
            trace = product_trace(n, factors, bits)
            bound = rng.choice(trace).total_bound()
            shift = bound * F(rng.randint(-12, 12), 8)
            err = bound * F(rng.randint(0, 4), 8)

            def moved(n, precision_bits):
                c = true_cos(n, precision_bits)
                return real_from_rational(c.value + shift, precision_bits,
                                          c.abs_error + err)

            monkeypatch.setattr(cli, "cos_half_pi_over", moved)
            code, out, _ = run(capsys, "product", "--n", str(n), "--num-factors",
                               str(factors), "--precision", str(bits), "--format", "json")
            target = moved(n, bits)
            expected = []
            for snap in trace:
                total = snap.value.abs_error + snap.value.upper() * snap.log_tail_bound
                deviation = abs(snap.value.value - target.value)
                ok = deviation <= total + target.abs_error
                verdicts.add(ok)
                expected.append({
                    "num_factors": str(snap.num_factors),
                    "value": format_decimal(snap.value.value, total),
                    "round_bound": format_bound(snap.value.abs_error),
                    "log_tail_bound": format_bound(snap.log_tail_bound),
                    "total_bound": format_bound(total),
                    "cosine": format_decimal(target.value, target.abs_error),
                    "deviation": format_bound(deviation) if deviation else "0",
                    "contained": "PASS" if ok else "FAIL",
                })
            assert json.loads(out)["rows"] == expected, (n, bits, factors)
            all_pass = all(row["contained"] == "PASS" for row in expected)
            assert code == (cli.EXIT_OK if all_pass else cli.EXIT_FAIL)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("err_share", [0, F(1, 3)])
    def test_a_row_passes_with_the_cosine_at_total_plus_its_error(
            self, capsys, monkeypatch, err_share):
        # the last row's total is e + U t, U the value's upper end; a cosine
        # ball exactly that plus its own error away from the value still
        # meets the row's interval, and one a hair farther does not
        last = product_trace(3, 64, 128)[-1]
        total = last.value.abs_error + last.value.upper() * last.log_tail_bound
        err = total * err_share
        edge = last.value.value + total + err
        for cosine, verdict in ((edge, "PASS"), (edge + F(1, 2**200), "FAIL")):
            monkeypatch.setattr(cli, "cos_half_pi_over",
                                lambda n, bits, c=cosine: BoundedReal(c, err, bits))
            _, out, _ = run(capsys, "product", "--n", "3", "--num-factors", "64",
                            "--format", "json")
            assert json.loads(out)["rows"][-1]["contained"] == verdict, cosine

    def test_domain_error_below_one(self, capsys):
        code, _, err = run(capsys, "product", "--n", "1/2", "--num-factors", "8")
        assert code == cli.EXIT_DOMAIN
        assert "domain error" in err


class TestVerify:
    def test_n3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3",
                           "--num-factors", "5000", "--order", "25")
        assert code == 0
        assert "PASS" in out
        assert "0.86602" in out

    def test_rational_n_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3/2",
                           "--num-factors", "5000", "--order", "30")
        assert code == 0
        assert "0.5" in out

    def test_n_one_domain_exit(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "1", "--num-factors", "16")
        assert code == cli.EXIT_DOMAIN
        assert "exactly 0" in err

    def test_decimal_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "2.5"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "3/0"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--n", "101/100"),
        ("--n", "1001/1000", "--num-factors", "10", "--order", "5",
         "--precision", "8"),
    ])
    def test_too_little_order_or_precision_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert "--order" in err and "--precision" in err

    def test_n_within_1e_minus_21_of_one_is_usage_error(self, capsys):
        # the series ratio r = 1/n^2 is within 2^-68 of 1; its tail bound
        # must still divide by the exact 1 - r
        code, out, err = run(capsys, "verify", "--n",
                             "1000000000000000000001/1000000000000000000000")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == ("order or precision too low to decide (exp input "
                       "uncertainty must be below 1); raise --order or --precision\n")

    def test_n_near_one_at_low_precision_is_usage_error(self, capsys):
        # every n > 1 is in the domain: a ball of pi/2n that reaches pi/2,
        # as at 8 bits for n = 1 + 2^-32, is a precision too low to decide,
        # not a domain error
        argvs = [(f"{10**e + 1}/{10**e}", bits)
                 for e in (4, 8, 21, 45) for bits in (8, 16, 32, 128)]
        for n, bits in argvs + [("4294967297/4294967296", 8)]:
            code, out, err = run(capsys, "verify", "--n", n, "--num-factors", "10",
                                 "--order", "5", "--precision", str(bits))
            assert (code, out) == (cli.EXIT_USAGE, ""), (n, bits, err)
            assert err.startswith("order or precision too low to decide")

    @pytest.mark.parametrize("argv, code", [
        (("--n", "101/100"), cli.EXIT_USAGE),
        (("--n", "4294967297/4294967296", "--num-factors", "10", "--order", "5",
          "--precision", "8"), cli.EXIT_USAGE),
        (("--n", "1"), cli.EXIT_DOMAIN),
        (("--n", "3", "--order", "100000000"), cli.EXIT_USAGE),
    ])
    def test_a_refusal_comes_before_the_product_and_the_cosine(
            self, capsys, monkeypatch, argv, code):
        def unreached(*args):
            raise AssertionError("a refused verify reached the product or the cosine")

        monkeypatch.setattr(analytic, "_partial_products", unreached)
        monkeypatch.setattr(analytic, "cos_half_pi_over", unreached)
        assert run(capsys, "verify", *argv)[:2] == (code, "")

    def test_enough_order_near_one_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "101/100", "--order", "300")
        assert code == 0
        assert "verdict: PASS" in out


class TestRearrange:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "rearrange", "--n", "3", "--rows", "200",
                           "--order", "12")
        assert code == 0
        assert "row_order" in out and "column_order" in out

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "rearrange", "--n", "1", "--rows", "10")
        assert code == cli.EXIT_DOMAIN
        assert "domain error" in err

    @staticmethod
    def assert_refused_at_once(n, rows, order, precision):
        # in a subprocess with a timeout, so that a hang fails the test
        # instead of stalling it
        src = Path(cli.__file__).parents[1]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cosprod", "rearrange", "--n", n,
             "--rows", rows, "--order", order, "--precision", precision],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(src)})
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
        assert proc.stderr.startswith("work over budget: --n, --rows and --precision "
                                      "ask too much of the row order")
        assert elapsed < 1

    def test_n_near_one_is_refused_before_the_row_loop(self):
        # row 1 would take about 10^9 passes
        self.assert_refused_at_once("100000001/100000000", "1", "1", "8")

    def test_n_near_one_at_high_precision_is_refused_by_its_bits(self):
        # about 700,000 passes, admitted at 128 bits, but each of 16,416 bits
        self.assert_refused_at_once("123/122", "1", "1", "16384")

    def test_rows_past_the_budget_are_refused(self):
        # 10^20 rows, each short; the row loop would never end
        self.assert_refused_at_once("3", "100000000000000000000", "1", "128")

    def test_rows_at_high_precision_are_refused_by_their_bits(self):
        # row 1 is within the budget, but 1,000 rows of 20,032 bits took 6 s
        self.assert_refused_at_once("7/3", "1000", "40", "20000")


class TestTableCap:
    @pytest.mark.parametrize("command, size", [
        ("lambda --m-max 99999999999999999999 --num-terms 3", "99999999999999999999"),
        ("coeffs --m-max 100000", "100000"),
        ("verify --n 3 --order 100000000", "100000000"),
        ("rearrange --n 3 --order 100000000", "100000000"),
    ])
    def test_a_table_past_the_cap_is_refused_at_once(self, command, size):
        # in a subprocess with a timeout, so that a hang fails the test
        src = Path(cli.__file__).parents[1]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cosprod", *command.split()],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(src)})
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
        assert proc.stderr == (f"work over budget: a table to m = {size} is over the "
                               f"cap of m = {MAX_TABLE_M}; take a lower --m-max or --order\n")
        assert elapsed < 1


def run_at_once(argv):
    """argv through ``python -m cosprod`` in a subprocess with a timeout, so
    that a hang fails the test instead of stalling it: (exit, out, err, s)."""
    src = Path(cli.__file__).parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cosprod", *argv.split()],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)})
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class TestWorkBudget:
    @pytest.mark.parametrize("argv, prefix", [
        ("lambda --m-max 1 --num-terms 100000000000000000000",
         "--m-max or --order, --num-terms or --rows, and --precision ask too much "
         "of the direct sums"),
        ("product --n 3 --num-factors 100000000000000000000",
         "--n, --num-factors and --precision ask too much of the product"),
        ("verify --n 3 --num-factors 100000000000000000000",
         "--n, --num-factors and --precision ask too much of the product"),
    ])
    def test_terms_and_factors_past_the_budget_are_refused_at_once(self, argv, prefix):
        # each ran past a 10 s timeout before the budget
        code, out, err, seconds = run_at_once(argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith(f"work over budget: {prefix}")
        assert seconds < 1


class TestPrecisionCap:
    @pytest.mark.parametrize("argv", [
        "coeffs --m-max 3 --precision 3000000",
        "verify --n 3 --num-factors 10 --order 5 --precision 1000000",
        "product --n 3 --num-factors 10 --precision 3000000",
    ])
    def test_a_precision_past_the_cap_is_refused_at_once(self, argv):
        # each ran past a 15 s timeout before the cap
        code, out, err, seconds = run_at_once(argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert (f"argument --precision: precision must be at most "
                f"{cli.MAX_PRECISION_BITS} bits\n") in err
        assert seconds < 1

    def test_the_cap_is_admitted_and_one_more_refused(self, capsys):
        parser = cli.build_parser()
        cap = cli.MAX_PRECISION_BITS
        assert cap >= 20000  # the largest precision in use
        assert parser.parse_args(["coeffs", "--precision", str(cap)]).precision == cap
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["coeffs", "--precision", str(cap + 1)])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"precision must be at most {cap} bits" in capsys.readouterr().err


class TestNumericFlags:
    """Every numeric flag reads an optional sign and ASCII digits, and --n
    also /digits: nothing int() or \\d reads beyond that."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--n", "٣"), "'٣' is not an exact rational"),
        (("verify", "--n", "3\n"), "'3\\n' is not an exact rational"),
        (("verify", "--n", "3/٤"), "'3/٤' is not an exact rational"),
        (("verify", "--n", " 3"), "' 3' is not an exact rational"),
        (("verify", "--n", "3", "--num-factors", "1_0"), "'1_0' is not an integer"),
        (("verify", "--n", "3", "--order", "٣"), "'٣' is not an integer"),
        (("verify", "--n", "3", "--precision", " 128"), "' 128' is not an integer"),
        (("verify", "--n", "3", "--precision", "7"), "precision must be at least 8 bits"),
        (("coeffs", "--m-max", "5\n"), "'5\\n' is not an integer"),
    ])
    def test_other_digits_underscores_spaces_and_newlines_are_usage_errors(
            self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (cli.EXIT_USAGE, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    def test_a_plus_sign_is_read(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "+5", "--num-factors", "+100",
                           "--order", "+5", "--precision", "+64")
        assert code == 0
        assert "# n = 5\n# num_factors = 100\n# order = 5\n# precision = 64\n" in out


class TestOutputContracts:
    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--num-factors", "500",
                           "--order", "20", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rebuilt = OutputRecord(
            command=payload["command"],
            parameters=payload["parameters"],
            rows=payload["rows"],
            verdict=payload.get("verdict"),
        )
        assert render_json(rebuilt) == out

    def test_csv_and_json_numeric_content_match(self, capsys):
        args = ["lambda", "--m-max", "2", "--num-terms", "500"]
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        _, json_out, _ = run(capsys, *args, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = json.loads(json_out)["rows"]
        assert csv_rows == json_rows

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "coeffs", "--m-max", "2",
                           "--format", "json", "--out", str(path))
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["command"] == "coeffs"

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "coeffs", "--m-max", "2", "--out", str(path))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and "x.txt" in err

    def test_unwritable_stdout_is_usage_error(self, capsys, monkeypatch):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        code = cli.main(["coeffs", "--m-max", "2"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "cannot write standard output: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device_is_usage_error(self):
        # with stdout buffered, as from a shell, so that the flush at exit,
        # which fails again unless the buffer is dropped, is reached too
        src = Path(cli.__file__).parents[1]
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cosprod", "verify", "--n", "3",
                 "--num-factors", "100", "--order", "5"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=20,
                env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr.startswith("cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_exit_code_constants_are_distinct(self):
        codes = {cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE, cli.EXIT_DOMAIN}
        assert codes == {0, 1, 2, 3}

    def test_verification_fail_maps_to_exit_one(self, capsys, monkeypatch):
        # sound bounds never fail honestly, so pin the wiring directly
        import cosprod.cli as cli_mod
        real = cli_mod.verify_identity

        def broken(*args, **kwargs):
            rep = real(*args, **kwargs)
            return type(rep)(**{**rep.__dict__, "verdict": False})

        monkeypatch.setattr(cli_mod, "verify_identity", broken)
        code, out, _ = run(capsys, "verify", "--n", "3", "--num-factors", "64",
                           "--order", "5")
        assert code == cli.EXIT_FAIL
        assert "FAIL" in out

    @pytest.mark.parametrize("argv, name, breaks", [
        # one direct sum of the table, m = 2's, pushed above its closed form
        (("lambda", "--m-max", "2", "--num-terms", "50"), "lambda_direct_table",
         lambda table: [table[0], type(table[1])(table[1].num_terms, table[1].value + 1,
                                                  table[1].tail_bound)]),
        # a target the trace cannot contain
        (("product", "--n", "3", "--num-factors", "8"), "cos_half_pi_over",
         lambda target: target + 1),
        (("rearrange", "--n", "3", "--rows", "20", "--order", "4"),
         "rearrangement_check",
         lambda rep: type(rep)(**{**rep.__dict__, "overlap": False})),
    ])
    def test_every_failed_check_maps_to_exit_one(self, capsys, monkeypatch,
                                                 argv, name, breaks):
        import cosprod.cli as cli_mod
        real = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name,
                            lambda *args: breaks(real(*args)))
        code, out, _ = run(capsys, *argv)
        assert code == cli.EXIT_FAIL
        assert out.endswith("verdict: FAIL\n")

    @pytest.mark.parametrize("name", sorted(README_COMMANDS))
    def test_json_parameters_match_the_table_header(self, capsys, name):
        argv = README_COMMANDS[name]
        _, table, _ = run(capsys, *argv, "--format", "table")
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        header = [line[2:].split(" = ") for line in table.splitlines()
                  if line.startswith("# ") and " = " in line]
        assert list(json.loads(json_out)["parameters"].items()) == \
            [tuple(pair) for pair in header]

    @pytest.mark.parametrize("command, echoed", [
        ("coeffs", ["m_max", "precision"]),
        ("lambda", ["m_max", "num_terms", "precision"]),
        ("product", ["n", "num_factors", "precision"]),
        ("verify", ["n", "num_factors", "order", "precision"]),
        ("rearrange", ["n", "rows", "order", "precision"]),
    ])
    def test_each_command_echoes_its_own_flags_then_precision(self, capsys, command,
                                                              echoed):
        # in the order the command declares them, not the order they are given in
        words = ["--precision", "64", *README_COMMANDS[command][1:]]
        pairs = list(zip(words[::2], words[1::2]))[::-1]
        argv = [command, *(word for pair in pairs for word in pair)]
        _, table, _ = run(capsys, *argv, "--format", "table")
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        header = [line[2:].split(" = ")[0] for line in table.splitlines()
                  if line.startswith("# ") and " = " in line]
        assert header == echoed
        assert list(json.loads(json_out)["parameters"]) == echoed

    def test_a_flag_every_command_takes_is_not_echoed(self, capsys):
        # the shared flags are read off the common parser, not listed again
        cli._common.cache_clear()
        cli.build_parser.cache_clear()
        try:
            cli._common().add_argument("--label", default="text")
            _, out, _ = run(capsys, "coeffs", "--m-max", "2", "--format", "json")
            assert list(json.loads(out)["parameters"]) == ["m_max", "precision"]
        finally:
            cli._common.cache_clear()
            cli.build_parser.cache_clear()
