"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import random
import time
from fractions import Fraction as F

from cosprod import cli
from cosprod.analytic import (
    DomainError,
    cos_approx,
    lambda_direct,
    neg_log_product_series,
    product_trace,
)
from cosprod.arith import pi_constant
from cosprod.recurrence import (
    lambda_closed_form,
    lambda_coefficients,
    tangent_coefficients,
)
from cosprod.series import ode_residual, picard_fixed_point
from conftest import contains, ln_bracket, sqrt_bracket


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_coefficient_cross_verification():
    start = time.perf_counter()
    table = lambda_coefficients(25)
    tangent = tangent_coefficients(25)
    equal = all(2 * table.coeffs[m - 1] == tangent[m - 1] for m in range(1, 26))
    first_four = table.coeffs[:4] == (F(1, 2), F(1, 6), F(1, 15), F(17, 630))
    elapsed = time.perf_counter() - start
    _report("criterion 1: coefficients(25) = half tangent coefficients",
            equal and first_four and elapsed < 5.0,
            f"exact match {equal}, first four {first_four}, {elapsed:.2f}s < 5s")


def test_criterion_2_fixed_point_equivalence():
    start = time.perf_counter()
    fixed = picard_fixed_point(25)
    same = fixed.coeffs == lambda_coefficients(25).coeffs
    residual = ode_residual(fixed)
    vanishes = all(r == 0 for r in residual[:25])  # degrees 0..48
    elapsed = time.perf_counter() - start
    _report("criterion 2: fixed point matches recurrence, residual zero to deg 48",
            same and vanishes and elapsed < 10.0,
            f"equal {same}, residual {vanishes}, {elapsed:.2f}s < 10s")


def test_criterion_3_lambda_closed_forms():
    start = time.perf_counter()
    closed_ok = (lambda_closed_form(1) == F(1, 8)
                 and lambda_closed_form(2) == F(1, 96)
                 and lambda_closed_form(3) == F(1, 960))
    pi_ref = pi_constant(256)
    brackets_ok = True
    bound_m1 = None
    for m in (1, 2, 3):
        est = lambda_direct(m, 10**6, 128)
        q = lambda_closed_form(m)
        lo, hi = est.bracket()
        brackets_ok = brackets_ok and (lo <= q * pi_ref.lower() ** (2 * m)
                                       and q * pi_ref.upper() ** (2 * m) <= hi)
        if m == 1:
            bound_m1 = est.value.abs_error + est.tail_bound
    bound_ok = bound_m1 <= F(3, 10**7)
    elapsed = time.perf_counter() - start
    _report("criterion 3: lambda closed forms and direct-sum brackets",
            closed_ok and brackets_ok and bound_ok and elapsed < 30.0,
            f"closed {closed_ok}, brackets {brackets_ok}, "
            f"m=1 bound {float(bound_m1):.2e} <= 3e-7, {elapsed:.2f}s < 30s")


def test_criterion_4_product_identity_at_desk_scale():
    start = time.perf_counter()
    within = True
    for n in (F(2), F(3), F(3, 2), F(10)):
        prod = product_trace(n, 10**5, 128)[-1]
        x = pi_constant(144) * F(n.denominator, 2 * n.numerator)
        cos = cos_approx(x, 128)
        gap = abs(prod.value.value - cos.value)
        within = within and gap <= prod.total_bound() + cos.abs_error
    lo, hi = sqrt_bracket(F(3, 4))
    prod3 = product_trace(F(3), 10**5, 128)[-1]
    deviation = max(abs(prod3.value.value - lo), abs(prod3.value.value - hi))
    dev_ok = deviation < F(1, 10**5)
    elapsed = time.perf_counter() - start
    _report("criterion 4: product vs cosine for n in {2, 3, 3/2, 10}",
            within and dev_ok and elapsed < 60.0,
            f"all within bounds {within}, n=3 deviation {float(deviation):.2e} "
            f"< 1e-5, {elapsed:.2f}s < 60s")


def test_criterion_5_log_series_identity():
    start = time.perf_counter()
    res = neg_log_product_series(3, 30, 128)  # at x = pi/6
    lo, hi = ln_bracket(F(4, 3))  # -ln(sqrt(3)/2) = (1/2) ln(4/3)
    contains = res.lower() <= lo / 2 and hi / 2 <= res.upper()
    bound_ok = res.abs_error <= F(1, 10**8)
    elapsed = time.perf_counter() - start
    _report("criterion 5: -log series at pi/6 vs -ln(sqrt(3)/2)",
            contains and bound_ok and elapsed < 5.0,
            f"contains target {contains}, bound {float(res.abs_error):.2e} "
            f"<= 1e-8, {elapsed:.2f}s < 5s")


def test_criterion_6_rearrangement_consistency():
    from cosprod.analytic import rearrangement_check

    start = time.perf_counter()
    rep = rearrangement_check(3, 10**3, 20, 128)
    elapsed = time.perf_counter() - start
    _report("criterion 6: row-order and column-order intervals overlap",
            rep.overlap and elapsed < 30.0,
            f"overlap {rep.overlap}, {elapsed:.2f}s < 30s")


def test_criterion_7_bound_soundness_suite():
    rng = random.Random(20260811)
    checked = 0
    failures = []

    for _ in range(30):
        m = rng.randint(1, 6)
        terms = rng.randint(10, 2000)
        bits = rng.choice([32, 48, 64, 96])
        loose = lambda_direct(m, terms, bits)
        refined = lambda_direct(m, terms * 10, bits * 4)
        lo, hi = loose.bracket()
        if not lo <= refined.value.value <= hi:
            failures.append(("lambda", m, terms, bits))
        checked += 1

    for _ in range(30):
        n = F(rng.randint(101, 1000), 100)
        factors = rng.randint(10, 2000)
        bits = rng.choice([32, 48, 64, 96])
        loose = product_trace(n, factors, bits)[-1]
        refined = product_trace(n, factors * 10, bits * 4)[-1]
        lo, hi = loose.interval()
        if not lo <= refined.value.value <= hi:
            failures.append(("product", n, factors, bits))
        checked += 1

    for _ in range(25):
        q = F(rng.randint(1, 44), 100)
        order = rng.randint(5, 40)
        bits = rng.choice([32, 48, 64, 96])
        n = 1 / (2 * q)  # x = pi q
        loose = neg_log_product_series(n, order, bits)
        refined = neg_log_product_series(n, order * 10, 4 * bits)
        if not contains(loose, refined.value):
            failures.append(("neg_log", q, order, bits))
        checked += 1

    for _ in range(25):
        q = F(rng.randint(1, 120), 100)
        bits = rng.choice([32, 48, 64, 96])
        loose = cos_approx(pi_constant(bits + 16) * q, bits)
        refined = cos_approx(pi_constant(4 * bits + 16) * q, 4 * bits)
        if not contains(loose, refined.value):
            failures.append(("cos", q, bits))
        checked += 1

    _report("criterion 7: randomized bound-soundness (refined value inside)",
            checked >= 100 and not failures,
            f"{checked} configurations, failures {failures or 'none'}")


def test_criterion_8_edge_cases():
    zero_ok = all(product_trace(1, n, 96)[-1].value.value == 0
                  for n in (1, 10, 1000))

    rejects = 0
    for bad in (1, F(5, 8)):
        try:
            neg_log_product_series(bad, 10, 128)
        except DomainError:
            rejects += 1
    reject_ok = rejects == 2

    code = cli.main(["verify", "--n", "1", "--num-factors", "16"])
    exit_ok = code == cli.EXIT_DOMAIN

    _report("criterion 8: edge cases (n=1 product, domain rejects, exit code)",
            zero_ok and reject_ok and exit_ok,
            f"exact zeros {zero_ok}, rejections {reject_ok}, "
            f"verify --n 1 exit {code} == {cli.EXIT_DOMAIN}")
