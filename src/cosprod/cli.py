"""Command-line front end.

Subcommands: coeffs, lambda, product, verify, rearrange.  Common flags:
--precision <bits>, --format <table|csv|json>, --out <path>.  Exit codes:
0 success/PASS, 1 verification FAIL, 2 usage error (a precision past
MAX_PRECISION_BITS, order or precision too low to decide, and work over a
budget, included), 3 domain error.
The parameter n is parsed exactly, as an integer or p/q; decimal input is
rejected so nothing is silently rounded at the API boundary.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction
from typing import Callable, Optional

from .analytic import (
    DomainError,
    closed_forms,
    cos_half_pi_over,
    lambda_direct_table,
    product_trace,
    rearrangement_check,
    verify_identity,
)
from .arith import (
    MIN_PRECISION_BITS,
    BoundedReal,
    PrecisionError,
    WorkBudgetError,
)
from .output import (
    OutputRecord,
    format_bound,
    format_decimal,
    format_rational,
    render,
)
from .recurrence import lambda_closed_form, lambda_coefficients

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# ASCII digits only: \d and int() also read other Unicode digits, int()
# also "_" and surrounding spaces, and $ also matches before a final newline
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational; write an integer or p/q "
            "(decimal input is rejected)")
    # int(Decimal) reads any number of digits, where int(str) stops at the
    # int-to-str digit limit
    p, _, q = text.partition("/")
    try:
        return Fraction(int(Decimal(p)), int(Decimal(q or "1")))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"{text!r} has a zero denominator") from None


# the largest --precision.  At 2^15 bits the slowest table, coeffs --m-max
# 500, takes 1.4 s in a fresh process (2.4 s warm at 2^16, in its closed
# forms), and verify --n 3 --num-factors 10 --order 5 0.4 s; 20,000 bits,
# the most any test, golden or benchmark asks for, is admitted.  The
# library takes any precision
MAX_PRECISION_BITS = 1 << 15


def _integer(name: str, floor: int, cap: Optional[int] = None,
             unit: str = "") -> Callable[[str], int]:
    """An argparse type: an integer from `floor` to `cap`, refused past either."""
    def read(text: str) -> int:
        try:
            if _INTEGER_RE.fullmatch(text):
                value = int(text)
                if value < floor:
                    raise argparse.ArgumentTypeError(
                        f"{name} must be at least {floor}{unit}")
                if cap is not None and value > cap:
                    raise argparse.ArgumentTypeError(
                        f"{name} must be at most {cap}{unit}")
                return value
        except ValueError:  # past the int-to-str digit limit
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return read


_positive = _integer("value", 1)
_precision = _integer("precision", MIN_PRECISION_BITS, MAX_PRECISION_BITS, " bits")


@functools.cache
def _common() -> argparse.ArgumentParser:
    """The flags every command takes: a parent of each command's parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_precision, default=128,
                        metavar="BITS", help="working precision in bits (default 128)")
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format (default table)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosprod",
        description="Bound-carrying evaluation of the odd cosine product "
                    "cos(pi/2n) = prod (1 - 1/((2k-1)^2 n^2)) and its "
                    "coefficient machinery.")
    common = _common()

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="exact coefficient table c_m with lambda(2m) = c_m (pi/2)^2m")
    p.add_argument("--m-max", type=_positive, default=10, metavar="M")

    p = sub.add_parser("lambda", parents=[common],
                       help="odd-reciprocal power sums: direct summation vs closed form")
    p.add_argument("--m-max", type=_positive, default=10, metavar="M")
    p.add_argument("--num-terms", type=_positive, default=100_000, metavar="N")

    p = sub.add_parser("product", parents=[common],
                       help="convergence trace of the truncated product toward cos(pi/2n)")
    p.add_argument("--n", type=_rational, required=True,
                   help="product parameter, exact rational >= 1")
    p.add_argument("--num-factors", type=_positive, default=100_000, metavar="N")

    p = sub.add_parser("verify", parents=[common],
                       help="three-way identity check: product vs series vs cosine")
    p.add_argument("--n", type=_rational, required=True,
                   help="identity parameter, exact rational > 1")
    p.add_argument("--num-factors", type=_positive, default=100_000, metavar="N")
    p.add_argument("--order", type=_positive, default=30, metavar="M")

    p = sub.add_parser("rearrange", parents=[common],
                       help="row-order vs column-order summation of the log double sum")
    p.add_argument("--n", type=_rational, required=True,
                   help="parameter, exact rational > 1")
    p.add_argument("--rows", type=_positive, default=1_000, metavar="K")
    p.add_argument("--order", type=_positive, default=20, metavar="M")

    return parser


def _interval_row(method: str, est: BoundedReal) -> dict[str, str]:
    # each end is rounded outward, so the printed [low, high] holds the ball
    bound = est.abs_error
    return {
        "method": method,
        "value": format_decimal(est.value, bound),
        "bound": format_bound(bound),
        "low": format_decimal(est.lower(), bound, ROUND_FLOOR),
        "high": format_decimal(est.upper(), bound, ROUND_CEILING),
    }


# a command's rows, and its verdict (None for a command with no check)
_Result = tuple[list[dict[str, str]], Optional[bool]]


def cmd_coeffs(args: argparse.Namespace) -> _Result:
    coeffs = lambda_coefficients(args.m_max).coeffs
    rows = []
    for m, (c, lam) in enumerate(zip(coeffs, closed_forms(args.m_max, args.precision)),
                                 start=1):
        rows.append({
            "m": str(m),
            "c_m": format_rational(c),
            "tangent_coeff": format_rational(2 * c),
            "lambda_2m": format_decimal(lam.value, lam.abs_error),
            "lambda_bound": format_bound(lam.abs_error),
        })
    return rows, None


def cmd_lambda(args: argparse.Namespace) -> _Result:
    rows = []
    all_pass = True
    direct = lambda_direct_table(args.m_max, args.num_terms, args.precision)
    for m, (est, closed) in enumerate(zip(direct, closed_forms(args.m_max, args.precision)),
                                      start=1):
        lo, hi = est.bracket()
        ok = lo <= closed.upper() and closed.lower() <= hi
        all_pass = all_pass and ok
        rows.append({
            "m": str(m),
            "direct": format_decimal(est.value.value,
                                     est.value.abs_error + est.tail_bound),
            "direct_bound": format_bound(est.value.abs_error + est.tail_bound),
            "q_m": format_rational(lambda_closed_form(m)),
            "closed_form": format_decimal(closed.value, closed.abs_error),
            "closed_bound": format_bound(closed.abs_error),
            "overlap": "PASS" if ok else "FAIL",
        })
    return rows, all_pass


def cmd_product(args: argparse.Namespace) -> _Result:
    trace = product_trace(args.n, args.num_factors, args.precision)
    target = cos_half_pi_over(args.n, args.precision)
    c, c_err = target.value, target.abs_error
    cosine = format_decimal(c, c_err)
    rows = []
    all_pass = True
    for snap in trace:
        value, total = snap.value.value, snap.total_bound()
        # a snapshot passes if the cosine's ball meets [value - total, value + total]
        deviation = abs(value - c)
        ok = deviation <= total + c_err
        all_pass = all_pass and ok
        rows.append({
            "num_factors": str(snap.num_factors),
            "value": format_decimal(value, total),
            "round_bound": format_bound(snap.value.abs_error),
            "log_tail_bound": ("n/a" if snap.log_tail_bound is None
                               else format_bound(snap.log_tail_bound)),
            "total_bound": format_bound(total),
            "cosine": cosine,
            "deviation": format_bound(deviation) if deviation else "0",
            "contained": "PASS" if ok else "FAIL",
        })
    return rows, all_pass


def cmd_verify(args: argparse.Namespace) -> _Result:
    report = verify_identity(args.n, args.num_factors, args.order,
                             args.precision)
    return ([_interval_row("product", report.product),
             _interval_row("log_series", report.log_series),
             _interval_row("cosine", report.cosine)],
            report.verdict)


def cmd_rearrange(args: argparse.Namespace) -> _Result:
    report = rearrangement_check(args.n, args.rows, args.order, args.precision)
    return ([_interval_row("row_order", report.row_sum),
             _interval_row("column_order", report.column_sum)],
            report.overlap)


_COMMANDS = {"coeffs": cmd_coeffs, "lambda": cmd_lambda, "product": cmd_product,
             "verify": cmd_verify, "rearrange": cmd_rearrange}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, verdict = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except WorkBudgetError as exc:
        print(f"work over budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"order or precision too low to decide ({exc}); "
              "raise --order or --precision", file=sys.stderr)
        return EXIT_USAGE
    # a record echoes the command's own flags, in the order it declares them
    # (argparse sets them in that order), then precision
    shared = {"command", *vars(_common().parse_args([]))}
    echoed = [key for key in vars(args) if key not in shared] + ["precision"]
    record = OutputRecord(
        command=args.command,
        parameters={key: format_rational(getattr(args, key)) for key in echoed},
        rows=rows,
        verdict=None if verdict is None else ("PASS" if verdict else "FAIL"),
    )
    text = render(record, args.format)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        where = "--out" if args.out else "standard output"
        print(f"cannot write {where}: {exc}", file=sys.stderr)
        if not args.out:
            # drop what stays buffered, which the interpreter would flush
            # again at exit, fail, and exit 120
            sys.stdout = None
        return EXIT_USAGE
    return EXIT_FAIL if verdict is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
