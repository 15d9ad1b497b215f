"""Rendering of command results as aligned tables, CSV, or JSON.

Numbers are rendered from exact rationals with no float round-trip.
Inexact values are printed to as many significant digits as their error
bound certifies, plus two guard digits; the bound itself always travels in
the same record, rounded upward so the printed bound is still a bound.
What a printed record certifies is that the truth lies within value ±
(bound + half a unit in the value's last printed digit): the bound covers
the ball, and the rounding of its value to the printed digits adds up to
that half unit, which the bound alone need not cover.

A rational here is an int or a Fraction, read through its ``numerator``
and positive ``denominator``; a ball's reads are Fractions built without a
gcd (``arith``), so reading one costs less than printing it.  No rendering
needs lowest terms.

Each rounding of p/q to k significant digits is one stdlib ``decimal``
division, with an exponent range no result can leave, correctly rounded in
the context's rounding mode (General Decimal Arithmetic; IEEE 754-2008
decimal): a value is rounded half-up, a ball's printed ends outward (floor
and ceiling), a bound is rounded up (ceiling) and so stays a bound, and
the count of certified digits is the decimal exponent of |value|/bound
rounded down (floor).  So every printed digit is a digit of the exact
rational.  The division is not taken of p and q themselves, which may
have thousands of digits: p/q is first scaled in integers to
a = floor(|p| 10^s / q) >= 10^k, and where that leaves a
remainder decimal rounds the sticky half (a + 1/2) 10^-s, which rounds as
p/q does (``_to_digits``).  ``decimal`` reads and prints integers of any
length, where ``str()`` of an int stops at
``sys.get_int_max_str_digits()`` digits.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     ROUND_HALF_UP, Context, Decimal, Rounded)
from fractions import Fraction
from typing import Optional, Union

# a rational as the formatters read it: through its numerator and positive
# denominator, in any terms
_Rational = Union[Fraction, int]

# significant digits printed for a value: exact ones that need more are rounded
MAX_DIGITS = 36


@dataclass(frozen=True)
class OutputRecord:
    """One command invocation's output: parameters, rows, optional verdict."""

    command: str
    parameters: dict[str, str]
    rows: list[dict[str, str]] = field(default_factory=list)
    verdict: Optional[str] = None


def format_rational(f: Fraction) -> str:
    """Lowest-terms p/q (bare integer when q = 1), with no digit limit."""
    f = Fraction(f)
    if f.denominator == 1:
        return f"{Decimal(f.numerator):f}"
    return f"{Decimal(f.numerator):f}/{Decimal(f.denominator):f}"


def _to_digits(p: int, q: int, digits: int, rounding: str) -> tuple[Decimal, bool]:
    """p/q (q > 0) rounded to `digits` significant digits, and whether it was rounded.

    The result is correctly rounded in `rounding` and carries no trailing
    zeros.  For p != 0, with t = bitlen(|p|) - bitlen(q) - 1, 2^t < |p|/q;
    e = floor(t c) with c = 0.30102 <= log10 2 for t >= 0 and c = 0.30103
    >= log10 2 for t < 0 has e <= t log10 2 at either sign, so 10^e < |p|/q
    and, at s = digits - e, a = floor(|p| 10^s / q) >= 10^digits.  In units
    of 10^-s every rounding boundary at `digits` digits, a multiple of half
    a unit in the last place, is then an integer.  If the remainder r of
    that division is not 0, |p| 10^s / q lies strictly between a and a + 1,
    as the sticky half a + 1/2 does, and no boundary lies between them.  So
    (a + 1/2) 10^-s, signed as p and written exactly as (10a + 5)
    10^-(s+1), rounds as p/q does in every mode when ``scaleb`` fits it to
    the context; and p/q was rounded, as it needs more than `digits`
    digits.  If r = 0, p/q = a 10^-s exactly, and decimal divides p by q
    itself, as it does for p = 0, so that the flag is decimal's: an exact
    10^40 counts as rounded at 36 digits.
    """
    ctx = Context(prec=digits, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)
    if p:
        t = abs(p).bit_length() - q.bit_length() - 1
        s = digits - t * (30102 if t >= 0 else 30103) // 100000
        a, r = (divmod(abs(p) * 10 ** s, q) if s >= 0
                else divmod(abs(p), q * 10 ** -s))
        if r:
            half = ctx.scaleb(Decimal(10 * a + 5 if p > 0 else -10 * a - 5), -s - 1)
            return ctx.normalize(half), True
    quotient = ctx.divide(Decimal(p), Decimal(q))
    return ctx.normalize(quotient), bool(ctx.flags[Rounded])


def format_decimal(value: _Rational, bound: _Rational,
                   rounding: str = ROUND_HALF_UP) -> str:
    """Render `value` to the certainty implied by `bound`, plus two guards.

    The printed value is `value` rounded half-up, so it lies within half a
    unit in its last printed digit of `value`: a truth within `bound` of
    `value` lies within the printed value ± (the printed bound + that half
    unit), though not always within the printed value ± the printed bound.
    A directed `rounding` (``ROUND_FLOOR``, ``ROUND_CEILING``) prints a
    value at or below, or at or above, `value` instead, to the same digits.
    """
    p, q = value.numerator, value.denominator
    bp, bq = bound.numerator, bound.denominator
    # for p, bp != 0, |value| / bound > 2^(t - 2) off bit lengths: at
    # t > 4 MAX_DIGITS that is over 10^MAX_DIGITS, and every digit is
    # certain, with no wide product
    t = abs(p).bit_length() + bq.bit_length() - q.bit_length() - bp.bit_length()
    if not bp or (p and t > 4 * MAX_DIGITS):
        digits = MAX_DIGITS
    elif bp * q >= abs(p) * bq:  # bound >= |value|
        digits = 1
    else:
        certain = _to_digits(abs(p) * bq, q * bp, 1, ROUND_FLOOR)[0].adjusted()
        digits = min(certain + 2, MAX_DIGITS)
    d, rounded = _to_digits(p, q, digits, rounding)
    e10 = d.adjusted()
    # an exact value that fits in MAX_DIGITS prints in full, without exponent
    if (not bp and not rounded) or (-4 <= e10 <= 15 and e10 < digits):
        return f"{d:f}"
    mantissa = f"{d:e}".partition("e")[0]
    return f"{mantissa}e{e10:+03d}"


def format_bound(bound: _Rational) -> str:
    """Two-significant-digit scientific rendering, rounded upward."""
    if not bound.numerator:
        return "0"
    # ceiling keeps it a bound
    d, _ = _to_digits(bound.numerator, bound.denominator, 2, ROUND_CEILING)
    mantissa = f"{d:.1e}".partition("e")[0]
    return f"{mantissa}e{d.adjusted():+03d}"


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

def render_table(record: OutputRecord) -> str:
    lines = [f"# command: {record.command}"]
    for key, val in record.parameters.items():
        lines.append(f"# {key} = {val}")
    if record.rows:
        columns = list(record.rows[0].keys())
        widths = {c: len(c) for c in columns}
        for row in record.rows:
            for c in columns:
                widths[c] = max(widths[c], len(row[c]))
        lines.append("  ".join(c.rjust(widths[c]) for c in columns))
        for row in record.rows:
            lines.append("  ".join(row[c].rjust(widths[c]) for c in columns))
    if record.verdict is not None:
        lines.append(f"verdict: {record.verdict}")
    return "\n".join(lines) + "\n"


def render_csv(record: OutputRecord) -> str:
    buf = io.StringIO()
    if record.rows:
        writer = csv.DictWriter(buf, fieldnames=list(record.rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(record.rows)
    return buf.getvalue()


def render_json(record: OutputRecord) -> str:
    payload: dict = {
        "command": record.command,
        "parameters": record.parameters,
        "rows": record.rows,
    }
    if record.verdict is not None:
        payload["verdict"] = record.verdict
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def render(record: OutputRecord, fmt: str) -> str:
    """`record` as fmt: "table", "csv" or "json"."""
    return _RENDERERS[fmt](record)
