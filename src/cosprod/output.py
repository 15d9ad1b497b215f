"""Rendering of command results as aligned tables, CSV, or JSON.

Numbers are rendered from exact rationals with no float round-trip.
Inexact values are printed to as many significant digits as their error
bound certifies, plus two guard digits; the bound itself always travels in
the same record, rounded upward so the printed bound is still a bound.

Each rounding is one stdlib ``decimal`` division p/q at k significant
digits, with an exponent range no result can leave.  That division is
correctly rounded in the context's rounding mode (General Decimal
Arithmetic; IEEE 754-2008 decimal), so every printed digit is a digit of
the exact rational: a value is rounded half-up, a bound is rounded up
(ceiling) and so stays a bound, and the count of certified digits is the
decimal exponent of |value|/bound rounded down (floor).  ``decimal`` reads
and prints integers of any length, where ``str()`` of an int stops at
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
from typing import Optional

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


def _to_digits(x: Fraction, digits: int, rounding: str) -> tuple[Decimal, bool]:
    """x rounded to `digits` significant digits, and whether it was rounded.

    The quotient is correctly rounded in `rounding`; the result carries no
    trailing zeros.
    """
    ctx = Context(prec=digits, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)
    quotient = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
    return ctx.normalize(quotient), bool(ctx.flags[Rounded])


def format_decimal(value: Fraction, bound: Fraction) -> str:
    """Render `value` to the certainty implied by `bound`, plus two guards."""
    if bound == 0:
        digits = MAX_DIGITS
    elif bound >= abs(value):
        digits = 1
    else:
        certain = _to_digits(abs(value) / bound, 1, ROUND_FLOOR)[0].adjusted()
        digits = min(certain + 2, MAX_DIGITS)
    d, rounded = _to_digits(value, digits, ROUND_HALF_UP)
    e10 = d.adjusted()
    # an exact value that fits in MAX_DIGITS prints in full, without exponent
    if (bound == 0 and not rounded) or (-4 <= e10 <= 15 and e10 < digits):
        return f"{d:f}"
    mantissa = f"{d:e}".partition("e")[0]
    return f"{mantissa}e{e10:+03d}"


def format_bound(bound: Fraction) -> str:
    """Two-significant-digit scientific rendering, rounded upward."""
    if bound == 0:
        return "0"
    d, _ = _to_digits(bound, 2, ROUND_CEILING)  # ceiling keeps it a bound
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
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown output format {fmt!r}") from None
    return renderer(record)
