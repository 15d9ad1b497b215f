"""Rendering of command results as aligned tables, CSV, or JSON.

Numbers are rendered from exact rationals with no float round-trip.
Inexact values are printed to as many significant digits as their error
bound certifies, plus two guard digits; the bound itself always travels in
the same record, rounded upward so the printed bound is still a bound.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
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
    """Lowest-terms p/q (bare integer when q = 1)."""
    return str(Fraction(f))


def _cmp_pow10(n: int, d: int, e: int) -> int:
    """Sign of n/d - 10**e for positive n, d."""
    lhs, rhs = (n, d * 10**e) if e >= 0 else (n * 10**-e, d)
    return (lhs > rhs) - (lhs < rhs)


def _floor_log10(x: Fraction) -> int:
    """Largest e with 10**e <= x, for x > 0."""
    n, d = x.numerator, x.denominator
    # estimate from bit lengths (log10 2 ~ 0.30103), corrected below;
    # str() of an int past sys.get_int_max_str_digits() digits raises
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while _cmp_pow10(n, d, e) < 0:
        e -= 1
    while _cmp_pow10(n, d, e + 1) >= 0:
        e += 1
    return e


def _sig_digits_string(x: Fraction, digits: int) -> tuple[str, int]:
    """Round positive x to `digits` significant decimal digits.

    Returns (digit string of exactly `digits` chars, exponent of the
    leading digit).  Rounding is half-up, carried out in integers.
    """
    e10 = _floor_log10(x)
    shift = digits - 1 - e10
    scaled = x * Fraction(10) ** shift
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    if n >= 10**digits:
        n //= 10
        e10 += 1
    return str(n), e10


def _terminating_decimal(x: Fraction) -> Optional[str]:
    """Exact decimal string when it has at most MAX_DIGITS digits."""
    d = x.denominator
    twos = (d & -d).bit_length() - 1
    d >>= twos
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return None
    frac_digits = max(twos, fives)
    # the digits of x without leading zeros, counted before any str(),
    # which raises past sys.get_int_max_str_digits() digits
    scaled = abs(x.numerator) * 10**frac_digits // x.denominator
    if scaled >= 10**MAX_DIGITS:
        return None
    whole = str(scaled)
    sign = "-" if x < 0 else ""
    if frac_digits == 0:
        return sign + whole
    whole = whole.rjust(frac_digits + 1, "0")
    text = f"{whole[:-frac_digits]}.{whole[-frac_digits:]}".rstrip("0").rstrip(".")
    return sign + text


def format_decimal(value: Fraction, bound: Fraction) -> str:
    """Render `value` to the certainty implied by `bound`, plus two guards."""
    if value == 0:
        return "0"
    if bound == 0:
        exact = _terminating_decimal(value)
        if exact is not None:
            return exact
        digits = MAX_DIGITS
    elif bound >= abs(value):
        digits = 1
    else:
        certain = _floor_log10(abs(value) / bound)
        digits = min(certain + 2, MAX_DIGITS)
    s, e10 = _sig_digits_string(abs(value), digits)
    sign = "-" if value < 0 else ""
    if 0 <= e10 < digits and e10 <= 15:
        head, tail = s[: e10 + 1], s[e10 + 1 :].rstrip("0")
        return sign + (f"{head}.{tail}" if tail else head)
    if -4 <= e10 < 0:
        return sign + "0." + "0" * (-e10 - 1) + s.rstrip("0")
    tail = s[1:].rstrip("0")
    mantissa = f"{s[0]}.{tail}" if tail else s[0]
    return f"{sign}{mantissa}e{e10:+03d}"


def format_bound(bound: Fraction) -> str:
    """Two-significant-digit scientific rendering, rounded upward."""
    if bound == 0:
        return "0"
    e10 = _floor_log10(bound)
    scaled = bound * Fraction(10) ** (1 - e10)
    n = -((-scaled.numerator) // scaled.denominator)  # ceil keeps it a bound
    if n >= 100:
        n //= 10
        e10 += 1
    return f"{n // 10}.{n % 10}e{e10:+03d}"


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
