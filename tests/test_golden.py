"""Byte-exact output of the five README commands and seven high-precision runs.

The files under ``tests/golden/`` hold the standard output of each README
command at its documented defaults (with ``--n 3``), and of seven commands
that take the ``BoundedReal`` arithmetic to hundreds or thousands of bits.
The three 4096-bit ``verify`` runs differ in how many bits their series
route carries (about 17, 54 and 196), so each tests the working precision
of ``exp`` and of the series at a different depth.  The 16,384-bit
``verify``, the widest precision CI runs, pins the rows printed from the
widest numbers any check reads.  The 256-bit ``verify`` at 100,000 factors
takes its product at about 51 bits, fitted to the product's log tail, with
its blocks grouped for one mark rather than the 18 of ``product_trace``.
A refactor that leaves the numbers alone must leave these bytes alone; a
change that deliberately tightens a bound regenerates them, says so, and
keeps the old row here to show that the new interval lies inside it.  The
printed ends ``low`` and ``high``, once rounded to nearest and now rounded
outward, keep their old rows to show the reverse: each new pair of ends
contains the old one, and the other columns did not move.
The README's examples are pinned too: its ``python`` block must print the
line shown under it, and its ``cosprod`` lines are the first five commands
below.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from cosprod import cli

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

README_COMMANDS = {
    "coeffs": ["coeffs", "--m-max", "10"],
    "lambda": ["lambda", "--m-max", "10", "--num-terms", "100000"],
    "product": ["product", "--n", "3", "--num-factors", "100000"],
    "verify": ["verify", "--n", "3", "--num-factors", "100000", "--order", "30"],
    "rearrange": ["rearrange", "--n", "3", "--rows", "1000", "--order", "20"],
    "verify-4096": ["verify", "--n", "11/10", "--num-factors", "1000",
                    "--order", "40", "--precision", "4096"],
    "verify-4096-3-2": ["verify", "--n", "3/2", "--num-factors", "1000",
                        "--order", "40", "--precision", "4096"],
    "verify-4096-5": ["verify", "--n", "5", "--num-factors", "1000",
                      "--order", "40", "--precision", "4096"],
    "coeffs-300-csv": ["coeffs", "--m-max", "40", "--precision", "300",
                       "--format", "csv"],
    "rearrange-1000": ["rearrange", "--n", "5/4", "--rows", "300",
                       "--order", "40", "--precision", "1000"],
    "verify-16384-7": ["verify", "--n", "7", "--num-factors", "10",
                       "--order", "5", "--precision", "16384"],
    "verify-256-31-20": ["verify", "--n", "31/20", "--num-factors", "100000",
                         "--order", "30", "--precision", "256"],
}

# the cosine row of verify-4096-3-2 as the plain Maclaurin cosine printed it,
# before the cosine halved its argument and doubled back
OLD_COSINE_4096_3_2 = ("    cosine                  0.5  2.9e-1236"
                       "                  0.5                  0.5")
# and as the versine in ball arithmetic printed it, before the cosine ran on
# one scaled integer
OLD_BALL_COSINE_4096_3_2 = ("    cosine                  0.5  3.3e-1238"
                            "                  0.5                  0.5")
# the column_order rows of the two rearrange runs as the column order printed
# them when it summed its columns in ball arithmetic, before one exact sum
OLD_BALL_COLUMNS = {
    "rearrange": "column_order  0.14381  3.1e-05  0.14378  0.14384",
    "rearrange-1000": "column_order  1.1738  7.0e-04  1.1731  1.1745",
}
# rows of the closed forms as the ball products printed them, before the
# closed forms were enclosed between the powers at the two ends of pi's ball,
# with the index of the closed form's value (its bound follows)
OLD_BALL_CLOSED_FORMS = {
    "coeffs": ("10  221930581/1856156927625  443861162/1856156927625"
               "   1.0000000002868076974555819972982049       1.4e-42", 3),
    "lambda": ("10   1.0000000002868076974555819972982049       6.0e-39"
               "  221930581/1946321606541312000   1.0000000002868076974555819972982049"
               "       1.4e-42     PASS", 4),
    "coeffs-300-csv": (
        "40,312223940197672457663787850505582669911118882046722901861343195814"
        "110016561779/15277643179255766378780293372939789914315654478635611480"
        "13214536238736772346159023284912109375,624447880395344915327575701011"
        "165339822237764093445803722686391628220033123558/15277643179255766378"
        "78029337293978991431565447863561148013214536238736772346159023284912"
        "109375,1,9.0e-94", 3),
}

# the interval rows of the verify and rearrange goldens as they printed with
# low and high rounded to nearest, before each end was rounded outward:
# method, value, bound, low, high
OLD_NEAREST_ENDS = {
    "verify": (
        "product  0.86602564  2.5e-07  0.8660254  0.86602589",
        "log_series  0.86602540378443864676372317075302  1.1e-31  "
        "0.86602540378443864676372317075291  0.86602540378443864676372317075312",
        "cosine  0.866025403784438646763723170752936183  1.5e-39  "
        "0.866025403784438646763723170752936183  0.866025403784438646763723170752936183",
    ),
    "verify-4096": (
        "product  0.14234  3.0e-05  0.14231  0.14237",
        "log_series  0.142322  1.1e-05  0.142312  0.142332",
        "cosine  0.142314838273285140443792668616369669  1.3e-1234  "
        "0.142314838273285140443792668616369669  0.142314838273285140443792668616369669",
    ),
    "verify-4096-3-2": (
        "product  0.50006  5.6e-05  0.5  0.50011",
        "log_series  0.50000000000000008  1.1e-16  "
        "0.49999999999999998  0.50000000000000018",
        "cosine  0.5  1.8e-1238  0.5  0.5",
    ),
    "verify-4096-5": (
        "product  0.951066  9.6e-06  0.951056  0.951076",
        "log_series  0.951056516295153572116439333379382143  1.5e-59  "
        "0.951056516295153572116439333379382143  0.951056516295153572116439333379382143",
        "cosine  0.951056516295153572116439333379382143  4.9e-1234  "
        "0.951056516295153572116439333379382143  0.951056516295153572116439333379382143",
    ),
    "verify-16384-7": (
        "product  0.97543  5.3e-04  0.9749  0.97595",
        "log_series  0.974927912194  1.6e-11  0.974927912179  0.974927912209",
        "cosine  0.974927912181823607018131682993931217  4.3e-4933  "
        "0.974927912181823607018131682993931217  0.974927912181823607018131682993931217",
    ),
    "verify-256-31-20": (
        "product  0.5289646  5.6e-07  0.528964  0.5289651",
        "log_series  0.52896401032701  5.9e-14  0.52896401032695  0.52896401032707",
        "cosine  0.528964010326962457365492393912234726  4.4e-78  "
        "0.528964010326962457365492393912234726  0.528964010326962457365492393912234726",
    ),
    "rearrange": (
        "row_order  0.14381  2.8e-05  0.14379  0.14384",
        "column_order  0.14381  2.8e-05  0.14379  0.14384",
    ),
    "rearrange-1000": (
        "row_order  1.1738  5.4e-04  1.1733  1.1744",
        "column_order  1.1738  5.4e-04  1.1733  1.1744",
    ),
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_unchanged(name, capsys):
    code = cli.main(README_COMMANDS[name])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_readme_examples_are_what_the_package_does(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    at = next(i for i, (lang, _) in enumerate(blocks) if lang == "python")
    exec(blocks[at][1], {})
    assert capsys.readouterr().out == blocks[at + 1][1]
    shown = [line.split("#")[0].split()[1:] for line in text.splitlines()
             if line.startswith("cosprod ")]
    assert shown == list(README_COMMANDS.values())[:5]


def _interval(row, at=1, sep=None):
    value, bound = row.split(sep)[at:at + 2]
    return Fraction(value) - Fraction(bound), Fraction(value) + Fraction(bound)


def _row(name, first, capsys, sep=None):
    assert cli.main(README_COMMANDS[name]) == cli.EXIT_OK
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.split(sep)[:1] == [first])


def test_tightened_cosine_lies_inside_the_old_one(capsys):
    (lo, hi), (old_lo, old_hi) = (_interval(_row("verify-4096-3-2", "cosine", capsys)),
                                  _interval(OLD_COSINE_4096_3_2))
    assert old_lo < lo <= hi < old_hi


def test_fixed_point_cosine_lies_inside_the_ball_one(capsys):
    (lo, hi), (old_lo, old_hi) = (_interval(_row("verify-4096-3-2", "cosine", capsys)),
                                  _interval(OLD_BALL_COSINE_4096_3_2))
    assert old_lo < lo <= hi < old_hi


@pytest.mark.parametrize("name", sorted(OLD_BALL_COLUMNS))
def test_exact_column_sum_lies_inside_the_ball_one(name, capsys):
    (lo, hi), (old_lo, old_hi) = (_interval(_row(name, "column_order", capsys)),
                                  _interval(OLD_BALL_COLUMNS[name]))
    assert old_lo < lo <= hi < old_hi


@pytest.mark.parametrize("name", sorted(OLD_BALL_CLOSED_FORMS))
def test_enclosed_closed_form_lies_inside_the_ball_one(name, capsys):
    old, at = OLD_BALL_CLOSED_FORMS[name]
    sep = "," if name.endswith("csv") else None
    m = old.split(sep)[0]
    (lo, hi), (old_lo, old_hi) = (_interval(_row(name, m, capsys, sep), at, sep),
                                  _interval(old, at, sep))
    assert old_lo < lo <= hi < old_hi


@pytest.mark.parametrize("name", sorted(OLD_NEAREST_ENDS))
def test_outward_ends_contain_the_nearest_ones(name, capsys):
    old = [row.split() for row in OLD_NEAREST_ENDS[name]]
    assert cli.main(README_COMMANDS[name]) == cli.EXIT_OK
    methods = {row[0] for row in old}
    new = [line.split() for line in capsys.readouterr().out.splitlines()
           if line.split()[:1] and line.split()[0] in methods]
    assert [row[:3] for row in new] == [row[:3] for row in old]
    for (*_, low, high), (*_, old_low, old_high) in zip(new, old):
        assert Fraction(low) <= Fraction(old_low) <= Fraction(old_high) <= Fraction(high)
