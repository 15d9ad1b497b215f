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
keeps the old row here to show that the new interval lies inside it.
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
