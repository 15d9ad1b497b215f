"""Byte-exact output of the five README commands and three high-precision runs.

The files under ``tests/golden/`` hold the standard output of each README
command at its documented defaults (with ``--n 3``), and of three commands
that take the ``BoundedReal`` arithmetic to hundreds or thousands of bits.
A refactor that leaves the numbers alone must leave these bytes alone; a
change that deliberately tightens a bound regenerates them and says so.
"""

from pathlib import Path

import pytest

from cosprod import cli

GOLDEN = Path(__file__).parent / "golden"

README_COMMANDS = {
    "coeffs": ["coeffs", "--m-max", "10"],
    "lambda": ["lambda", "--m-max", "10", "--num-terms", "100000"],
    "product": ["product", "--n", "3", "--num-factors", "100000"],
    "verify": ["verify", "--n", "3", "--num-factors", "100000", "--order", "30"],
    "rearrange": ["rearrange", "--n", "3", "--rows", "1000", "--order", "20"],
    "verify-4096": ["verify", "--n", "11/10", "--num-factors", "1000",
                    "--order", "40", "--precision", "4096"],
    "coeffs-300-csv": ["coeffs", "--m-max", "40", "--precision", "300",
                       "--format", "csv"],
    "rearrange-1000": ["rearrange", "--n", "5/4", "--rows", "300",
                       "--order", "40", "--precision", "1000"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_unchanged(name, capsys):
    code = cli.main(README_COMMANDS[name])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
