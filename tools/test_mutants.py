"""tools/mutants.py on one-entry tables: a killed mutant, a survivor and a
stale snippet, and the committed table against this checkout."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import mutants  # noqa: E402

OUTPUT = "src/cosprod/output.py"
# MAX_DIGITS caps the digits of every printed value, and format_rational
# does not read it
ROUNDED = "tests/test_output.py::test_value_is_rounded_half_up_at_the_certified_digit_count"
RATIONAL = "tests/test_output.py::test_rational_past_the_int_to_str_digit_limit"


def one_digit_fewer(*tests):
    return mutants.Mutant("one digit fewer", OUTPUT, "MAX_DIGITS = 36", "MAX_DIGITS = 35",
                          tests)


def test_a_killed_mutant_passes(capsys):
    assert mutants.run([one_digit_fewer(ROUNDED)]) == 0
    assert "killed 1, survived 0, error 0" in capsys.readouterr().out


def test_a_survivor_exits_1(capsys):
    assert mutants.run([one_digit_fewer(RATIONAL)]) == 1
    assert "survived: one digit fewer" in capsys.readouterr().out


def test_a_stale_snippet_exits_1_before_any_run(capsys):
    missing = mutants.Mutant("missing", OUTPUT, "MAX_DIGITS = 37", "MAX_DIGITS = 35",
                             (ROUNDED,))
    twice = mutants.Mutant("twice", OUTPUT, "MAX_DIGITS", "DIGITS", (ROUNDED,))
    assert mutants.run([missing, twice]) == 1
    out = capsys.readouterr().out
    assert "stale: missing: the snippet occurs 0 times" in out
    assert "stale: twice: the snippet occurs" in out
    assert "killed" not in out


def test_a_golden_is_never_a_kill(capsys):
    golden = one_digit_fewer("tests/test_golden.py", ROUNDED)
    assert mutants.run([golden]) == 1
    assert "golden: one digit fewer" in capsys.readouterr().out


def test_the_table_is_current():
    assert mutants.problems(mutants.MUTANTS) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 20
