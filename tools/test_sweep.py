"""tools/sweep.py on small grids: a tree against itself, a perturbed copy and
a tightened copy of this checkout's src/, and the extraction of a revision."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import sweep  # noqa: E402

SRC = sweep.ROOT / "src"
# every 40th run of the grid reaches all five commands and all three formats
RUNS = sweep.grid()[::40]
JSON_TABLES = [[command, "--m-max", str(m), "--format", "json", "--precision", str(bits)]
               for command in ("coeffs", "lambda") for m in (1, 10, 40)
               for bits in (8, 64, 300)]


def copy_with(tmp_path: Path, module: str, old: str, new: str) -> Path:
    dest = tmp_path / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    path = dest / "cosprod" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new), encoding="utf-8")
    return dest


def test_the_grid_is_fixed_and_over_a_thousand_runs():
    runs = sweep.grid()
    assert runs == sweep.grid() and len(runs) >= 1000
    assert f"{len(runs):,} of them" in sweep.grid.__doc__
    # lambda across its chunk edges and at levels that die in the first chunk
    lambdas = [dict(zip(argv[1::2], argv[2::2])) for argv in runs
               if argv[0] == "lambda" and len(argv) == 7]
    assert {"255", "256", "257", "100000"} <= {run["--num-terms"] for run in lambdas}
    assert {"40", "60"} <= {run["--m-max"] for run in lambdas}
    assert {argv[0] for argv in runs} == {"coeffs", "lambda", "product", "verify",
                                          "rearrange"}
    assert {"csv", "json"} <= {argv[-1] for argv in runs}


def test_a_tree_against_itself_exits_0(capsys):
    assert sweep.sweep(SRC, SRC, RUNS) == 0
    assert f"identical {len(RUNS)}, nested 0, different 0" in capsys.readouterr().out


def test_a_perturbed_copy_exits_1(tmp_path, capsys):
    # one digit fewer in every printed value
    perturbed = copy_with(tmp_path, "output.py", "MAX_DIGITS = 36", "MAX_DIGITS = 35")
    assert sweep.sweep(SRC, perturbed, RUNS) == 1
    out = capsys.readouterr().out
    assert "different: cosprod " in out and "different 0" not in out


def test_a_tightened_copy_is_classed_as_nested(tmp_path, capsys):
    # the closed forms at 24 more bits: narrower balls around the same values
    tightened = copy_with(tmp_path, "analytic.py",
                          "work, shift = precision_bits + 16, precision_bits + 48",
                          "work, shift = precision_bits + 40, precision_bits + 72")
    assert sweep.sweep(SRC, tightened, JSON_TABLES) == 0
    assert f"identical 0, nested {len(JSON_TABLES)}, different 0" in capsys.readouterr().out
    # the other way round each interval grows; tables and CSV are read alike
    assert sweep.sweep(tightened, SRC, JSON_TABLES[:2]) == 1
    others = [argv[:-3] + [fmt] + argv[-2:] for argv in JSON_TABLES[3:5]
              for fmt in ("table", "csv")]
    assert sweep.sweep(SRC, tightened, others) == 0
    assert sweep.sweep(tightened, SRC, others) == 1


TABLE = """\
# command: rearrange
# n = 3
# precision = 128
      method    value    bound      low     high
   row_order  0.14381  2.8e-05  0.14379  0.14384
column_order  0.14381  2.8e-05  0.14379  0.14384
verdict: PASS
"""


def as_csv(table: str) -> str:
    rows = [line.split() for line in table.splitlines() if not line.startswith(("#", "verdict"))]
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", [str, as_csv])
def test_a_table_or_csv_is_classed_by_its_fields(fmt):
    old = (0, fmt(TABLE), "")
    # the ends moved outward, which realigns the table's columns
    ends = TABLE.replace("      low     high", "           low          high").replace(
        "0.14379  0.14384", "0.1437899  0.1438401")
    assert sweep.classify(old, (0, fmt(ends), "")) == "nested"
    # a value moved outside its old interval, value ± 3/2 bound
    moved = TABLE.replace("   row_order  0.14381", "   row_order  0.14386")
    assert sweep.classify(old, (0, fmt(moved), "")) == "different"
    # a field other than an interval's
    renamed = TABLE.replace("column_order", "column_ordre")
    assert sweep.classify(old, (0, fmt(renamed), "")) == "different"


def test_a_tables_parameters_and_verdict_are_compared():
    old = (1, TABLE, "")
    for new in (TABLE.replace("# n = 3", "# n = 4"), TABLE.replace("PASS", "FAIL")):
        assert sweep.classify(old, (1, new, "")) == "different"
    record = sweep.parse(TABLE)
    assert record["parameters"] == {"n": "3", "precision": "128"}
    assert record["verdict"] == "PASS" and record["command"] == "rearrange"
    assert record["rows"][1] == {"method": "column_order", "value": "0.14381",
                                 "bound": "2.8e-05", "low": "0.14379", "high": "0.14384"}


def test_classify_compares_exit_code_and_stderr_first():
    record = '{"command": "coeffs", "rows": []}\n'
    assert sweep.classify((0, record, ""), (0, record, "")) == "identical"
    assert sweep.classify((0, record, ""), (1, record, "")) == "different"
    assert sweep.classify((2, "", "a\n"), (2, "", "b\n")) == "different"


@pytest.mark.skipif(not (sweep.ROOT / ".git").exists(), reason="not a git checkout")
def test_extract_takes_a_revisions_src(tmp_path):
    src = sweep.extract("HEAD", tmp_path)
    assert (src / "cosprod" / "cli.py").is_file()
    assert not (tmp_path / "tests").exists()
