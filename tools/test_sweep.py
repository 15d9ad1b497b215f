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
    # the other way round each interval grows, and a table is never parsed
    assert sweep.sweep(tightened, SRC, JSON_TABLES[:2]) == 1
    table = [argv[:-4] + argv[-2:] for argv in JSON_TABLES[:2]]
    assert sweep.sweep(SRC, tightened, table) == 1


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
