"""tools/count_code_lines.py on small sources: what counts as a code line."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from count_code_lines import code_lines  # noqa: E402

SCRIPT = Path(__file__).resolve().parent / "count_code_lines.py"


def test_docstrings_comments_and_blank_lines_are_not_counted():
    src = '''"""A module docstring
over two lines."""

# a comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring,

        with a blank line in it."""
        return 1  # a comment after code


async def g():
    """An async function docstring."""
    pass
'''
    # class A:, def f, return 1, async def g, pass
    assert code_lines(src) == 5


def test_a_statement_over_several_lines_counts_once_per_line():
    assert code_lines("x = (1,\n     2,\n     3)\n") == 3
    assert code_lines("y = f(a,\n      # a comment inside\n      b)\n") == 2


def test_a_string_that_is_not_a_docstring_is_code():
    # the second string of a body, and a string assigned, are not docstrings
    src = 'def f():\n    """Doc."""\n    """Not a docstring."""\n    s = """two\nlines"""\n'
    assert code_lines(src) == 4


def test_an_empty_file_has_no_code_lines():
    assert code_lines("") == 0
    assert code_lines("# only a comment\n\n") == 0


def test_the_script_prints_the_total_over_its_files(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text('"""Doc."""\nimport os\n', encoding="utf-8")
    two.write_text("a = 1\n\nb = (2,\n     3)\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(one), str(two)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "4\n"
