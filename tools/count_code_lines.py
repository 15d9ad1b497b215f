"""Count the code lines of Python files, as the size of a change is reported.

    python3 tools/count_code_lines.py src/cosprod/*.py

Prints one total over the files given.  A line counts when a token other
than a comment, a line break or an indent lies on it, so blank lines and
lines of comments alone do not count, and a statement over several lines
counts once for each of them.  The lines of module, class and function
docstrings do not count either.  Stdlib only.
"""

import ast
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    """The code lines of one file's source text."""
    doc = set()  # lines of module, class and function docstrings
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    return len({line for tok in tokenize.generate_tokens(io.StringIO(src).readline)
                if tok.type not in SKIP
                for line in range(tok.start[0], tok.end[0] + 1) if line not in doc})


if __name__ == "__main__":
    print(sum(code_lines(open(path, encoding="utf-8").read()) for path in sys.argv[1:]))
