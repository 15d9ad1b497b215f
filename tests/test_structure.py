"""Module boundaries of the package, checked on its syntax trees.

Modules share only public names.  The dyadic rounding of a result (the
quantizer ``_round_sig`` and the error tidy-up ``_err_up``) is done in
``arith`` alone, behind ``real_from_rational``, and no other module calls
the ``BoundedReal`` constructor, so every ball a route makes comes out of
that one rounding.  Every exported name and every public member of a
class is used by the package itself or by the benchmark, and no binary
floating point appears anywhere: no ``float`` name and no float literal.
The coefficient oracles stay independent of the recurrence they check:
``series`` imports nothing from ``recurrence``, and neither the Bernoulli
route nor the Picard fixed point reaches the recurrence's table.
"""

import ast
from pathlib import Path

import cosprod

SOURCES = sorted(Path(cosprod.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
ROUNDING = {"_round_sig", "_err_up"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_private_name_imported_across_modules():
    offenders = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def test_rounding_helpers_referenced_only_in_arith():
    assert "arith.py" in {path.name for path in SOURCES}
    arith = next(path for path in SOURCES if path.name == "arith.py")
    defined = {node.name for node in ast.walk(_tree(arith))
               if isinstance(node, ast.FunctionDef)}
    assert ROUNDING <= defined
    offenders = []
    for path in SOURCES:
        if path.name == "arith.py":
            continue
        for node in ast.walk(_tree(path)):
            names = set()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.ImportFrom, ast.Import)):
                names.update(alias.name for alias in node.names)
            offenders += [f"{path.name}:{node.lineno} {n}"
                          for n in names & ROUNDING]
    assert offenders == []


def test_no_module_but_arith_calls_the_constructor():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "arith.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and "BoundedReal" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert offenders == []


def test_every_exported_name_is_used():
    used = set()
    for path in SOURCES + BENCH:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(cosprod.__all__) - used) == []


def test_every_public_class_member_is_read():
    """Each public method, property and dataclass field is read as ``.name``.

    The reads are counted by name alone, in the package and the benchmark,
    so a member that shares its name with a member of another class read
    anywhere (``precision_bits``, ``order``, ``rows``) is not caught here.
    Reads off the parsed arguments, ``args.<flag>``, are not counted, so a
    flag's name alone (``n``, ``m_max``) hides no member.
    """
    read = {node.attr
            for path in SOURCES + BENCH
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}
    unread = [
        f"{path.name}: {cls.name}.{name}"
        for path in SOURCES
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        for name in ([member.name] if isinstance(member, ast.FunctionDef)
                     else [member.target.id] if isinstance(member, ast.AnnAssign)
                     else [])
        if not name.startswith("_") and name not in read
    ]
    assert unread == []


def test_no_floating_point_in_the_package():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    ]
    assert offenders == []


ORACLES = {"recurrence.py": ("bernoulli_numbers", "tangent_coefficients"),
           "series.py": ("picard_fixed_point",)}
RECURRENCE_TABLE = {"_extend", "_coeff_prefix", "lambda_coefficients",
                    "lambda_closed_form"}


def _names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_series_imports_nothing_from_recurrence():
    series = next(path for path in SOURCES if path.name == "series.py")
    imported = set()
    for node in ast.walk(_tree(series)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "recurrence" in name}


def test_coefficient_oracles_never_reach_the_recurrence_table():
    # a module-level function counts with everything it calls in its module
    offenders = []
    for path in SOURCES:
        if path.name not in ORACLES:
            continue
        functions = {node.name: node for node in _tree(path).body
                     if isinstance(node, ast.FunctionDef)}
        for oracle in ORACLES[path.name]:
            assert oracle in functions
            seen, todo, reached = set(), [oracle], set()
            while todo:
                name = todo.pop()
                if name in seen:
                    continue
                seen.add(name)
                names = _names(functions[name])
                reached |= names
                todo += [n for n in names if n in functions]
            offenders += [f"{oracle}: {n}" for n in sorted(reached & RECURRENCE_TABLE)]
    assert offenders == []
