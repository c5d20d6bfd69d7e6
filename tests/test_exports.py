"""Every name a module exports has a caller outside the tests."""
import ast
from pathlib import Path

import pytest

import abbrevkit

PACKAGE = Path(abbrevkit.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _exports(tree: ast.Module) -> list[str]:
    """The strings of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return []


def _imported_uses(tree: ast.Module, module: str) -> set[str]:
    """The names of abbrevkit's `module` that `tree` reaches as
    ``from .module import name`` (or ``from abbrevkit.module ...``) or as
    ``module.name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == module) or node.module == f"abbrevkit.{module}"
        ):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == module:
            found.add(node.attr)
    return found


def _own_uses(tree: ast.Module) -> set[str]:
    """The names a module reads outside the top-level statement that
    defines them."""
    found = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined = {statement.name}
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            defined = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            defined = set()
        found.update(
            node.id for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in defined
        )
    return found


def test_every_export_has_a_caller():
    # re-exports in __init__.py are not callers
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))]
    uncalled = {}
    for name, tree in modules.items():
        used = _own_uses(tree)
        for other in [t for n, t in modules.items() if n != name] + bench:
            used |= _imported_uses(other, name)
        missing = [export for export in _exports(tree) if export not in used]
        if missing:
            uncalled[name] = missing
    assert uncalled == {}


@pytest.mark.parametrize("source, module, expected", [
    ("from .ingest import read_input, Aggregator", "ingest", {"read_input", "Aggregator"}),
    ("from abbrevkit.ingest import parse_line as parse", "ingest", {"parse_line"}),
    ("agg = ingest.Aggregator.load(path)", "ingest", {"Aggregator"}),
    ("from . import ingest\nfrom .segment import tokenize", "ingest", set()),
    ("from ..ingest import merge\nfrom ingest import merge", "ingest", set()),
    ("aggregate = make()\naggregate.add_argument('--x')", "ingest", set()),
])
def test_export_guard_sees_each_import(source, module, expected):
    assert _imported_uses(ast.parse(source), module) == expected


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    pass\ndef g():\n    return f()", {"f"}),
    ("def f(n):\n    return f(n - 1)", {"n"}),
    ("X = 1\nclass A:\n    y = X", {"X"}),
    ("__all__ = ['f']\ndef f():\n    pass", set()),
    ("Y = 2\nY = Y + 1", set()),
    ("Z: int = 2\ndef f():\n    return Z", {"int", "Z"}),
])
def test_export_guard_sees_each_own_use(source, expected):
    assert _own_uses(ast.parse(source)) == expected
