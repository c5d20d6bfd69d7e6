"""Every name a module exports has a caller outside the tests, and every
default of an exported function is set by some caller."""
import ast
from pathlib import Path

import pytest

import abbrevkit

PACKAGE = Path(abbrevkit.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
TESTS = Path(__file__).parent


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


def _exported_functions(tree: ast.Module) -> dict[str, ast.arguments]:
    """The parameters of each module-level function in the module's ``__all__``."""
    exports = set(_exports(tree))
    return {node.name: node.args for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in exports}


def _defaulted(args: ast.arguments) -> list[str]:
    """The names of the parameters that have a default."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    keyword_only = [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return positional[len(positional) - len(args.defaults):] + keyword_only


def _passed(tree: ast.Module, name: str, args: ast.arguments) -> set[str]:
    """The parameters that the calls of `name` (``name(...)`` or
    ``x.name(...)``) in `tree` pass, by position or by keyword; a
    ``*args`` passes every positional parameter and a ``**kwargs`` every
    parameter."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    every = positional + [a.arg for a in args.kwonlyargs]
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", ""), getattr(node.func, "attr", "")):
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed.update(positional if starred else positional[: len(node.args)])
            for keyword in node.keywords:
                passed.update(every if keyword.arg is None else [keyword.arg])
    return passed


def test_every_default_is_set_by_a_caller():
    # tests are callers too: only a test needs, say, a small `total_cap`
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted([*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py"), *TESTS.glob("*.py")])]
    unset = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, args in _exported_functions(ast.parse(path.read_text(encoding="utf-8"))).items():
            passed = set().union(*(_passed(tree, name, args) for tree in callers))
            missing = [parameter for parameter in _defaulted(args) if parameter not in passed]
            if missing:
                unset[f"{path.stem}.{name}"] = missing
    assert unset == {}


@pytest.mark.parametrize("source, expected", [
    ("__all__ = ['f']\ndef f(a, b=1, *, c, d=2):\n    pass", {"f": ["b", "d"]}),
    ("__all__ = ['f']\ndef f(a, /, b=1, c=2, *rest, **more):\n    pass", {"f": ["b", "c"]}),
    ("__all__ = ['f']\ndef f(a):\n    pass\ndef g(b=1):\n    pass", {"f": []}),
    ("__all__ = ['A']\nclass A:\n    def m(self, x=1):\n        pass", {}),
])
def test_default_guard_sees_each_default(source, expected):
    found = _exported_functions(ast.parse(source))
    assert {name: _defaulted(args) for name, args in found.items()} == expected


@pytest.mark.parametrize("source, expected", [
    ("f(1, 2)", {"a", "b"}),
    ("m.f(c=3)\nf(1)", {"a", "c"}),
    ("def h():\n    return [f(1, k=2)]", {"a", "k"}),
    ("f(*values)", {"a", "b", "c"}),
    ("f(1, **options)", {"a", "b", "c", "k"}),
    ("g(1, 2, c=3)\nx = f\nm.f.g(1)", set()),
])
def test_default_guard_sees_each_call(source, expected):
    args = ast.parse("def f(a, b=1, c=2, *, k=3):\n    pass").body[0].args
    assert _passed(ast.parse(source), "f", args) == expected
