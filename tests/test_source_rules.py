"""The package's source rules, checked on the syntax tree of each module.

Each module of src/glcs is parsed once, and each rule lists the places that
break it, as path:line.  The rules:

- no assert statement: python -O strips them, and certificates must
  survive python -O;
- every functools cache is bounded, so a long-running process does not
  grow without bound: each lru_cache names a literal integer maxsize, and
  functools.cache decorates only functions without parameters;
- no floating point, since every result is exact: no float or complex
  literal, no float( or complex( call, no true division / or /=;
- only __init__.py star-imports, and only from a module whose __all__ is
  a literal list of names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = {
    path.relative_to(ROOT): ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "src" / "glcs").rglob("*.py"))
}


def asserts(path, tree):
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def unbounded_caches(path, tree):
    modules = {
        a.asname or a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.Import)
        for a in n.names
        if a.name == "functools"
    }
    names = {
        a.asname or a.name: a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "functools"
        for a in n.names
    }

    def which(node):
        # the functools name node refers to, if any
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            return node.attr
        return None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and which(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"]
            size = (node.args or size)[:1]
            if (
                size
                and isinstance(size[0], ast.Constant)
                and type(size[0].value) is int
            ):
                bounded.add(node.func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                bounded.update(d for d in node.decorator_list if which(d) == "cache")
    return [
        f"{path}:{node.lineno}: unbounded functools.{which(node)}"
        for node in ast.walk(tree)
        if which(node) in ("lru_cache", "cache") and node not in bounded
    ]


def floating_point(path, tree):
    def inexact(node):
        if isinstance(node, ast.Constant):
            return type(node.value) in (float, complex)
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id in (
                "float",
                "complex",
            )
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.Div)
        return False

    return [f"{path}:{node.lineno}" for node in ast.walk(tree) if inexact(node)]


def _literal_all(tree) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["__all__"]:
            try:
                names = ast.literal_eval(node.value)
            except ValueError:
                return False
            return isinstance(names, (list, tuple)) and all(
                type(n) is str for n in names
            )
    return False


def star_imports(path, tree):
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.ImportFrom)
            and any(a.name == "*" for a in node.names)
        ):
            continue
        where = f"{path}:{node.lineno}"
        if path.name != "__init__.py":
            found.append(f"{where}: import * outside __init__.py")
            continue
        base = path.parent
        for _ in range(node.level - 1):
            base = base.parent
        target = base.joinpath(*(node.module or "").split("."))
        module = TREES.get(target.with_suffix(".py"))
        if module is None:
            module = TREES.get(target / "__init__.py")
        if node.level == 0 or module is None or not _literal_all(module):
            found.append(f"{where}: {node.module} has no literal __all__")
    return found


def test_every_module_is_read():
    names = {path.name for path in TREES}
    assert {"__init__.py", "cli.py", "holonomy.py"} <= names


@pytest.mark.parametrize(
    "rule", [asserts, unbounded_caches, floating_point, star_imports],
    ids=lambda rule: rule.__name__,
)
def test_source_rule(rule):
    found = [line for path, tree in TREES.items() for line in rule(path, tree)]
    assert found == []
