import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wps"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_work_budget(path):
    # errors.WORK_LIMIT is the only size limit: no caches and no other scan limits
    text = path.read_text()
    for name in ("lru_cache", "_MAX_VECTORS", "_MAX_BOX", "_check_scan"):
        assert name not in text, f"{path.name} uses {name}"


def _referenced(tree) -> Counter:
    """How often each name is used by a Name or Attribute node under `tree`."""
    nodes = (node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in nodes)


def _functions(tree):
    """The module-level functions of `tree` and the methods of its classes."""
    for node in tree.body:
        yield from [node] if isinstance(node, ast.FunctionDef) else node.body if isinstance(node, ast.ClassDef) else []


def test_every_function_is_called_or_exported():
    # a function or method that nothing in src/wps names outside its own
    # definition, and that wps does not export, is dead code; dunder methods
    # are called by the language
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    exported = set(_imported_names(trees.pop("__init__.py")))
    uses = sum(map(_referenced, trees.values()), Counter())
    dead = sorted(
        f"{name}: {fn.name}"
        for name, tree in trees.items()
        for fn in _functions(tree)
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("__")
        and fn.name not in exported
        and uses[fn.name] == _referenced(fn)[fn.name]
    )
    assert not dead, f"functions nothing calls: {dead}"
