import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wps"
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


def test_package_binds_only_its_modules():
    # public names are imported from their module; a flat `wps.*` namespace
    # would be a second path to each of them
    tree = ast.parse((SRC / "__init__.py").read_text())
    modules = {path.stem for path in MODULES}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__version__"]:
            continue
        else:
            bound.append(ast.unparse(node))
    stray = sorted(set(bound) - modules)
    assert not stray, f"src/wps/__init__.py binds more than its modules and __version__: {stray}"


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


# Library functions with no caller in src/wps, each restating paper content
# that no other code restates; README's "Library-only functions" paragraph
# says why each has no CLI or oracle route.
LIBRARY_ONLY = {
    "normalize",
    "cover_project",
    "patch_representative",
    "patch_equivalent",
    "complete_intersection_series",
    "generator_discovery",
}


def test_every_function_is_called_or_exported():
    # a function or method that nothing in src/wps names outside its own
    # definition is dead code unless it is in LIBRARY_ONLY: being exported
    # alone does not count as a use.  A LIBRARY_ONLY name that gains a caller
    # is a stale entry.  Dunder methods are called by the language
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    del trees["__init__.py"]
    uses = sum(map(_referenced, trees.values()), Counter())
    uncalled = [
        (name, fn.name)
        for name, tree in trees.items()
        for fn in _functions(tree)
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("__")
        and uses[fn.name] == _referenced(fn)[fn.name]
    ]
    dead = sorted(f"{name}: {fn}" for name, fn in uncalled if fn not in LIBRARY_ONLY)
    assert not dead, f"functions nothing calls: {dead}"
    stale = sorted(LIBRARY_ONLY - {fn for _, fn in uncalled})
    assert not stale, f"LIBRARY_ONLY names that have a caller or are gone: {stale}"


def test_library_only_functions_are_documented():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Library-only functions", 1)[1].split("\n#", 1)[0]
    missing = sorted(name for name in LIBRARY_ONLY if f"`{name}`" not in section)
    assert not missing, f"README's library-only paragraph does not name {missing}"


@pytest.mark.parametrize("folder", ["src/wps", "tests", "bench"])
def test_python_310_grammar(folder):
    # CI's oldest interpreter is 3.10; this checks the grammar only, not
    # which standard-library names exist there
    for path in sorted((ROOT / folder).rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
