"""The public API resolves: every name polyform/__init__.py imports, and
every polyform name the benchmark harness (perfbench/*.py) imports.

The harness is a separate program that only reads the library, so a
deletion that breaks one of its imports would surface there as a failed
run rather than here; this reads its imports with ast and resolves them.
"""
import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import polyform

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "polyform" / "__init__.py"
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def polyform_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every `from polyform... import name` in the file,
    with relative imports resolved against the polyform package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = ".".join(filter(None, ["polyform", node.module]))
        elif node.module == "polyform" or (node.module or "").startswith("polyform."):
            module = node.module
        else:
            continue
        out.extend((module, alias.name) for alias in node.names)
    return out


def resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_init_names_resolve_and_are_exported():
    names = polyform_imports(INIT)
    assert len(names) > 40
    for module, name in names:
        assert resolves(module, name), f"{module}.{name}"
        assert hasattr(polyform, name), name


def test_benchmark_files_are_found():
    assert ROOT / "perfbench" / "workloads.py" in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    missing = [f"{m}.{n}" for m, n in polyform_imports(path) if not resolves(m, n)]
    assert missing == []


def names_used(tree: ast.AST) -> Counter:
    """How often each name is read in the tree: loaded names, attribute
    names and the names `from ... import` brings in."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_module_level_definition_is_used():
    """Each module-level function or class in src/polyform is referenced
    somewhere in src/polyform outside its own body (which covers the names
    __init__.py imports), or imported by the benchmark harness."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(INIT.parent.glob("*.py"))}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    bench = {name for path in BENCH_FILES for _module, name in polyform_imports(path)}
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == names_used(node)[node.name]
        and node.name not in bench
    ]
    assert unused == []
