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


def loaded(tree: ast.AST) -> Counter:
    """How often each bare name is read in the tree."""
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def bindings(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for every name the module imports, and for every private
    name (one leading underscore) it defines at module level, node being
    the statement that binds it."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.partition(".")[0], node) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node) for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return out


@pytest.mark.parametrize("path", sorted(INIT.parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_and_private_name_is_used_in_its_module(path):
    """A deletion leaves no dead name behind: each name a src/polyform module
    imports, and each private name it defines at module level, is read in
    that module outside the statement that binds it, or re-exported by
    __init__.py (whose own imports are the re-exports)."""
    tree = ast.parse(path.read_text(), str(path))
    module = "polyform" if path == INIT else f"polyform.{path.stem}"
    exported = {name for source, name in polyform_imports(INIT) if module in ("polyform", source)}
    reads = loaded(tree)
    unused = [name for name, node in bindings(tree) if name not in exported and reads[name] == loaded(node)[name]]
    assert unused == []
