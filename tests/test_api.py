"""The public API resolves: every name polyform/__init__.py imports, and
every polyform name the benchmark harness (perfbench/*.py) imports.

The harness is a separate program that only reads the library, so a
deletion that breaks one of its imports would surface there as a failed
run rather than here; this reads its imports with ast and resolves them.
"""
import ast
import importlib
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
