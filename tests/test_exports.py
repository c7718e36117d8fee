"""Public names: every module's __all__ resolves, the package re-exports only
those, and every name the benchmark imports from the package exists."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import bandmoments

MODULES = sorted(m.name for m in pkgutil.iter_modules(bandmoments.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bandmoments.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_public_names():
    exported = {n for name in MODULES
                for n in importlib.import_module(f"bandmoments.{name}").__all__}
    names = [n for n, v in vars(bandmoments).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert names
    assert [n for n in names if n not in exported] == []


BENCHMARK_FILES = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def _package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of every `from bandmoments[.module] import name`."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "bandmoments"
            for alias in node.names]


@pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    # no test imports probes.py or workloads.py, so a name removed from the
    # package would otherwise first show as a failed benchmark run
    imports = _package_imports(ast.parse(path.read_text(), filename=str(path)))
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
