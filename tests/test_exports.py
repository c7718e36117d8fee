"""Public names: every module's __all__ resolves, the package re-exports only
those, and the benchmark's calls into the package match it: every name it
imports exists, every call binds to the callable's signature, and every flag
of a CLI argv it builds is a flag of that subcommand."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import bandmoments
from bandmoments import cli

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


def _package_callee(func: ast.expr, names: dict):
    """The package object a call's `name(...)` or `module.name(...)` refers to, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = names.get(func.value.id)
        if isinstance(module, types.ModuleType):
            return getattr(module, func.attr, None)
    return None


@pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda p: p.name)
def test_benchmark_calls_bind_to_signatures(path):
    # a keyword the package dropped, or an argument it made required, would
    # otherwise first show as a failed benchmark run
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {name: getattr(importlib.import_module(module), name)
             for module, name in _package_imports(tree)}
    unbound = []
    for node in ast.walk(tree):
        obj = _package_callee(node.func, names) if isinstance(node, ast.Call) else None
        if not callable(obj):
            continue
        sig = inspect.signature(obj)
        keywords = [k.arg for k in node.keywords]
        try:
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                sig.bind_partial(**{k: None for k in keywords if k is not None})
            else:
                sig.bind(*node.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    assert unbound == []


def _argv_flags(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, command, flag) of every "--flag" in a list literal that starts with
    a subcommand name; a `*name` element is read from name's list assignment."""
    lists = {node.targets[0].id: node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.List)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in cli._COMMANDS):
            continue
        elts = []
        for elt in node.elts[1:]:
            elts += lists[elt.value.id].elts if isinstance(elt, ast.Starred) else [elt]
        found += [(node.lineno, node.elts[0].value, elt.value) for elt in elts
                  if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                  and elt.value.startswith("--")]
    return found


@pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda p: p.name)
def test_benchmark_cli_flags_exist(path):
    subs = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    flags = _argv_flags(ast.parse(path.read_text(), filename=str(path)))
    assert [f for f in flags if f[2] not in subs[f[1]]._option_string_actions] == []
