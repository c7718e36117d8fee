"""Every name a module imports is used in it, and every private top-level
name of the package is used somewhere in the package.

The project configures no linter, so this test is its import and dead-code lint.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/bandmoments/*.py"))
FILES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    if path.name == "__init__.py":
        return            # a package's imports are its re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level functions, classes and assignments named _x (not __x__)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        names |= {name: node.lineno for name in targets
                  if name.startswith("_") and not name.endswith("__")}
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Names read in the module, as `name` or as `module.name`."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_name_is_used_in_the_package():
    # a private name only tests or the benchmark read is dead code of the package
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    loaded = set().union(*map(_loaded, trees.values()))
    unused = [f"{path.name}:{line} {name}" for path, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in loaded]
    assert unused == []
