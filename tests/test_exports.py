"""Public names: every module's __all__ resolves, and the package re-exports only those."""

import importlib
import pkgutil
import types

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
