"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def oracles():
    """The benchmark's exact oracles (perfbench/oracles.py), independent of the package.

    Skips the test outside a source checkout, where perfbench/ is absent.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    if not path.is_file():
        pytest.skip("perfbench/oracles.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
