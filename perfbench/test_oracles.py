"""Tests of the benchmark's exact oracles.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"

ARGS = [(0.0, 0.0), (0.3, -0.7), (1.0, 1.0), (0.5, 0.2), (-1.7, 1.9)]


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("l1,l2", ARGS)
def test_recurrence_equals_gauss_hermite_for_goe(N, l1, l2):
    a = oracles.goe_f2(l1, l2, N)
    b = oracles.gauss_hermite_f2(l1, l2, oracles.goe_profile(N))
    assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("W", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("l1,l2", ARGS)
def test_gauss_hermite_single_site_closed_form(W, l1, l2):
    # N=1: H ~ N(0, 2), so E[(l1 - H)(l2 - H)] = l1 l2 + 2
    assert oracles.gauss_hermite_f2(l1, l2, oracles.band_profile(0, W)) == pytest.approx(
        l1 * l2 + 2.0, rel=1e-12, abs=1e-12)


def test_known_goe_values():
    assert oracles.goe_f2(0.0, 0.0, 2) == pytest.approx(1.75, rel=1e-15)
    assert oracles.goe_f2(0.0, 0.0, 3) == pytest.approx(10.0 / 9.0, rel=1e-15)


def test_gauss_hermite_band_n2_closed_form():
    # N=2: det(l - H) = (l - x)(l - y) - z^2 with independent x, y, z
    J = np.array([[0.7, 0.3], [0.3, 0.7]])
    vx, vz = 2 * J[0, 0], J[0, 1]
    l1, l2 = 0.4, -1.1
    # E[(l1-x)(l2-x)] = l1 l2 + vx, E[(l-x)(l-y)] = l^2, E[z^4] = 3 vz^2
    exact = (l1 * l2 + vx) ** 2 - vz * (l1**2 + l2**2) + 3 * vz**2
    assert oracles.gauss_hermite_f2(l1, l2, J) == pytest.approx(exact, rel=1e-12)


def test_band_profile_rows_sum_to_one():
    J = oracles.band_profile(3, 2.0)
    np.testing.assert_allclose(J.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-15)


def test_recurrence_stays_finite_at_large_n():
    sign, log_abs = oracles.goe_log_f2(0.1, 0.1, 4096)
    assert sign == 1 and math.isfinite(log_abs)
    assert oracles.goe_ratio(0.1, 0.1, 4096) == pytest.approx(1.0, rel=1e-12)


def test_gauss_hermite_rejects_large_n():
    with pytest.raises(ValueError):
        oracles.gauss_hermite_f2(0.0, 0.0, oracles.goe_profile(4))


@pytest.mark.parametrize("lambda0", [0.0, 1.0])
def test_transfer_route_equals_gauss_hermite_at_n3_w1(lambda0):
    sys.path.insert(0, str(SRC))
    from bandmoments import LatticeParams, build_kernel, transfer_evaluate

    result = transfer_evaluate(build_kernel(LatticeParams(1, 1.0), lambda0, 0.0))
    exact = oracles.gauss_hermite_f2(lambda0, lambda0, oracles.band_profile(1, 1.0))
    assert abs(result.f2 - exact) <= 1e-12 * abs(exact)
