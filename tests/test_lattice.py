"""Lattice operators, variance profile, and the shared tridiagonal solver.

scipy's banded LAPACK solver (gtsv) is the reference for the solver.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bandmoments.lattice import (LatticeParams, SingularSystemError,
                                 TridiagonalOperator, neumann_laplacian,
                                 tridiagonal_logdet, tridiagonal_pivots, tridiagonal_solve,
                                 variance_profile)

RNG = np.random.default_rng(0)


class TestNeumannLaplacian:
    def test_single_point_is_zero(self):
        lap = neumann_laplacian(1)
        assert lap.diagonal.tolist() == [0.0]
        assert lap.offdiagonal.size == 0

    def test_three_point_stencil(self):
        lap = neumann_laplacian(3)
        np.testing.assert_array_equal(lap.diagonal, [-1.0, -2.0, -1.0])
        np.testing.assert_array_equal(lap.offdiagonal, [1.0, 1.0])

    def test_row_sums_vanish(self):
        for m in (2, 3, 7, 50):
            dense = neumann_laplacian(m).dense()
            np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-15)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            neumann_laplacian(0)


def _dense_profile(n, w):
    lap = neumann_laplacian(2 * n + 1).dense()
    return np.linalg.inv(-w * w * lap + np.eye(2 * n + 1))


class TestVarianceProfile:
    def test_n3_w1_against_dense_inverse(self):
        prof = variance_profile(LatticeParams(1, 1.0))
        expected = np.array([[0.625, 0.25, 0.125],
                             [0.25, 0.5, 0.25],
                             [0.125, 0.25, 0.625]])
        np.testing.assert_allclose(prof, expected, atol=1e-14)
        np.testing.assert_allclose(prof, _dense_profile(1, 1.0), atol=1e-14)

    def test_single_site(self):
        np.testing.assert_array_equal(
            variance_profile(LatticeParams(0, 3.0)), [[1.0]])

    @pytest.mark.parametrize("n,w", [(1, 1.0), (5, 2.0), (13, 4.0), (31, 16.0)])
    def test_rows_sum_to_one(self, n, w):
        prof = variance_profile(LatticeParams(n, w))
        np.testing.assert_allclose(prof.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 7, 31])
    def test_matches_dense_inverse(self, n):
        w = float(RNG.uniform(0.5, 8.0))
        prof = variance_profile(LatticeParams(n, w))
        assert np.max(np.abs(prof - _dense_profile(n, w))) < 1e-10

    @pytest.mark.parametrize("w", [1.0, 4.0, 16.0])
    def test_rows_decay_away_from_diagonal(self, w):
        j = variance_profile(LatticeParams(127, w))  # N = 255
        assert np.all(j > 0.0)
        for i in (0, 64, 127, 254):
            row = j[i]
            right = row[i:]
            left = row[: i + 1][::-1]
            assert np.all(np.diff(right) <= 1e-15)
            assert np.all(np.diff(left) <= 1e-15)

    def test_symmetry_exact(self):
        prof = variance_profile(LatticeParams(8, 2.0))
        np.testing.assert_array_equal(prof, prof.T)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LatticeParams(-1, 1.0)
        with pytest.raises(ValueError):
            LatticeParams(1, 0.0)

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_non_finite_bandwidth_rejected(self, w):
        with pytest.raises(ValueError, match=f"bandwidth must be positive and finite, got {w}"):
            LatticeParams(1, w)


class TestTridiagonalSolve:
    def test_identity_returns_rhs(self):
        op = TridiagonalOperator(np.ones(4), np.zeros(3))
        rhs = RNG.standard_normal(4)
        np.testing.assert_allclose(tridiagonal_solve(op, 0.0, rhs), rhs)

    def test_two_by_two_closed_form(self):
        # -Delta + I on two sites is [[2,-1],[-1,2]]
        lap = neumann_laplacian(2)
        op = TridiagonalOperator(-lap.diagonal, -lap.offdiagonal)
        x = tridiagonal_solve(op, 1.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0])

    def test_zero_rhs(self):
        op = TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -1.0])
        np.testing.assert_array_equal(tridiagonal_solve(op, 0.0, np.zeros(3)), 0.0)

    @pytest.mark.parametrize("m", [1, 2, 17, 64])
    def test_residual_small(self, m):
        diag = RNG.uniform(3.0, 5.0, m)
        off = RNG.uniform(-1.0, 1.0, max(m - 1, 0))
        op = TridiagonalOperator(diag, off)
        shift = complex(0.4, 1.3)
        rhs = RNG.standard_normal(m) + 1j * RNG.standard_normal(m)
        x = tridiagonal_solve(op, shift, rhs)
        residual = op.dense(shift) @ x - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_multiple_rhs_columns(self):
        op = TridiagonalOperator([2.0, 2.0], [-1.0])
        x = tridiagonal_solve(op, 0.0, np.eye(2))
        np.testing.assert_allclose(op.dense() @ x, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "offdiagonal", "shift", "rhs"])
    def test_non_finite_input_rejected(self, where, bad):
        system = {"diagonal": np.full(4, 3.0), "offdiagonal": np.full(3, -1.0),
                  "shift": 0.5, "rhs": np.ones((4, 2))}
        if where == "shift":
            system["shift"] = bad
        else:
            system[where][1] = bad
        op = TridiagonalOperator(system["diagonal"], system["offdiagonal"])
        with pytest.raises(ValueError) as err:
            tridiagonal_solve(op, system["shift"], system["rhs"])
        assert not isinstance(err.value, SingularSystemError)

    def test_singular_system_signaled(self):
        for m in (1, 3):
            op = TridiagonalOperator(np.zeros(m), np.zeros(m - 1))
            with pytest.raises(SingularSystemError):
                tridiagonal_solve(op, 0.0, np.ones(m))


def _gtsv_solve(op: TridiagonalOperator, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve_banded on the same system: LAPACK gtsv."""
    dtype = np.result_type(op.diagonal, op.offdiagonal, type(shift), rhs, float)
    ab = np.zeros((3, op.m), dtype=dtype)
    ab[0, 1:] = op.offdiagonal
    ab[1] = op.diagonal + shift
    ab[2, :-1] = op.offdiagonal
    return solve_banded((1, 1), ab, rhs.astype(dtype))


class TestScipyOracle:
    @pytest.mark.parametrize("n, w", [(1, 2.0), (16, 4.0), (127, 38.1), (127, 64.0),
                                      (511, 64.0)])
    def test_variance_profile_bit_identical_to_gtsv(self, n, w):
        lap = neumann_laplacian(2 * n + 1)
        op = TridiagonalOperator(-w**2 * lap.diagonal, -w**2 * lap.offdiagonal)
        j = _gtsv_solve(op, 1.0, np.eye(2 * n + 1))
        np.testing.assert_array_equal(variance_profile(LatticeParams(n, w)), 0.5 * (j + j.T))

    @pytest.mark.parametrize("m", [1, 2, 5, 64, 300])
    def test_complex_diagonally_dominant_matches_gtsv(self, m):
        off = RNG.uniform(-1.0, 1.0, m - 1) + 1j * RNG.uniform(-1.0, 1.0, m - 1)
        diag = RNG.uniform(3.5, 5.0, m) * np.exp(1j * RNG.uniform(-1.4, 1.4, m))
        op = TridiagonalOperator(diag, off)
        shift = complex(0.3, -0.8)
        rhs = RNG.standard_normal((m, 3)) + 1j * RNG.standard_normal((m, 3))
        ref = _gtsv_solve(op, shift, rhs)
        for b, want in ((rhs, ref), (rhs[:, 0], ref[:, 0])):
            got = tridiagonal_solve(op, shift, b)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


class TestTridiagonalLogdet:
    @pytest.mark.parametrize("m", [1, 2, 9, 40])
    def test_matches_eigenvalue_oracle(self, m):
        lap = neumann_laplacian(m)
        op = TridiagonalOperator(-lap.diagonal, -lap.offdiagonal)
        shift = complex(0.7, -2.1)
        eigs = np.linalg.eigvalsh(op.dense())
        oracle = np.sum(np.log(eigs.astype(complex) + shift))
        assert abs(tridiagonal_logdet(op, shift) - oracle) < 1e-12 * abs(oracle)

    def test_singular_signaled(self):
        op = TridiagonalOperator(np.zeros(2), np.zeros(1))
        with pytest.raises(SingularSystemError):
            tridiagonal_logdet(op)

    def test_sums_principal_logs_of_the_solver_pivots(self):
        off = RNG.uniform(-1.0, 1.0, 29) + 1j * RNG.uniform(-1.0, 1.0, 29)
        op = TridiagonalOperator(RNG.uniform(-2.0, 2.0, 30), off)
        shift = complex(0.4, 1.3)
        pivots, _ = tridiagonal_pivots(op, shift)
        assert tridiagonal_logdet(op, shift) == sum(np.log(p) for p in pivots.astype(complex))

    def test_pivot_below_floor_signaled(self):
        # a pivot of 1e-16 is nonzero, so only the floor can reject it
        op = TridiagonalOperator(np.array([1e-16, 1.0]), np.array([0.5]))
        assert tridiagonal_logdet(op, min_pivot=1e-17).real < 0.0
        with pytest.raises(SingularSystemError, match="below floor at row 0"):
            tridiagonal_logdet(op, min_pivot=1e-14)
