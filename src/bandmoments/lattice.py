"""1D Neumann lattice operators and the band variance profile.

The variance profile of the band ensemble is J = (-W^2 Delta + 1)^{-1},
where Delta is the discrete Laplacian on the chain with Neumann boundary
conditions.  Everything here is dense-output but tridiagonal-solve backed,
so it stays cheap up to N in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "LatticeParams",
    "TridiagonalOperator",
    "SingularSystemError",
    "neumann_laplacian",
    "variance_profile",
    "tridiagonal_solve",
    "tridiagonal_logdet",
]

# Defensive pivot floor; the operators used here are positive definite.
PIVOT_FLOOR = 1e-300


class SingularSystemError(ValueError):
    """Raised when a tridiagonal elimination pivot collapses to zero."""


@dataclass(frozen=True)
class LatticeParams:
    """Chain of N = 2n+1 sites indexed -n..n with bandwidth W."""

    n: int
    W: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"half-width must be nonnegative, got {self.n}")
        if not 0 < self.W < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.W}")

    @property
    def N(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator stored as diagonal + one off-diagonal."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diagonal", np.asarray(self.diagonal))
        object.__setattr__(self, "offdiagonal", np.asarray(self.offdiagonal))
        if self.diagonal.ndim != 1 or self.offdiagonal.ndim != 1:
            raise ValueError("diagonal and offdiagonal must be 1-d sequences")
        if len(self.offdiagonal) != max(len(self.diagonal) - 1, 0):
            raise ValueError("offdiagonal must have length m-1")

    @property
    def m(self) -> int:
        return len(self.diagonal)

    def dense(self, shift: complex = 0.0) -> np.ndarray:
        """Dense matrix of self + shift*I (test oracle helper)."""
        dtype = np.result_type(self.diagonal, self.offdiagonal, type(shift))
        a = np.zeros((self.m, self.m), dtype=dtype)
        np.fill_diagonal(a, self.diagonal + shift)
        idx = np.arange(self.m - 1)
        a[idx, idx + 1] = self.offdiagonal
        a[idx + 1, idx] = self.offdiagonal
        return a


def neumann_laplacian(m: int) -> TridiagonalOperator:
    """Discrete Laplacian on m sites with Neumann (reflecting) boundaries.

    Interior rows are (1, -2, 1), boundary rows (-1, 1); all row sums vanish,
    so constants are annihilated.
    """
    if m < 1:
        raise ValueError(f"operator order must be at least 1, got {m}")
    diag = np.full(m, -2.0)
    diag[0] = -1.0
    diag[-1] = -1.0
    if m == 1:
        diag[0] = 0.0
    return TridiagonalOperator(diag, np.ones(m - 1))


def variance_profile(params: LatticeParams) -> np.ndarray:
    """Entry variances J = (-W^2 Delta + 1)^{-1}, (N, N), symmetric, rows summing to 1."""
    N = params.N
    lap = neumann_laplacian(N)
    op = TridiagonalOperator(-params.W**2 * lap.diagonal, -params.W**2 * lap.offdiagonal)
    j = tridiagonal_solve(op, 1.0, np.eye(N))
    return 0.5 * (j + j.T)


def tridiagonal_solve(op: TridiagonalOperator, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (op + shift*I) x = rhs with LAPACK's tridiagonal solver.

    Parameters
    ----------
    op : TridiagonalOperator
    shift : scalar added to the diagonal (may be complex)
    rhs : vector of length m, or (m, k) matrix of stacked right-hand sides

    Raises SingularSystemError when the system is singular.
    """
    rhs = np.asarray(rhs)
    m = op.m
    if rhs.shape[0] != m:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {m}")
    dtype = np.result_type(op.diagonal, op.offdiagonal, type(shift), rhs, float)
    ab = np.zeros((3, m), dtype=dtype)
    ab[0, 1:] = op.offdiagonal
    ab[1] = op.diagonal + shift
    ab[2, :-1] = op.offdiagonal
    try:
        # errstate turns the division scipy uses for m = 1 into an error too
        with np.errstate(divide="raise", invalid="raise"):
            return solve_banded((1, 1), ab, rhs.astype(dtype), overwrite_ab=True,
                                overwrite_b=True)
    except (np.linalg.LinAlgError, FloatingPointError):
        raise SingularSystemError(f"singular {m}x{m} tridiagonal system") from None


def tridiagonal_logdet(op: TridiagonalOperator, shift: complex = 0.0,
                       min_pivot: float = PIVOT_FLOOR) -> complex:
    """log det(op + shift*I) as the sum of principal logs of LU pivots.

    Summing per-pivot logs keeps the imaginary part continuous in the shift
    as long as no pivot crosses the negative real axis; for operators whose
    Hermitian part is positive definite every pivot stays in the open right
    half-plane, so the branch is the one continued from real positive shifts.
    """
    b = op.diagonal + shift
    e = op.offdiagonal
    logdet = 0.0 + 0.0j
    pivot = b[0]
    scale = max(np.max(np.abs(b)), 1.0)
    for i in range(op.m):
        if i > 0:
            pivot = b[i] - e[i - 1] ** 2 / pivot
        if abs(pivot) < min_pivot * scale:
            raise SingularSystemError(f"pivot {pivot} below floor at row {i}")
        logdet += np.log(complex(pivot))
    return logdet
