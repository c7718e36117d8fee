"""1D Neumann lattice operators and the band variance profile.

The variance profile of the band ensemble is J = (-W^2 Delta + 1)^{-1},
where Delta is the discrete Laplacian on the chain with Neumann boundary
conditions.  The dense profile comes from one O(N) elimination per column
(`tridiagonal_solve`, plain numpy without row exchanges), so it stays cheap
up to N in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeParams",
    "TridiagonalOperator",
    "SingularSystemError",
    "neumann_laplacian",
    "variance_profile",
    "tridiagonal_pivots",
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


def tridiagonal_pivots(op: TridiagonalOperator,
                       shift: complex) -> tuple[np.ndarray, np.ndarray]:
    """Pivots and multipliers of Gaussian elimination on op + shift*I, no row exchanges.

    Returns (d, mult): op + shift*I = L U with L unit lower bidiagonal (mult
    below its diagonal) and U upper bidiagonal (d on its diagonal, op.offdiagonal
    above it); for a symmetric operator also = L diag(d) L^T.  This is LAPACK
    gtsv's elimination whenever gtsv exchanges no rows, as on the diagonally
    dominant systems used here.

    Raises ValueError for a non-finite entry and SingularSystemError when a
    pivot is zero or not finite.
    """
    diag = op.diagonal + shift
    if not (np.isfinite(diag).all() and np.isfinite(op.offdiagonal).all()):
        raise ValueError(f"non-finite entry in {op.m}x{op.m} tridiagonal system")
    d = diag.tolist()
    e = op.offdiagonal.tolist()
    mult = []
    try:
        for i, ei in enumerate(e):
            fact = ei / d[i]
            d[i + 1] -= fact * ei
            mult.append(fact)
    except ZeroDivisionError:
        raise SingularSystemError(f"singular {op.m}x{op.m} tridiagonal system") from None
    d = np.array(d)
    if not (np.isfinite(d).all() and d[-1] != 0):
        raise SingularSystemError(f"singular {op.m}x{op.m} tridiagonal system")
    return d, np.array(mult)


def tridiagonal_solve(op: TridiagonalOperator, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (op + shift*I) x = rhs by elimination without row exchanges.

    Parameters
    ----------
    op : TridiagonalOperator
    shift : scalar added to the diagonal (may be complex)
    rhs : vector of length m, or (m, k) matrix of stacked right-hand sides

    Without row exchanges the elimination is stable for diagonally dominant
    systems and for systems whose Hermitian part is positive definite, which
    covers every caller (`variance_profile`, `chain.green_diag`).  Raises
    ValueError for a non-finite entry of the system or rhs and
    SingularSystemError when a pivot is zero or not finite.
    """
    rhs = np.asarray(rhs)
    m = op.m
    if rhs.shape[0] != m:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {m}")
    if not np.isfinite(rhs).all():
        raise ValueError(f"non-finite entry in the right-hand side of a {m}x{m} system")
    d, mult = tridiagonal_pivots(op, shift)
    e = op.offdiagonal
    x = rhs.astype(np.result_type(d, e, rhs, float))
    for i in range(1, m):
        x[i] -= mult[i - 1] * x[i - 1]
    x[m - 1] /= d[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / d[i]
    return x


def tridiagonal_logdet(op: TridiagonalOperator, shift: complex = 0.0,
                       min_pivot: float = PIVOT_FLOOR) -> complex:
    """log det(op + shift*I) as the sum of principal logs of the pivots of tridiagonal_pivots.

    Summing per-pivot logs keeps the imaginary part continuous in the shift
    as long as no pivot crosses the negative real axis; for operators whose
    Hermitian part is positive definite every pivot stays in the open right
    half-plane, so the branch is the one continued from real positive shifts.
    Raises SingularSystemError when a pivot is below min_pivot times the
    largest diagonal magnitude (or 1, if larger).
    """
    d, _ = tridiagonal_pivots(op, shift)
    scale = max(np.max(np.abs(op.diagonal + shift)), 1.0)
    small = np.flatnonzero(np.abs(d) < min_pivot * scale)
    if small.size:
        raise SingularSystemError(f"pivot {d[small[0]]} below floor at row {small[0]}")
    return sum(np.log(d.astype(complex)).tolist(), 0j)    # in row order
