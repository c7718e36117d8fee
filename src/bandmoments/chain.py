"""Gaussian chain measure: exact partition function, Green diagonal, sampling.

The chain measure on m sites is exp(-1/2 sum (x_j - x_{j-1})^2
- (gamma/W^2) sum x_j^2), i.e. a Gaussian with precision -Delta + 2 gamma/W^2
(Neumann Laplacian).  Its normalization is Z = (2 pi)^{m/2}
det^{-1/2}(-Delta + 2 gamma/W^2); the half power is made unambiguous for
complex gamma by accumulating the log-determinant additively over the
tridiagonal pivot recursion, which continues the branch from real positive
gamma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, solve_banded

from .ensemble import as_generator
from .lattice import (TridiagonalOperator, neumann_laplacian, tridiagonal_logdet,
                      tridiagonal_solve)

__all__ = [
    "ChainParams",
    "chain_operator",
    "chain_logdet",
    "chain_log_partition",
    "chain_partition",
    "chain_log_asymptotic",
    "chain_asymptotic",
    "green_diag",
    "sample_chain",
    "tail_probability",
]

# A pivot this small relative to the diagonal scale means the additive branch
# tracking can no longer be trusted.
_BRANCH_PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class ChainParams:
    """m sites, bandwidth W, complex mass gamma with positive real part."""

    m: int
    W: float
    gamma: complex

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"chain length must be at least 1, got {self.m}")
        if not 0 < self.W < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.W}")
        if not complex(self.gamma).real > 0:
            raise ValueError(f"gamma must have positive real part, got {self.gamma}")

    @property
    def shift(self) -> complex:
        return 2.0 * complex(self.gamma) / self.W**2


def chain_operator(m: int) -> TridiagonalOperator:
    """Negated Neumann Laplacian -Delta on m sites (the chain precision core)."""
    lap = neumann_laplacian(m)
    return TridiagonalOperator(-lap.diagonal, -lap.offdiagonal)


def chain_logdet(p: ChainParams) -> complex:
    """log det(-Delta + 2 gamma / W^2) via the pivot recursion.

    Raises SingularSystemError if any pivot falls within 1e-14 (relative) of
    zero, which would mean the branch tracking crossed a zero of a minor.
    """
    return tridiagonal_logdet(chain_operator(p.m), p.shift,
                              min_pivot=_BRANCH_PIVOT_RTOL)


def chain_log_partition(p: ChainParams) -> complex:
    """log Z = (m/2) log(2 pi) - logdet / 2."""
    return 0.5 * p.m * math.log(2.0 * math.pi) - 0.5 * chain_logdet(p)


def chain_partition(p: ChainParams) -> complex:
    return cmath.exp(chain_log_partition(p))


def chain_log_asymptotic(p: ChainParams) -> complex:
    """log of (2 pi)^{m/2} (sqrt(2 gamma)/W sinh(m sqrt(2 gamma)/W))^{-1/2}."""
    root = cmath.sqrt(2.0 * complex(p.gamma))
    z = p.m * root / p.W
    # log sinh(z) = z + log(1 - e^{-2z}) - log 2, continuous for Re z > 0
    log_sinh = z + cmath.log(1.0 - cmath.exp(-2.0 * z)) - math.log(2.0)
    return (0.5 * p.m * math.log(2.0 * math.pi)
            - 0.5 * (cmath.log(root / p.W) + log_sinh))


def chain_asymptotic(p: ChainParams) -> complex:
    return cmath.exp(chain_log_asymptotic(p))


def green_diag(p: ChainParams, i: int) -> complex:
    """Diagonal entry G_ii of (-Delta + 2 gamma/W^2)^{-1}; i is 1-based."""
    if not 1 <= i <= p.m:
        raise ValueError(f"site index must lie in 1..{p.m}, got {i}")
    rhs = np.zeros(p.m)
    rhs[i - 1] = 1.0
    x = tridiagonal_solve(chain_operator(p.m), p.shift, rhs)
    return complex(x[i - 1])


def sample_chain(m: int, W: float, gamma_real: float, rng, size: int | None = None) -> np.ndarray:
    """Exact Gaussian draws with precision -Delta + 2 gamma/W^2 (real gamma).

    Returns shape (m,) for size None, else (size, m).
    """
    if not gamma_real > 0:
        raise ValueError(f"gamma must be positive for sampling, got {gamma_real}")
    gen = as_generator(rng)
    op = chain_operator(m)
    ab = np.zeros((2, m))
    ab[1] = op.diagonal + 2.0 * gamma_real / W**2
    ab[0, 1:] = op.offdiagonal
    cb = cholesky_banded(ab, lower=False)
    z = gen.standard_normal((m, 1 if size is None else size))
    x = solve_banded((0, 1), cb, z)
    return x[:, 0] if size is None else x.T


def tail_probability(m: int, W: float, gamma_real: float, delta: float,
                     draws: int, rng, chunk: int = 20_000) -> float:
    """Empirical frequency of max_i |x_i| > delta * W over chain draws."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    gen = as_generator(rng)
    exceed = 0
    for start in range(0, draws, chunk):
        x = sample_chain(m, W, gamma_real, gen, size=min(chunk, draws - start))
        exceed += int(np.sum(np.max(np.abs(x), axis=1) > delta * W))
    return exceed / draws
