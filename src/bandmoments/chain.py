"""Gaussian chain measure: exact partition function, Green diagonal, sampling.

The chain measure on m sites is exp(-1/2 sum (x_j - x_{j-1})^2
- (gamma/W^2) sum x_j^2), i.e. a Gaussian with precision -Delta + 2 gamma/W^2
(Neumann Laplacian).  Its normalization is Z = (2 pi)^{m/2}
det^{-1/2}(-Delta + 2 gamma/W^2); the half power is made unambiguous for
complex gamma by accumulating the log-determinant additively over the
tridiagonal pivot recursion, which continues the branch from real positive
gamma.  Green diagonals and exact real-gamma samples share the plain numpy
elimination of `lattice.tridiagonal_pivots`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import as_generator
from .lattice import (TridiagonalOperator, neumann_laplacian, tridiagonal_logdet,
                      tridiagonal_pivots, tridiagonal_solve)

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

_TAIL_CHUNK = 10_000    # chains per batch of tail_probability; fixes verify-chain's draws


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


def sample_chain(m: int, W: float, gamma_real: float, rng, size: int) -> np.ndarray:
    """(size, m) exact Gaussian draws with precision -Delta + 2 gamma/W^2 (real gamma).

    With the precision Q = L D L^T (tridiagonal_pivots), x = L^{-T} D^{-1/2} z
    has covariance Q^{-1} for standard normal z, drawn as one (m, size) block.
    """
    if not gamma_real > 0:
        raise ValueError(f"gamma must be positive for sampling, got {gamma_real}")
    gen = as_generator(rng)
    d, mult = tridiagonal_pivots(chain_operator(m), 2.0 * gamma_real / W**2)
    x = gen.standard_normal((m, size))
    x /= np.sqrt(d)[:, None]
    for i in range(m - 2, -1, -1):
        x[i] -= mult[i] * x[i + 1]
    return x.T


def tail_probability(m: int, W: float, gamma_real: float, delta, draws: int,
                     rng) -> float | tuple[float, ...]:
    """Empirical frequency of max_i |x_i| > delta * W over `draws` chain draws.

    The chains are drawn from `rng` in batches of 10,000, one batch held at a
    time.  `delta` may also be a sequence: its thresholds share one set of
    chains, max |x| is taken once per chain, and a tuple with one frequency
    per threshold is returned, each equal to that of a scalar call on the
    same rng.
    """
    scalar = np.ndim(delta) == 0
    deltas = (delta,) if scalar else tuple(delta)
    if not deltas:
        raise ValueError("delta needs at least one threshold")
    for d in deltas:
        if not d > 0:
            raise ValueError(f"delta must be positive, got {d}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    gen = as_generator(rng)
    exceed = [0] * len(deltas)
    for start in range(0, draws, _TAIL_CHUNK):
        x = sample_chain(m, W, gamma_real, gen, size=min(_TAIL_CHUNK, draws - start))
        peak = np.max(np.abs(x, out=x), axis=1)
        del x                               # free the batch before the next is drawn
        for k, d in enumerate(deltas):
            exceed[k] += int(np.sum(peak > d * W))
    freqs = tuple(e / draws for e in exceed)
    return freqs[0] if scalar else freqs
