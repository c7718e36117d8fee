"""Exact second moments F2(l1, l2) = E[det(l1 - H) det(l2 - H)], independent of bandmoments.

Two oracles, written from the definitions with numpy only:

(a) ``goe_f2``: the GOE at any N through the Dumitriu-Edelman tridiagonal
    model (Dumitriu & Edelman, "Matrix models for beta ensembles",
    math-ph/0206043).  det(l - H) depends on the spectrum only, so H may be
    replaced by a tridiagonal T with diagonal a_k ~ N(0, 2/N) and squared
    off-diagonal b_k^2 ~ chi^2_k / N.  The characteristic polynomial obeys
    p_k = (l - a_k) p_{k-1} - b^2 p_{k-2}; each step draws fresh (a, b^2)
    independent of the past, so the second moment closes on the 4-state
    linear recurrence over (P, X, Y, Q) = E[p_k p'_k, p_k p'_{k-1},
    p_{k-1} p'_k, p_{k-1} p'_{k-1}].  The state is rescaled every step and
    the scale kept in log space, so N in the thousands does not overflow.

(b) ``gauss_hermite_f2``: any variance profile J at N <= 3, by a product
    Gauss-Hermite rule over the N(N+1)/2 independent entries
    (H_ij ~ N(0, J_ij) for i < j, H_ii ~ N(0, 2 J_ii)).  Each entry enters
    the product of two determinants with degree at most 4, and the 3-node
    rule integrates degree 5 exactly.

``band_profile`` gives J = (-W^2 Delta + 1)^{-1} for the Neumann chain of
N = 2n + 1 sites by a dense inverse, and ``goe_profile`` the flat J = 1/N.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "goe_log_f2",
    "goe_f2",
    "goe_ratio",
    "gauss_hermite_f2",
    "band_profile",
    "goe_profile",
    "semicircle_density",
    "bulk_energy",
]

_GH_MAX_N = 3


def semicircle_density(lam: float) -> float:
    """Wigner semicircle density sqrt(4 - lam^2) / (2 pi) on (-2, 2)."""
    if not abs(lam) < 2.0:
        raise ValueError(f"energy must lie in (-2, 2), got {lam}")
    return math.sqrt(4.0 - lam * lam) / (2.0 * math.pi)


def bulk_energy(lambda0: float, xi: float, N: int) -> float:
    """lambda0 + xi / (N rho(lambda0)), the bulk scaling of the scan."""
    return lambda0 + xi / (N * semicircle_density(lambda0))


def goe_log_f2(l1: float, l2: float, N: int) -> tuple[int, float]:
    """(sign, log|F2|) of E[det(l1 - H) det(l2 - H)] for the GOE of size N."""
    if N < 1:
        raise ValueError(f"matrix size must be positive, got {N}")
    var_a = 2.0 / N
    P, X, Y, Q = 1.0, 0.0, 0.0, 0.0
    log_scale = 0.0
    for k in range(1, N + 1):
        dof = N - k + 1          # b^2 coupling step k to k-1 ~ chi^2_dof / N
        eb2 = dof / N
        eb4 = (dof * dof + 2.0 * dof) / (N * N)
        P, X, Y, Q = ((l1 * l2 + var_a) * P - l1 * eb2 * X - l2 * eb2 * Y + eb4 * Q,
                      l1 * P - eb2 * Y,
                      l2 * P - eb2 * X,
                      P)
        scale = max(abs(P), abs(X), abs(Y), abs(Q))
        if scale == 0.0:
            return 0, -math.inf
        P, X, Y, Q = P / scale, X / scale, Y / scale, Q / scale
        log_scale += math.log(scale)
    if P == 0.0:
        return 0, -math.inf
    return (1 if P > 0 else -1), log_scale + math.log(abs(P))


def goe_f2(l1: float, l2: float, N: int) -> float:
    """F2(l1, l2) for the GOE of size N (overflows to inf for large N)."""
    sign, log_abs = goe_log_f2(l1, l2, N)
    return sign * math.exp(log_abs) if sign else 0.0


def goe_ratio(l1: float, l2: float, N: int) -> float:
    """Exact normalized ratio F2(l1, l2) / sqrt(F2(l1, l1) F2(l2, l2)) for the GOE."""
    s12, g12 = goe_log_f2(l1, l2, N)
    s11, g11 = goe_log_f2(l1, l1, N)
    s22, g22 = goe_log_f2(l2, l2, N)
    if s11 != 1 or s22 != 1:
        raise ArithmeticError("diagonal second moments must be positive")
    return s12 * math.exp(g12 - 0.5 * (g11 + g22))


def goe_profile(N: int) -> np.ndarray:
    """Flat GOE variance profile J_ij = 1/N."""
    return np.full((N, N), 1.0 / N)


def band_profile(n: int, W: float) -> np.ndarray:
    """J = (-W^2 Delta + 1)^{-1} with the Neumann Laplacian on 2n + 1 sites."""
    N = 2 * n + 1
    lap = np.zeros((N, N))
    idx = np.arange(N - 1)
    lap[idx, idx + 1] = 1.0
    lap[idx + 1, idx] = 1.0
    lap -= np.diag(lap.sum(axis=1))
    return np.linalg.inv(np.eye(N) - W * W * lap)


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of (k, k) matrices, k <= 3, by cofactors."""
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, 0]
    if k == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def gauss_hermite_f2(l1: float, l2: float, J: np.ndarray) -> float:
    """E[det(l1 - H) det(l2 - H)] for H with variance profile J, N <= 3."""
    J = np.asarray(J, dtype=float)
    N = J.shape[0]
    if J.shape != (N, N) or not 1 <= N <= _GH_MAX_N:
        raise ValueError(f"profile must be square with 1 <= N <= {_GH_MAX_N}, got {J.shape}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    weights = weights / math.sqrt(2.0 * math.pi)
    entries = [(i, j) for i in range(N) for j in range(i, N)]
    sd = np.array([math.sqrt(2.0 * J[i, i] if i == j else J[i, j]) for i, j in entries])
    grid = np.array(list(itertools.product(range(3), repeat=len(entries))))
    values = nodes[grid] * sd
    w = np.prod(weights[grid], axis=1)
    h = np.zeros((len(grid), N, N))
    for col, (i, j) in enumerate(entries):
        h[:, i, j] = values[:, col]
        h[:, j, i] = values[:, col]
    eye = np.eye(N)
    d1 = _det(l1 * eye - h)
    d2 = _det(l2 * eye - h)
    return float(math.fsum(w * d1 * d2))
