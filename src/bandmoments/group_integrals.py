"""Rank-2 HCIZ integrals over U(2) and Sp(2), their samplers, and checks.

With X = c1 d1 + c2 d2, Y = c1 d2 + c2 d1, E1 = t X, E2 = t Y and
tt = t(X - Y) = t(c1 - c2)(d1 - d2) = E1 - E2, the two closed forms are

    U(2):   (e^E1 - e^E2) / tt
    Sp(2):  (6/tt^2) (e^E1 (1 - 2/tt) + e^E2 (1 + 2/tt))

Both degenerate gracefully: dividing out e^E1 leaves entire functions of tt,
whose Taylor series supply the small-tt paths.  The coset parametrization
takes s = |U_12|^2 uniform on [0, 1] under Haar, and the Sp(2) coset measure
adds the exact probability weight 3(1 - 2 s_V)^2 on the V factor.  As each
|U_lk|^2 is s or 1 - s and each |P_lk|^2 is (s_U or 1 - s_U)(s_V or 1 - s_V),

    Tr C U* D U = X - s (X - Y),   Tr G P* H P / 2 = X - q (X - Y),

with q = s_U + s_V - 2 s_U s_V, and the Monte Carlo oracles average
exp(E1 - tt s) and exp(E1 - tt q) over the samplers' coset parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np
from scipy.special import erfc

from .ensemble import as_generator

__all__ = [
    "HcizParams",
    "hciz_u2",
    "hciz_sp2",
    "sample_coset_u2",
    "sample_sp2",
    "u2_quadrature",
    "mc_hciz_u2",
    "mc_hciz_sp2",
    "ReductionReport",
    "reduction_check",
]

# Below this |tt| the generic forms lose digits to the 1/tt cancellations:
# their rounding floor is ~12 eps / |tt|^3, so the crossover sits where that
# floor is ~2e-11 and the series still converges in a few terms.
TAYLOR_CUTOFF = 5e-2


@dataclass(frozen=True)
class HcizParams:
    """Scale t and the two eigenvalue pairs (c1, c2), (d1, d2)."""

    t: complex
    c1: complex
    c2: complex
    d1: complex
    d2: complex

    def exponents(self) -> tuple[complex, complex, complex]:
        e1 = self.t * (self.c1 * self.d1 + self.c2 * self.d2)
        e2 = self.t * (self.c1 * self.d2 + self.c2 * self.d1)
        return e1, e2, e1 - e2


def hciz_u2(p: HcizParams) -> complex:
    """Closed form of int_{U(2)} exp(t Tr C U* D U) dmu(U)."""
    e1, e2, tt = p.exponents()
    if abs(tt) < TAYLOR_CUTOFF:
        return np.exp(e1) * _u2_series(tt)
    return (np.exp(e1) - np.exp(e2)) / tt


def _u2_series(tt: complex) -> complex:
    # (1 - e^{-u})/u = sum_j (-u)^j / (j+1)!
    acc = 0.0 + 0.0j
    for j in range(10, -1, -1):
        acc = 1.0 / math.factorial(j + 1) + acc * (-tt)
    return acc


def hciz_sp2(p: HcizParams) -> complex:
    """Closed form of int exp(t Tr G P* H P / 2) dnu(P) over the Sp(2) coset.

    G and H are the quaternion-diagonal 4x4 matrices diag(d1, d2, d1, d2)
    and diag(c1, c2, c1, c2).
    """
    e1, e2, tt = p.exponents()
    if abs(tt) < TAYLOR_CUTOFF:
        return np.exp(e1) * _sp2_series(tt)
    return _sp2_generic(e1, e2, tt)


def _sp2_generic(e1: complex, e2: complex, tt: complex) -> complex:
    return (6.0 / tt**2) * (np.exp(e1) * (1.0 - 2.0 / tt) + np.exp(e2) * (1.0 + 2.0 / tt))


def _sp2_series(tt: complex) -> complex:
    # 6 sum_j (-1)^j (j+1)/(j+3)! tt^j
    acc = 0.0 + 0.0j
    for j in range(10, -1, -1):
        acc = 6.0 * (j + 1) / math.factorial(j + 3) + acc * (-tt)
    return acc


def _coset_entries(s: np.ndarray,
                   alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos phi = U_11 = U_22, U_12 and U_21 of the U(2) coset element with s = |U_12|^2."""
    sin_phi = np.sqrt(s)
    phase = np.exp(1j * alpha)
    return np.sqrt(1.0 - s), sin_phi * phase, -sin_phi / phase


def _coset_matrices(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    cos_phi, u12, u21 = _coset_entries(s, alpha)
    return np.stack([np.stack([cos_phi, u12], -1), np.stack([u21, cos_phi], -1)], -2)


def _coset_u2_params(count: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Haar draws of s = |U_12|^2, uniform on [0, 1], then of the phase alpha on [-pi, pi)."""
    return gen.uniform(0.0, 1.0, count), gen.uniform(-np.pi, np.pi, count)


def sample_coset_u2(count: int, rng) -> np.ndarray:
    """(count, 2, 2) Haar draws on the U(2) coset, built from _coset_u2_params."""
    return _coset_matrices(*_coset_u2_params(count, as_generator(rng)))


def _sp2_weight_inverse_cdf(p: np.ndarray) -> np.ndarray:
    # density 3(1-2s)^2 on [0,1]; CDF (1 - (1-2s)^3)/2
    return 0.5 * (1.0 - np.cbrt(1.0 - 2.0 * p))


def _sp2_params(count: int, gen: np.random.Generator) -> tuple[np.ndarray, ...]:
    """(s_U, alpha, s_V, beta): a U(2) coset draw for U, then one for V with s_V by inverse CDF."""
    s_u, alpha = _coset_u2_params(count, gen)
    p_v, beta = _coset_u2_params(count, gen)
    return s_u, alpha, _sp2_weight_inverse_cdf(p_v), beta


def sample_sp2(count: int, rng) -> np.ndarray:
    """(count, 4, 4) draws of P = V U from dnu(P) = 3(1 - 2|V_12|^2)^2 dmu(U) dmu(V).

    U and V are U(2) coset factors with the parameters of _sp2_params.  With
    cos phi = U_11 = sqrt(1 - s_U), e = U_12 = sqrt(s_U) e^{i alpha}, v the
    2x2 V factor and sigma = [[0, 1], [1, 0]], the 2x2 blocks of P are

        P = [[ cos phi v,                e v sigma       ],
             [-conj(e) conj(v) sigma,    cos phi conj(v) ]],

    and each of the 16 entries is written from the factors' entries (v sigma
    swaps the columns of v).  The entries are stored entry-major, so the
    result is a transposed view of a (4, 4, count) array.
    """
    s_u, alpha, s_v, beta = _sp2_params(count, as_generator(rng))
    cos_phi, e, _ = _coset_entries(s_u, alpha)
    cos_v, v12, v21 = _coset_entries(s_v, beta)
    minus_e_bar = -e.conj()
    p = np.empty((4, 4, count), dtype=complex)
    for (i, j), vij in (((0, 0), cos_v), ((0, 1), v12), ((1, 0), v21), ((1, 1), cos_v)):
        vij_bar = vij.conj()
        p[i, j] = cos_phi * vij
        p[i, 3 - j] = e * vij
        p[2 + i, 1 - j] = minus_e_bar * vij_bar
        p[2 + i, 2 + j] = cos_phi * vij_bar
    return p.transpose(2, 0, 1)


@cache
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (nodes + 1.0), 0.5 * weights
    s.flags.writeable = ws.flags.writeable = False
    return s, ws


def u2_quadrature(p: HcizParams, n_s: int = 96) -> complex:
    """Deterministic s quadrature of the U(2) integral, C = diag(c1, c2).

    |U_lk|^2 is s or 1 - s whatever the phase alpha, so the integrand does not
    depend on alpha and the coset matrices are built at alpha = 0.
    """
    s, ws = _unit_gauss_legendre(n_s)
    u = _coset_matrices(s, np.zeros(n_s))
    c = np.array([p.c1, p.c2])
    d = np.array([p.d1, p.d2])
    # Tr C U* D U = sum_{k,l} c_k d_l |U_lk|^2
    quad_form = np.einsum("k,l,...lk->...", c, d, np.abs(u) ** 2)
    vals = np.exp(p.t * quad_form)
    return complex(ws @ vals)


def _check_budget(draws: int, chunk: int) -> None:
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")


def _mc_mean(integrand, draw_params, draws: int, rng, chunk: int) -> tuple[complex, float]:
    """(mean, stderr) of integrand(*params) over draw_params(b, gen) batches of at most chunk."""
    _check_budget(draws, chunk)
    gen = as_generator(rng)
    total = 0.0 + 0.0j
    total_sq = 0.0
    for done in range(0, draws, chunk):
        vals = integrand(*draw_params(min(chunk, draws - done), gen))
        total += np.sum(vals)
        total_sq += float(np.sum(np.abs(vals) ** 2))
    mean = total / draws
    var = max(total_sq / draws - abs(mean) ** 2, 0.0)
    return complex(mean), math.sqrt(var / draws)


def mc_hciz_u2(p: HcizParams, draws: int, rng, chunk: int = 200_000) -> tuple[complex, float]:
    """Monte Carlo of exp(E1 - tt s) over the draws of sample_coset_u2; returns (mean, stderr)."""
    e1, _, tt = p.exponents()
    return _mc_mean(lambda s, alpha: np.exp(e1 - tt * s), _coset_u2_params, draws, rng, chunk)


def mc_hciz_sp2(p: HcizParams, draws: int, rng, chunk: int = 100_000) -> tuple[complex, float]:
    """Monte Carlo of int exp(t Tr G P* H P / 2) dnu(P) as exp(E1 - tt q); see sample_sp2."""
    e1, _, tt = p.exponents()
    return _mc_mean(lambda s_u, alpha, s_v, beta: np.exp(e1 - tt * (s_u + s_v - 2.0 * s_u * s_v)),
                    _sp2_params, draws, rng, chunk)


@dataclass(frozen=True)
class ReductionReport:
    """Dual-path evaluation of the 6-dim vs 2-dim reduced integral."""

    lhs: float
    lhs_stderr: float
    rhs: float
    relative_difference: float
    stderr_ok: bool


def _box_eigenvalues(gen, count: int, box: float, t: float, d1: float,
                     d2: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue pairs of count draws of F, less those outside the box.

    The (count, 6) draw and its per-coordinate arrays are freed on return,
    before any observable is evaluated.
    """
    z = gen.standard_normal((count, 6))
    cols = [z[:, k] for k in range(6)]
    # almost every chunk lies inside the box: test the whole draw first, and
    # only then build the row mask, column by column (no (count, 6) temporary)
    if not (z.max() <= box and z.min() >= -box):
        keep = (reduce(np.maximum, cols) <= box) & (reduce(np.minimum, cols) >= -box)
        cols = [c[keep] for c in cols]
    sd_xy = 1.0 / math.sqrt(t)
    sd_w = 1.0 / math.sqrt(2.0 * t)
    x = d1 + sd_xy * cols[0]
    y = d2 + sd_xy * cols[1]
    w2 = sd_w**2 * (cols[2] ** 2 + cols[3] ** 2 + cols[4] ** 2 + cols[5] ** 2)
    half_gap = np.sqrt(0.25 * (x - y) ** 2 + w2)
    mid = 0.5 * (x + y)
    return mid + half_gap, mid - half_gap


def reduction_check(t: float, d1: float, d2: float, phi, box: float = 7.0,
                    draws: int = 10_000_000, rng=None,
                    chunk: int = 1_000_000) -> ReductionReport | tuple[ReductionReport, ...]:
    """Compare the 6-dim Gaussian integral of Phi(F) with its 2-dim reduction.

    LHS: Monte Carlo over (x, y, Re w1, Im w1, Re w2, Im w2) with density
    prop. to exp(-(t/4) Tr(F - G)^2); Phi is evaluated on the two doubly
    degenerate eigenvalues of the quaternion form F.  RHS: Gauss-Hermite
    quadrature of the reduced 2-eigenvalue integrand.  `box` is the
    per-coordinate truncation half-width in standard deviations; the Gaussian
    mass outside must be below 1e-10.

    `phi(y1, y2)` must be a vectorized symmetric polynomial of total degree
    at most 4 in the eigenvalues; the check returns its ReductionReport.
    `phi` may also be a sequence of such observables: they share one set of
    draws, each chunk evaluating them one after another, and the check
    returns a tuple with one report per observable, each equal to the report
    of a single-observable call on the same rng.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if d1 == d2:
        raise ValueError("the reduction formula requires d1 != d2")
    _check_budget(draws, chunk)
    outside = 6.0 * erfc(box / math.sqrt(2.0))
    if outside >= 1e-10:
        raise ValueError(f"truncation box {box} leaves Gaussian mass {outside:.2e} outside")
    phis = (phi,) if callable(phi) else tuple(phi)

    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    totals = [0.0] * len(phis)
    totals_sq = [0.0] * len(phis)
    kept = 0
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        y1, y2 = _box_eigenvalues(gen, b, box, t, d1, d2)
        for k, f in enumerate(phis):
            vals = f(y1, y2)
            totals[k] += float(np.sum(vals))
            totals_sq[k] += float(np.sum(vals**2))
        kept += len(y1)
        done += b
    mass = 2.0 * math.pi**3 / t**3

    nodes, weights = np.polynomial.hermite.hermgauss(24)
    scale = math.sqrt(2.0 / t)
    q1 = d1 + scale * nodes[:, None]
    q2 = d2 + scale * nodes[None, :]
    gap = q1 - q2
    jacobian = gap**2 - 2.0 * gap / (t * (d1 - d2))

    reports = []
    for f, total, total_sq in zip(phis, totals, totals_sq):
        mean = total / kept
        var = max(total_sq / kept - mean**2, 0.0)
        lhs = mass * mean
        lhs_stderr = mass * math.sqrt(var / kept)
        rhs = (math.pi**2 / t**2) * scale**2 * float(
            np.einsum("i,j,ij->", weights, weights, f(q1, q2) * jacobian / (d1 - d2) ** 2))
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        stderr_ok = lhs_stderr <= 0.005 * abs(lhs) if lhs != 0 else True
        reports.append(ReductionReport(lhs, lhs_stderr, rhs, rel, stderr_ok))
    return reports[0] if callable(phi) else tuple(reports)
