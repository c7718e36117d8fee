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
from functools import cache

import numpy as np

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

_U2_NODES = 96                 # Gauss-Legendre nodes in s of u2_quadrature
# Draws per batch.  Each Monte Carlo loop holds one batch at a time, at most
# 24 bytes a draw in mc_hciz_u2, 40 in mc_hciz_sp2, and 40 in the reduction
# at one setting and 56 at several (3.5 MiB at 2^16).  A batch fills each of
# its arrays in turn, so its size is part of the draws: the U(2) and Sp(2)
# sizes fix verify-hciz's rows.
_U2_CHUNK = 200_000
_SP2_CHUNK = 100_000
_REDUCTION_CHUNK = 2**16
_BOX = 7.0                     # reduction_check's truncation half-width, in standard deviations


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


def _skip_uniforms(gen: np.random.Generator, count: int) -> None:
    """Move gen past count uniform doubles, as if they were drawn and dropped.

    A uniform double takes one 64-bit output of PCG64, the bit generator of
    default_rng, so PCG64 advances by count; any other draws and drops them.
    """
    if isinstance(gen.bit_generator, np.random.PCG64):
        gen.bit_generator.advance(count)
    else:
        gen.random(count)


def _coset_u2_s(count: int, gen: np.random.Generator) -> np.ndarray:
    """The s of _coset_u2_params(count, gen), stepping over the phases no integrand reads."""
    s = gen.uniform(0.0, 1.0, count)
    _skip_uniforms(gen, count)
    return s


def _sp2_s(count: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The (s_U, s_V) of _sp2_params(count, gen), stepping over its phases."""
    s_u = _coset_u2_s(count, gen)
    return s_u, _sp2_weight_inverse_cdf(_coset_u2_s(count, gen))


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


def u2_quadrature(p: HcizParams) -> complex:
    """Deterministic s quadrature of the U(2) integral, C = diag(c1, c2).

    |U_lk|^2 is s or 1 - s whatever the phase alpha, so the integrand does not
    depend on alpha and the coset matrices are built at alpha = 0.
    """
    s, ws = _unit_gauss_legendre(_U2_NODES)
    u = _coset_matrices(s, np.zeros(_U2_NODES))
    c = np.array([p.c1, p.c2])
    d = np.array([p.d1, p.d2])
    # Tr C U* D U = sum_{k,l} c_k d_l |U_lk|^2
    quad_form = np.einsum("k,l,...lk->...", c, d, np.abs(u) ** 2)
    vals = np.exp(p.t * quad_form)
    return complex(ws @ vals)


def _check_budget(draws: int) -> None:
    """A mean needs 2 draws for an error bar."""
    if draws < 2:
        raise ValueError(f"draws must be at least 2, got {draws}")


def _mc_mean(batch_values, draws: int, rng, chunk: int) -> tuple[complex, float]:
    """(mean, stderr) of the integrand values batch_values(b, gen) in batches of at most chunk."""
    _check_budget(draws)
    gen = as_generator(rng)
    total = 0.0 + 0.0j
    total_sq = 0.0
    for done in range(0, draws, chunk):
        vals = batch_values(min(chunk, draws - done), gen)
        total += np.sum(vals)
        sq = np.abs(vals)
        total_sq += float(np.sum(np.square(sq, out=sq)))
        del vals, sq                        # free the batch before the next is drawn
    mean = total / draws
    var = max(total_sq / draws - abs(mean) ** 2, 0.0)
    return complex(mean), math.sqrt(var / draws)


def _exp_linear(e1: complex, tt: complex, s: np.ndarray) -> np.ndarray:
    """exp(e1 - tt s), computed in one buffer."""
    out = np.multiply(tt, s)
    np.subtract(e1, out, out=out)
    return np.exp(out, out=out)


def mc_hciz_u2(p: HcizParams, draws: int, rng) -> tuple[complex, float]:
    """Monte Carlo of exp(E1 - tt s) over the draws of sample_coset_u2; returns (mean, stderr)."""
    e1, _, tt = p.exponents()
    return _mc_mean(lambda b, gen: _exp_linear(e1, tt, _coset_u2_s(b, gen)), draws, rng,
                    _U2_CHUNK)


def _sp2_integrand(e1: complex, tt: complex, s_u: np.ndarray, s_v: np.ndarray) -> np.ndarray:
    """exp(e1 - tt q), q = s_u + s_v - 2 s_u s_v, overwriting s_u with q."""
    prod = np.multiply(2.0, s_u)
    prod *= s_v
    s_u += s_v
    s_u -= prod
    return _exp_linear(e1, tt, s_u)


def mc_hciz_sp2(p: HcizParams, draws: int, rng) -> tuple[complex, float]:
    """Monte Carlo of int exp(t Tr G P* H P / 2) dnu(P) as exp(E1 - tt q); see sample_sp2."""
    e1, _, tt = p.exponents()
    return _mc_mean(lambda b, gen: _sp2_integrand(e1, tt, *_sp2_s(b, gen)), draws, rng,
                    _SP2_CHUNK)


@dataclass(frozen=True)
class ReductionReport:
    """Dual-path evaluation of the 6-dim vs 2-dim reduced integral.

    `kept` counts the Monte Carlo draws inside the truncation region, the
    ones the LHS averages over.
    """

    lhs: float
    lhs_stderr: float
    rhs: float
    relative_difference: float
    stderr_ok: bool
    kept: int


def _standard_draws(gen, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, g, scratch): count rows of standard variates, less those outside the region.

    The eigenvalues mid +- sqrt((x - y)^2 / 4 + |w|^2) read x, y and |w|^2
    only, so each row takes three variates: x = d1 + z_x / sqrt(t),
    y = d2 + z_y / sqrt(t) from the two standard normals of z = (z_x, z_y),
    and g = t |w|^2 = (z_2^2 + z_3^2 + z_4^2 + z_5^2) / 2 ~ Gamma(2, 1) as the
    sum of two standard exponentials.  A row is kept when |z_x|, |z_y| <= _BOX
    and g <= 2 _BOX^2, a ball that contains the box |z_k| <= _BOX on the four
    w coordinates.  The region is in standard units, so it is the same for
    every setting (t, d1, d2).  scratch is a free buffer of one double a row.
    """
    z = gen.standard_normal((2, count))
    g, scratch = gen.standard_exponential((2, count))
    g += scratch                            # the sum of the two rows, in the first
    g_max = 2.0 * _BOX**2
    # almost every chunk lies inside the region: test the whole draw first
    if not (z.max() <= _BOX and z.min() >= -_BOX and g.max() <= g_max):
        keep = (np.abs(z) <= _BOX).all(axis=0) & (g <= g_max)
        z, g = z[:, keep], g[keep]
        scratch = scratch[:len(g)]
    return z, g, scratch


def _eigenvalue_pairs(z: np.ndarray, g: np.ndarray, t: float, d1: float, d2: float,
                      pairs: np.ndarray, half_gap: np.ndarray) -> None:
    """Write the eigenvalue pairs of rows (z, g) of _standard_draws at (t, d1, d2) into pairs.

    pairs may be z itself; otherwise z is left as it is.  g is left as it
    is, and half_gap is overwritten.
    """
    zx, zy = z
    y1, y2 = pairs
    sd = 1.0 / math.sqrt(t)
    np.subtract(zx, zy, out=half_gap)       # (x - y) / 2 = ((d1 - d2) + sd (z_x - z_y)) / 2
    half_gap *= 0.5 * sd
    half_gap += 0.5 * (d1 - d2)
    np.square(half_gap, out=half_gap)
    np.add(zx, zy, out=y1)                  # mid = (d1 + d2) / 2 + sd (z_x + z_y) / 2
    y1 *= 0.5 * sd
    y1 += 0.5 * (d1 + d2)
    half_gap += np.divide(g, t, out=y2)     # |w|^2
    np.sqrt(half_gap, out=half_gap)
    np.subtract(y1, half_gap, out=y2)
    y1 += half_gap


def _reduction_sums(settings, phis, draws: int, rng) -> tuple[np.ndarray, np.ndarray, int]:
    """(sums, sums of squares, kept) of each observable over the kept draws of each setting.

    The sums are (len(settings), len(phis)) arrays.  Each chunk of at most
    _REDUCTION_CHUNK rows is drawn and truncated once, and every setting's
    eigenvalue pairs are computed in turn from it: the settings share their
    draws, and each setting's sums equal those of a one-setting call on the
    same rng.  The settings but the last reuse one pairs buffer; the last
    writes its pairs over z, which no later setting reads.
    """
    for t, d1, d2 in settings:
        if not t > 0:
            raise ValueError(f"t must be positive, got {t}")
        if d1 == d2:
            raise ValueError("the reduction formula requires d1 != d2")
    gen = as_generator(rng)
    totals = np.zeros((len(settings), len(phis)))
    totals_sq = np.zeros_like(totals)
    kept = 0
    for done in range(0, draws, _REDUCTION_CHUNK):
        z, g, scratch = _standard_draws(gen, min(_REDUCTION_CHUNK, draws - done))
        shared = np.empty_like(z) if len(settings) > 1 else None
        for si, (t, d1, d2) in enumerate(settings):
            pairs = z if si == len(settings) - 1 else shared
            _eigenvalue_pairs(z, g, t, d1, d2, pairs, scratch)
            for k, f in enumerate(phis):
                vals = f(*pairs)
                totals[si, k] += float(np.sum(vals))
                totals_sq[si, k] += float(np.sum(np.square(vals, out=scratch)))
                del vals
        kept += len(g)
        del z, g, scratch, shared, pairs    # free the batch before the next is drawn
    return totals, totals_sq, kept


def _reduction_reports(t: float, d1: float, d2: float, phis, totals, totals_sq,
                       kept: int) -> list[ReductionReport]:
    """One ReductionReport per observable from its sums over kept draws at (t, d1, d2)."""
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
        reports.append(ReductionReport(lhs, lhs_stderr, rhs, rel, stderr_ok, kept))
    return reports


def reduction_check(t: float, d1: float, d2: float, phi, draws: int,
                    rng) -> ReductionReport:
    """Compare the 6-dim Gaussian integral of Phi(F) with its 2-dim reduction.

    LHS: Monte Carlo over (x, y, Re w1, Im w1, Re w2, Im w2) with density
    prop. to exp(-(t/4) Tr(F - G)^2); Phi is evaluated on the two doubly
    degenerate eigenvalues of the quaternion form F.  RHS: Gauss-Hermite
    quadrature of the reduced 2-eigenvalue integrand.  The LHS takes `draws`
    draws from `rng`, in batches of 2^16.  Each draw is three variates, two
    standard normals for x and y and one Gamma(2, 1) for t |w|^2 (see
    _standard_draws); draws with |z_x| or |z_y| beyond 7 standard deviations
    or t |w|^2 beyond 2 * 7^2 are dropped (Gaussian mass below 1e-10 outside)
    and the rest are counted in the report's `kept`.

    `phi(y1, y2)` must be a vectorized symmetric polynomial of total degree
    at most 4 in the eigenvalues; the check returns its ReductionReport.
    """
    _check_budget(draws)
    totals, totals_sq, kept = _reduction_sums(((t, d1, d2),), (phi,), draws, rng)
    return _reduction_reports(t, d1, d2, (phi,), totals[0].tolist(), totals_sq[0].tolist(),
                              kept)[0]
