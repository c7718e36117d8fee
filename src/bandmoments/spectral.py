"""Spectra, signed log-determinants, and the empirical law vs the semicircle.

Signed logs of det(lam - H) come from a spectrum (`signed_logdets`, one
eigensolve per matrix) or, for a symmetric tridiagonal H, straight from its
entries (`tridiagonal_signed_logdets`, O(N) per matrix and energy).  Both
return the same (logs, int8 signs) pair.  The signs of the same pivots count
the eigenvalues below a point (`tridiagonal_counts`), which bins a
tridiagonal spectrum with no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import semicircle_cdf

__all__ = [
    "NcmHistogram",
    "eigenvalues",
    "signed_logdet",
    "signed_logdets",
    "tridiagonal_counts",
    "tridiagonal_signed_logdets",
    "rescale_pow2",
    "ncm",
    "semicircle_distance",
]


@dataclass(frozen=True)
class NcmHistogram:
    """Normalized counting measure binned on fixed edges; masses = counts/N."""

    edges: np.ndarray
    masses: np.ndarray
    N: int


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix h (dense eigensolver)."""
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"symmetric eigensolver failed to converge: {exc}") from exc


def signed_logdets(eigs: np.ndarray, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Signed logs of det(lam - H) for a (batch, N) block of spectra and each lam.

    Returns (batch, len(lambdas)) log-magnitudes and int8 signs.  The sign is
    (-1)^(number of eigenvalues above lam); an exact hit on an eigenvalue
    yields sign 0 and log-magnitude -inf.
    """
    diffs = np.asarray(lambdas, dtype=float)[None, :, None] - eigs[:, None, :]
    with np.errstate(divide="ignore"):
        logd = np.sum(np.log(np.abs(diffs)), axis=2)
    signs = (1 - 2 * (np.sum(diffs < 0.0, axis=2) % 2)).astype(np.int8)
    signs[logd == -np.inf] = 0  # only an exact hit gives log 0 = -inf
    return logd, signs


def tridiagonal_signed_logdets(diag, offdiag_sq, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Signed logs of det(lam - T) for a batch of symmetric tridiagonal T and each lam.

    diag is (batch, N), offdiag_sq (batch, N - 1) the squared off-diagonal
    entries b_k^2.  The LU pivots of lam - T obey
    d_0 = lam - a_0, d_k = (lam - a_k) - b_{k-1}^2 / d_{k-1}; the log-magnitude
    is the sum of log|d_k| and the sign is (-1)^(number of negative pivots).
    The contract is that of signed_logdets: (batch, len(lambdas)) logs and
    int8 signs, with sign 0 and log -inf only for an exactly zero determinant.

    A pivot of exactly zero (or one so small that the next overflows) makes
    the next pivot infinite; those entries are evaluated again by
    _three_term_logdets, which does not divide.
    """
    diag, offdiag_sq, lambdas = _tridiagonal_batch(diag, offdiag_sq, lambdas)
    # one pivot row d_k of every (sample, energy) at a time; the running sum
    # adds the log|d_k| in the order k = 0, 1, ..., as a sum over k would
    logd = np.zeros((len(diag), len(lambdas)))
    odd = np.zeros(logd.shape, dtype=bool)      # parity of the negative pivots
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(diag.shape[1]):
            step = lambdas - diag[:, k, None]
            if k:
                step -= offdiag_sq[:, k - 1, None] / pivot
            pivot = step
            logd += np.log(np.abs(pivot))
            odd ^= pivot < 0.0
    signs = (1 - 2 * odd).astype(np.int8)
    bad = ~(logd < math.inf)  # an infinite pivot gives +inf or NaN
    if np.any(bad):
        samples, energies = np.nonzero(bad)
        logd[bad], signs[bad] = _three_term_logdets(
            lambdas[energies, None] - diag[samples], offdiag_sq[samples])
    signs[logd == -math.inf] = 0
    return logd, signs


def tridiagonal_counts(diag, offdiag_sq, x) -> np.ndarray:
    """Number of eigenvalues below each x of a batch of symmetric tridiagonal T.

    Entries as in tridiagonal_signed_logdets; returns (batch, len(x)) counts.
    By Sylvester's law of inertia the count is the number of positive pivots
    d_k = (x - a_k) - b_{k-1}^2 / d_{k-1} of x - T (the Sturm count of
    Barth, Martin & Wilkinson's bisection).  A pivot below the smallest normal
    float in magnitude becomes -tiny, as in LAPACK's dstebz, so an eigenvalue
    exactly at x is not counted: it falls in the bin to the right of an edge.
    """
    diag, offdiag_sq, x = _tridiagonal_batch(diag, offdiag_sq, x)
    tiny = np.finfo(float).tiny
    counts = np.zeros((len(diag), len(x)), dtype=np.int64)
    # b^2 / -tiny may overflow: the next pivot is then +inf, the one after x - a
    with np.errstate(over="ignore"):
        for k in range(diag.shape[1]):
            pivot = x - diag[:, k, None]
            if k:
                pivot -= offdiag_sq[:, k - 1, None] / prev
            prev = np.where(np.abs(pivot) < tiny, -tiny, pivot)
            counts += prev > 0.0
    return counts


def _tridiagonal_batch(diag, offdiag_sq, points):
    """The arguments as float arrays, checked to be (batch, N), (batch, N - 1) and finite."""
    diag, offdiag_sq, points = (np.asarray(a, dtype=float) for a in (diag, offdiag_sq, points))
    if diag.ndim != 2 or offdiag_sq.shape != (len(diag), max(diag.shape[1] - 1, 0)):
        raise ValueError(f"expected (batch, N) and (batch, N - 1) arrays, "
                         f"got {diag.shape} and {offdiag_sq.shape}")
    if not all(np.all(np.isfinite(a)) for a in (diag, offdiag_sq, points)):
        raise ValueError("tridiagonal entries and evaluation points must be finite")
    return diag, offdiag_sq, points


def _three_term_logdets(shifted, offdiag_sq) -> tuple[np.ndarray, np.ndarray]:
    """Signed logs of the determinants p_N from p_k = c_k p_{k-1} - b_{k-1}^2 p_{k-2}.

    shifted holds the rows c = lam - a, (m, N).  (p_{k-1}, p_k) is scaled by
    a power of two after every step, which is exact, and the exponents are
    summed apart, so zero pivots and wide magnitudes need no special case.
    """
    prev, cur = np.ones(len(shifted)), shifted[:, 0].copy()
    exponent = np.zeros(len(shifted), dtype=np.int64)
    for k in range(1, shifted.shape[1]):
        (prev, cur), e = rescale_pow2(np.stack([cur, shifted[:, k] * cur
                                                - offdiag_sq[:, k - 1] * prev]))
        exponent += e
    with np.errstate(divide="ignore"):
        logd = np.log(np.abs(cur)) + exponent * math.log(2.0)
    return logd, np.sign(cur).astype(np.int8)


def rescale_pow2(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values * 2^-e, e), e the binary exponent of the largest |value| along axis 0.

    The largest magnitude lands in [1/2, 1) and the scaling is exact, so a
    recurrence that rescales every step and sums the exponents apart neither
    overflows nor rounds differently.
    """
    _, e = np.frexp(np.max(np.abs(values), axis=0))
    return np.ldexp(values, -e[None]), e


def signed_logdet(eigs: np.ndarray, lam: float) -> tuple[int, float]:
    """(sign, log_magnitude) of det(lam - H) from the eigenvalues of H.

    det = sign * exp(log_magnitude); see signed_logdets for the exact-hit case.
    """
    logd, signs = signed_logdets(eigs[None, :], [lam])
    return int(signs[0, 0]), float(logd[0, 0])


def ncm(eigs: np.ndarray, edges) -> NcmHistogram:
    """Histogram of the normalized counting measure of eigs on the given edges."""
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("histogram edges must be strictly ascending")
    counts, _ = np.histogram(eigs, bins=edges)
    return NcmHistogram(edges, counts / len(eigs), len(eigs))


def semicircle_distance(hist: NcmHistogram) -> float:
    """Sup distance at the bin edges between the empirical CDF and the semicircle CDF."""
    emp = np.concatenate([[0.0], np.cumsum(hist.masses)])
    return float(np.max(np.abs(emp - semicircle_cdf(hist.edges))))
