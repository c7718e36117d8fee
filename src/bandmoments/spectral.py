"""Spectra, signed log-determinants, and the empirical law vs the semicircle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import semicircle_cdf

__all__ = [
    "NcmHistogram",
    "eigenvalues",
    "signed_logdet",
    "signed_logdets",
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
