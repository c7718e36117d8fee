"""Spectra, signed log-determinants, and the empirical law vs the semicircle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import MatrixSample
from .kernels import semicircle_cdf

__all__ = [
    "Spectrum",
    "SignedLogDet",
    "NcmHistogram",
    "eigenvalues",
    "signed_logdet",
    "signed_logdets",
    "ncm",
    "semicircle_distance",
]


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of one matrix sample."""

    values: np.ndarray

    @property
    def N(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SignedLogDet:
    """det = sign * exp(log_magnitude); sign 0 iff log_magnitude = -inf."""

    sign: int
    log_magnitude: float

    @property
    def value(self) -> float:
        return self.sign * np.exp(self.log_magnitude)


@dataclass(frozen=True)
class NcmHistogram:
    """Normalized counting measure binned on fixed edges; masses = counts/N."""

    edges: np.ndarray
    masses: np.ndarray
    N: int


def eigenvalues(sample: MatrixSample) -> Spectrum:
    """Ascending spectrum via a dense symmetric eigensolver."""
    try:
        vals = np.linalg.eigvalsh(sample.entries)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"symmetric eigensolver failed to converge: {exc}") from exc
    return Spectrum(vals)


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


def signed_logdet(spectrum: Spectrum, lam: float) -> SignedLogDet:
    """Signed log of det(lam - H) from the spectrum of H (see signed_logdets)."""
    logd, signs = signed_logdets(spectrum.values[None, :], [lam])
    return SignedLogDet(int(signs[0, 0]), float(logd[0, 0]))


def ncm(spectrum: Spectrum, edges) -> NcmHistogram:
    """Histogram of the normalized counting measure on the given edges."""
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("histogram edges must be strictly ascending")
    counts, _ = np.histogram(spectrum.values, bins=edges)
    return NcmHistogram(edges, counts / spectrum.N, spectrum.N)


def semicircle_distance(hist: NcmHistogram) -> float:
    """Sup distance at the bin edges between the empirical CDF and the semicircle CDF."""
    emp = np.concatenate([[0.0], np.cumsum(hist.masses)])
    return float(np.max(np.abs(emp - semicircle_cdf(hist.edges))))
