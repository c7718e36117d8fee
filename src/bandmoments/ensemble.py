"""Sampling of real-symmetric Gaussian band matrices and the GOE reference.

Dense draws (`sample_symmetric`) serve every variance profile.  The GOE also
has the Dumitriu-Edelman tridiagonal model (`sample_goe_tridiagonal`), whose
O(N) entries per sample carry exactly the GOE's eigenvalue law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

__all__ = ["RngStream", "as_generator", "goe_profile",
           "sample_symmetric", "sample_goe", "sample_goe_tridiagonal"]


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (master_seed, stream_index) pins the draw sequence.

    Streams are split with numpy's SeedSequence spawn keys, so distinct
    indices give statistically independent generators without sequential
    dependence between them.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return default_rng(SeedSequence(self.master_seed, spawn_key=(self.stream_index,)))


def as_generator(rng) -> np.random.Generator:
    """The generator of an RngStream; a numpy Generator is returned as is."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def goe_profile(N: int) -> np.ndarray:
    """Flat GOE variance profile J_ij = 1/N."""
    if N < 1:
        raise ValueError(f"matrix size must be positive, got {N}")
    return np.full((N, N), 1.0 / N)


def sample_symmetric(profile: np.ndarray, count: int, rng) -> np.ndarray:
    """(count, n, n) draws of H for the (n, n) variance profile J.

    E[H_ij H_kl] = (delta_ik delta_jl + delta_il delta_jk) J_ij: off-diagonal
    H_ij ~ N(0, J_ij) for i<j, diagonal H_ii ~ N(0, 2 J_ii).  One
    (count, n, n) normal draw consumes the generator exactly like count draws
    of (n, n), so the batch size does not change the samples.
    """
    n = len(profile)
    # root profile: sqrt(J) above the diagonal, sqrt(2 J)/2 on it, which the
    # symmetrisation doubles (exactly, as a power of two); zero below
    root = np.triu(np.sqrt(profile), k=1)
    np.fill_diagonal(root, 0.5 * np.sqrt(2.0 * np.diagonal(profile)))
    g = as_generator(rng).standard_normal((count, n, n))
    g *= root
    return g + np.swapaxes(g, 1, 2)


def sample_goe(N: int, rng) -> np.ndarray:
    """GOE reference: flat profile J_ij = 1/N (same sampling rule as the band)."""
    return sample_symmetric(goe_profile(N), 1, rng)[0]


def sample_goe_tridiagonal(N: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(count, N) diagonals and (count, N - 1) squared off-diagonals of GOE draws.

    Dumitriu-Edelman model (Dumitriu & Edelman, "Matrix models for beta
    ensembles", math-ph/0206043) at beta = 1: a_k ~ N(0, 2/N) and
    b_k^2 ~ chi^2_{N-1-k} / N for k = 0..N-2, all independent.  The
    tridiagonal matrix with these entries has exactly the eigenvalue law of
    sample_goe's dense draws, so det(lam - H) has the same law too.  The
    diagonals are drawn first, then the squared off-diagonals.
    """
    if N < 1:
        raise ValueError(f"matrix size must be positive, got {N}")
    gen = as_generator(rng)
    diag = gen.standard_normal((count, N)) * math.sqrt(2.0 / N)
    offdiag_sq = gen.chisquare(np.arange(N - 1, 0, -1), size=(count, N - 1)) / N
    return diag, offdiag_sq
