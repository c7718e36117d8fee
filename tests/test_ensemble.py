"""Distributional checks of the band and GOE samplers."""

import numpy as np
import pytest

from bandmoments.ensemble import (RngStream, goe_profile, sample_goe,
                                  sample_goe_tridiagonal, sample_symmetric)
from bandmoments.lattice import LatticeParams, variance_profile


def _draw_band(n, w, count, seed):
    profile = variance_profile(LatticeParams(n, w))
    return sample_symmetric(profile, count, RngStream(seed).generator()), profile


class TestSampleBand:
    def test_exact_symmetry(self):
        h = _draw_band(2, 1.0, 3, 0)[0]
        np.testing.assert_array_equal(h, np.swapaxes(h, 1, 2))

    def test_single_site_variance_is_two(self):
        h, _ = _draw_band(0, 5.0, 100_000, 1)
        var = np.var(h[:, 0, 0])
        # Var of the sample variance of N(0,2): 2*sigma^4/M
        assert abs(var - 2.0) < 5.0 * np.sqrt(2.0 * 4.0 / len(h))

    def test_entry_covariance_matches_profile(self):
        # chi-square style scan over every index quadruple on a 5-site chain
        h, profile = _draw_band(2, 1.0, 100_000, 2)
        m = len(h)
        n = 5
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        flat = np.stack([h[:, i, j] for i, j in pairs], axis=1)
        emp = flat.T @ flat / m
        prods = flat[:, :, None] * flat[:, None, :]
        se = np.std(prods, axis=0) / np.sqrt(m)
        theory = np.zeros((len(pairs), len(pairs)))
        for a, (i, j) in enumerate(pairs):
            theory[a, a] = (2.0 if i == j else 1.0) * profile[i, j]
        z = (emp - theory) / se
        assert np.max(np.abs(z)) < 5.0

    def test_bit_reproducible(self):
        prof = variance_profile(LatticeParams(3, 2.0))
        a = sample_symmetric(prof, 1, RngStream(42, 7))[0]
        b = sample_symmetric(prof, 1, RngStream(42, 7))[0]
        np.testing.assert_array_equal(a, b)
        c = sample_symmetric(prof, 1, RngStream(42, 8))[0]
        assert np.any(a != c)

    @pytest.mark.parametrize("profile", [goe_profile(6), variance_profile(LatticeParams(3, 2.0))],
                             ids=["goe", "band"])
    def test_matches_three_pass_construction(self, profile):
        # triangle, mirror, then diagonal rescale: the sampler must give
        # the same bits from its single scaled draw
        g = RngStream(11).generator().standard_normal((5, *profile.shape))
        upper = np.triu(g * np.sqrt(profile), k=1)
        want = upper + np.swapaxes(upper, 1, 2)
        idx = np.arange(len(profile))
        want[:, idx, idx] = g[:, idx, idx] * np.sqrt(2.0 * np.diagonal(profile))
        got = sample_symmetric(profile, 5, RngStream(11).generator())
        assert got.tobytes() == want.tobytes()

    def test_batch_matches_single_draws(self):
        # the scan samples in batches; the batch size must not change the draws
        prof = variance_profile(LatticeParams(3, 2.0))
        batch = sample_symmetric(prof, 4, RngStream(9).generator())
        gen = RngStream(9).generator()
        singles = np.stack([sample_symmetric(prof, 1, gen)[0] for _ in range(4)])
        np.testing.assert_array_equal(batch, singles)


class TestSampleGoe:
    def test_single_site_variance(self):
        gen = RngStream(3).generator()
        vals = np.array([sample_goe(1, gen)[0, 0] for _ in range(50_000)])
        assert abs(np.var(vals) - 2.0) < 5.0 * np.sqrt(2.0 * 4.0 / len(vals))

    def test_offdiagonal_variance_half(self):
        gen = RngStream(4).generator()
        vals = np.array([sample_goe(2, gen)[0, 1] for _ in range(100_000)])
        assert abs(np.var(vals) - 0.5) < 5.0 * np.sqrt(2.0 * 0.25 / len(vals))

    def test_trace_centered(self):
        gen = RngStream(5).generator()
        traces = np.array([np.trace(sample_goe(8, gen)) for _ in range(20_000)])
        assert abs(np.mean(traces)) < 5.0 * np.std(traces) / np.sqrt(len(traces))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_goe(0, RngStream(0))


class TestSampleGoeTridiagonal:
    def test_shapes_and_single_site(self):
        diag, offdiag_sq = sample_goe_tridiagonal(1, 5, RngStream(6))
        assert diag.shape == (5, 1) and offdiag_sq.shape == (5, 0)
        with pytest.raises(ValueError):
            sample_goe_tridiagonal(0, 5, RngStream(6))

    def test_entry_moments(self):
        # a_k ~ N(0, 2/N), b_k^2 ~ chi^2_{N-1-k} / N: mean (N-1-k)/N, var 2(N-1-k)/N^2
        N, m = 6, 40_000
        diag, offdiag_sq = sample_goe_tridiagonal(N, m, RngStream(7))
        z_var = (np.var(diag, axis=0) - 2.0 / N) / (np.sqrt(2.0 / m) * 2.0 / N)
        dof = np.arange(N - 1, 0, -1)
        z_mean = (offdiag_sq.mean(axis=0) - dof / N) / (np.sqrt(2.0 * dof / m) / N)
        assert np.max(np.abs(z_var)) < 5.0
        assert np.max(np.abs(z_mean)) < 5.0

    def test_spectral_moments_match_dense_goe(self):
        # same eigenvalue law: tr H^2 and tr H^4 agree with dense GOE draws
        N, m = 5, 20_000
        diag, offdiag_sq = sample_goe_tridiagonal(N, m, RngStream(8))
        off = np.sqrt(offdiag_sq)
        tri = np.zeros((m, N, N))
        idx = np.arange(N)
        tri[:, idx, idx] = diag
        tri[:, idx[:-1], idx[1:]] = off
        tri[:, idx[1:], idx[:-1]] = off
        dense = sample_symmetric(np.full((N, N), 1.0 / N), m, RngStream(9).generator())
        for power in (2, 4):
            a = np.trace(np.linalg.matrix_power(tri, power), axis1=1, axis2=2)
            b = np.trace(np.linalg.matrix_power(dense, power), axis1=1, axis2=2)
            se = np.hypot(np.std(a), np.std(b)) / np.sqrt(m)
            assert abs(a.mean() - b.mean()) < 5.0 * se
