"""Chain measure: partition function, asymptotics, Green function, tails."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import cholesky_banded, solve_banded

from bandmoments import chain
from bandmoments.chain import (ChainParams, chain_asymptotic,
                               chain_log_asymptotic, chain_log_partition,
                               chain_logdet, chain_operator, chain_partition,
                               green_diag, sample_chain, tail_probability)
from bandmoments.ensemble import RngStream

RNG = np.random.default_rng(3)


def _logdet_oracle(p: ChainParams) -> complex:
    eigs = np.linalg.eigvalsh(chain_operator(p.m).dense())
    return complex(np.sum(np.log(eigs.astype(complex) + p.shift)))


class TestChainLogdet:
    def test_single_site(self):
        gamma = 0.8 + 0.5j
        p = ChainParams(1, 2.0, gamma)
        assert cmath.exp(chain_logdet(p)) == pytest.approx(2.0 * gamma / 4.0, rel=1e-14)
        assert chain_partition(p) == pytest.approx(
            cmath.sqrt(math.pi * 4.0 / gamma), rel=1e-12)

    def test_two_sites(self):
        p = ChainParams(2, 1.0, 1.0)
        assert cmath.exp(chain_logdet(p)) == pytest.approx(8.0, rel=1e-14)
        assert chain_partition(p) == pytest.approx(2.0 * math.pi / math.sqrt(8.0),
                                                   rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 33, 64])
    def test_matches_dense_oracle(self, m):
        for _ in range(4):
            gamma = complex(RNG.uniform(0.05, 4.0), RNG.uniform(-4.0, 4.0))
            p = ChainParams(m, float(RNG.uniform(0.5, 16.0)), gamma)
            oracle = _logdet_oracle(p)
            assert abs(chain_logdet(p) - oracle) <= 1e-10 * abs(oracle)

    def test_modulus_bound_by_real_gamma(self):
        for _ in range(20):
            gamma = complex(RNG.uniform(0.1, 3.0), RNG.uniform(-3.0, 3.0))
            p = ChainParams(12, 3.0, gamma)
            p_re = ChainParams(12, 3.0, gamma.real)
            z = chain_log_partition(p)
            z_re = chain_log_partition(p_re)
            assert z.real <= z_re.real + 1e-12

    def test_branch_continuity_along_path(self):
        # gamma sweeps a path in the right half-plane; the pivot-tracked log
        # must match the principal-log eigenvalue oracle (which is continuous
        # there) at every point, so no 2 pi jumps can occur
        ts = np.linspace(0.0, 1.0, 100)
        gammas = 0.3 + 2.5j * np.sin(2.0 * math.pi * ts) + 2.0 * ts
        for g in gammas:
            p = ChainParams(40, 4.0, g)
            assert abs(chain_logdet(p) - _logdet_oracle(p)) < 1e-10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ChainParams(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ChainParams(3, 1.0, -1.0)
        with pytest.raises(ValueError):
            ChainParams(3, 1.0, 1j)
        for w in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                ChainParams(3, w, 1.0)


class TestChainAsymptotic:
    def test_regime_of_interest(self):
        p = ChainParams(320, 32.0, 1.0)
        rel = abs(cmath.exp(chain_log_asymptotic(p) - chain_log_partition(p)) - 1.0)
        assert rel <= 0.05

    def test_error_shrinks_with_w_at_fixed_ratio(self):
        rels = []
        for w in (8, 16, 32, 64):
            p = ChainParams(10 * w, float(w), 1.0)
            rels.append(abs(cmath.exp(chain_log_asymptotic(p)
                                      - chain_log_partition(p)) - 1.0))
        assert all(b < a for a, b in zip(rels, rels[1:]))

    def test_real_gamma_gives_positive_real_z(self):
        p = ChainParams(24, 8.0, 2.0)
        z = chain_partition(p)
        za = chain_asymptotic(p)
        assert abs(z.imag) < 1e-12 * abs(z) and z.real > 0
        assert abs(za.imag) < 1e-12 * abs(za) and za.real > 0


class TestGreenDiag:
    def test_single_site(self):
        gamma = 1.5 - 0.7j
        assert green_diag(ChainParams(1, 3.0, gamma), 1) == pytest.approx(
            9.0 / (2.0 * gamma), rel=1e-13)

    def test_reflection_symmetry(self):
        p = ChainParams(9, 2.0, 0.4 + 0.9j)
        for i in (1, 2, 4):
            assert green_diag(p, i) == pytest.approx(green_diag(p, 10 - i), rel=1e-12)

    def test_coth_envelope(self):
        # |G_ii| <= C (W / sqrt(2 gamma)) |coth(m sqrt(2 gamma) / W)| with C <= 2
        for m, w in ((16, 4.0), (64, 8.0), (128, 8.0)):
            for gamma in (0.5, 1.0, 2.0 + 1.0j):
                p = ChainParams(m, w, gamma)
                root = cmath.sqrt(2.0 * complex(gamma))
                envelope = abs(w / root) * abs(1.0 / cmath.tanh(m * root / w))
                worst = max(abs(green_diag(p, i)) for i in range(1, m + 1))
                assert worst <= 2.0 * envelope

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            green_diag(ChainParams(3, 1.0, 1.0), 0)
        with pytest.raises(ValueError):
            green_diag(ChainParams(3, 1.0, 1.0), 4)


class TestSampleChain:
    def test_single_site_variance(self):
        w, gamma = 3.0, 0.7
        x = sample_chain(1, w, gamma, RngStream(50), size=100_000)
        var = np.var(x)
        expected = w * w / (2.0 * gamma)
        assert abs(var - expected) < 5.0 * expected * math.sqrt(2.0 / len(x))

    def test_mean_centered(self):
        x = sample_chain(8, 2.0, 1.0, RngStream(51), size=50_000)
        se = np.std(x, axis=0) / math.sqrt(len(x))
        assert np.all(np.abs(np.mean(x, axis=0)) < 5.0 * se)

    def test_covariance_matches_green_function(self):
        m, w, gamma = 16, 4.0, 0.9
        x = sample_chain(m, w, gamma, RngStream(52), size=100_000)
        emp = x.T @ x / len(x)
        green = np.linalg.inv(chain_operator(m).dense(2.0 * gamma / w**2))
        se = np.sqrt((np.outer(np.diag(green), np.diag(green)) + green**2) / len(x))
        assert np.max(np.abs(emp - green) / se) < 5.0

    @pytest.mark.parametrize("m, w", [(1, 3.0), (8, 2.0), (64, 16.0), (320, 32.0)])
    def test_matches_banded_cholesky_draw(self, m, w):
        # reference: upper banded Cholesky R of the precision, x = R^{-1} z
        gamma = 0.9
        ab = np.zeros((2, m))
        ab[1] = chain_operator(m).diagonal + 2.0 * gamma / w**2
        ab[0, 1:] = chain_operator(m).offdiagonal
        z = np.random.default_rng(m).standard_normal((m, 500))
        ref = solve_banded((0, 1), cholesky_banded(ab, lower=False), z).T
        x = sample_chain(m, w, gamma, np.random.default_rng(m), size=500)
        np.testing.assert_allclose(x, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


class TestTailProbability:
    def test_monotone_in_delta(self):
        freqs = [tail_probability(64, 16.0, 1.0, d, 20_000, RngStream(53))
                 for d in (0.5, 1.0, 1.5)]
        assert freqs[0] >= freqs[1] >= freqs[2]

    def test_large_delta_vanishes(self):
        assert tail_probability(32, 8.0, 1.0, 50.0, 2_000, RngStream(54)) == 0.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            tail_probability(8, 2.0, 1.0, 0.0, 10, RngStream(0))

    def test_thresholds_share_chains(self, monkeypatch):
        # chunks of 3000 leave a short last chunk
        monkeypatch.setattr(chain, "_TAIL_CHUNK", 3000)
        deltas = (0.5, 0.7, 0.9)
        freqs = tail_probability(24, 6.0, 1.0, np.array(deltas), 7000, RngStream(55))
        assert freqs == tuple(tail_probability(24, 6.0, 1.0, d, 7000, RngStream(55))
                              for d in deltas)
        assert freqs[0] > freqs[1] > freqs[2] > 0.0

    @pytest.mark.parametrize("deltas", [(), (0.5, 0.0), [0.5, -1.0]])
    def test_rejects_empty_or_nonpositive_threshold_sequence(self, deltas):
        with pytest.raises(ValueError, match="delta"):
            tail_probability(8, 2.0, 1.0, deltas, 10, RngStream(0))
