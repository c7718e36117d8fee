"""Spectra, signed log-determinants, NCM histograms, semicircle distance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandmoments.ensemble import RngStream, sample_goe, sample_goe_tridiagonal
from bandmoments.kernels import semicircle_cdf
from bandmoments.spectral import (NcmHistogram, eigenvalues, ncm,
                                  semicircle_distance, signed_logdet,
                                  signed_logdets, tridiagonal_counts,
                                  tridiagonal_signed_logdets)

RNG = np.random.default_rng(1)

# few, derandomized examples: the property test stays reproducible and fast
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
# dyadic entries in [-2, 2]: zero and repeated values plant exact zero pivots,
# and scaling them by 2^e, |e| <= 400, stays exact (no overflow or underflow)
ENTRY = st.integers(-2**20, 2**20).map(lambda k: k / 2.0**19)


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 8))
    diag = draw(st.lists(ENTRY, min_size=n, max_size=n))
    offdiag = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(offdiag) ** 2


@st.composite
def _tridiagonal_batches(draw):
    n = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 12))
    diag = draw(st.lists(ENTRY, min_size=rows * n, max_size=rows * n))
    offdiag = draw(st.lists(ENTRY, min_size=rows * (n - 1), max_size=rows * (n - 1)))
    return np.reshape(diag, (rows, n)), np.reshape(offdiag, (rows, n - 1)) ** 2


class TestEigenvalues:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal(self):
        np.testing.assert_array_equal(eigenvalues(np.diag([1.0, -1.0])), [-1.0, 1.0])

    def test_trace_and_frobenius_identities(self):
        g = RNG.standard_normal((8, 8))
        h = g + g.T
        eigs = eigenvalues(h)
        assert np.all(np.diff(eigs) >= 0.0)
        assert abs(eigs.sum() - np.trace(h)) < 1e-8 * 8
        assert abs((eigs**2).sum() - (h**2).sum()) < 1e-8 * 8


class TestSignedLogdet:
    def test_sign_flip_between_eigenvalues(self):
        sign, log_magnitude = signed_logdet(np.array([-1.0, 1.0]), 0.0)
        assert sign == -1
        assert log_magnitude == pytest.approx(0.0)

    def test_above_spectrum(self):
        sign, log_magnitude = signed_logdet(np.zeros(3), 2.0)
        assert sign == 1
        assert log_magnitude == pytest.approx(3.0 * np.log(2.0))

    def test_exact_hit_is_singular(self):
        sign, log_magnitude = signed_logdet(np.array([0.0]), 0.0)
        assert sign == 0
        assert log_magnitude == -np.inf

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_matches_row_reduction_oracle(self, n):
        g = RNG.standard_normal((n, n))
        h = g + g.T
        eigs = eigenvalues(h)
        for lam in (-1.3, 0.2, 4.0):
            direct = np.linalg.det(lam * np.eye(n) - h)
            sign, log_magnitude = signed_logdet(eigs, lam)
            assert sign * np.exp(log_magnitude) == pytest.approx(
                direct, rel=1e-8)


def _dense_tridiagonal(diag, offdiag_sq):
    off = np.sqrt(offdiag_sq)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestTridiagonalSignedLogdets:
    # planted (diag, offdiag_sq, lam) with exact zero pivots: d_0 = lam - a_0 = 0;
    # d_1 = 0 in the middle of N = 3; d_1 = 0 as the last pivot of N = 2
    PLANTED = [([0.5, -1.0, 2.0], [1.0, 4.0], 0.5),
               ([-1.0, -1.0, 3.0], [1.0, 1.0], 0.0),
               ([-1.0, -1.0], [1.0], 0.0)]

    @pytest.mark.parametrize("diag,offdiag_sq,lam", PLANTED)
    def test_zero_pivots_against_dense_slogdet(self, diag, offdiag_sq, lam):
        logd, signs = tridiagonal_signed_logdets([diag], [offdiag_sq], [lam])
        sign, log_abs = np.linalg.slogdet(
            lam * np.eye(len(diag)) - _dense_tridiagonal(np.array(diag), np.array(offdiag_sq)))
        assert signs.dtype == np.int8
        assert int(signs[0, 0]) == sign
        if sign == 0:
            assert logd[0, 0] == -np.inf
        else:
            assert logd[0, 0] == pytest.approx(log_abs, abs=1e-14)

    def test_zero_pivot_beside_regular_entries(self):
        # only the entry with the zero pivot takes the other route
        diag, offdiag_sq, _ = self.PLANTED[1]
        logd, signs = tridiagonal_signed_logdets([diag, diag], [offdiag_sq, offdiag_sq],
                                                 [0.0, 0.7])
        for k, lam in enumerate((0.0, 0.7)):
            sign, log_abs = np.linalg.slogdet(
                lam * np.eye(3) - _dense_tridiagonal(np.array(diag), np.array(offdiag_sq)))
            assert (int(signs[0, k]), int(signs[1, k])) == (sign, sign)
            np.testing.assert_allclose(logd[:, k], log_abs, atol=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 256])
    def test_matches_eigenvalue_route(self, N):
        diag, offdiag_sq = sample_goe_tridiagonal(N, 40, RngStream(12).generator())
        lambdas = np.linspace(-0.3, 0.3, 7)
        logd, signs = tridiagonal_signed_logdets(diag, offdiag_sq, lambdas)
        eigs = np.stack([eigenvalues(_dense_tridiagonal(d, b2))
                         for d, b2 in zip(diag, offdiag_sq)])
        ref_logd, ref_signs = signed_logdets(eigs, lambdas)
        np.testing.assert_array_equal(signs, ref_signs)
        np.testing.assert_allclose(logd, ref_logd, rtol=0, atol=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tridiagonal_signed_logdets(np.zeros((2, 3)), np.zeros((2, 3)), [0.0])
        with pytest.raises(ValueError):
            tridiagonal_signed_logdets(np.zeros(3), np.zeros(2), [0.0])
        with pytest.raises(ValueError):
            tridiagonal_signed_logdets(np.zeros((1, 2)), [[np.nan]], [0.0])

    @PROPERTY
    @given(t=_tridiagonal_batches(), lambdas=st.lists(ENTRY, min_size=1, max_size=4),
           cuts=st.lists(st.integers(0, 12), max_size=4))
    def test_any_split_of_rows_gives_the_same_bits(self, t, lambdas, cuts):
        # rows are independent: scans pool draws into chunks across streams.
        # Dyadic entries plant exact zero pivots, so rows of the fallback
        # route are among them.
        diag, offdiag_sq = t
        whole = tridiagonal_signed_logdets(diag, offdiag_sq, lambdas)
        parts = [tridiagonal_signed_logdets(d, b, lambdas)
                 for d, b in zip(np.split(diag, sorted(cuts)), np.split(offdiag_sq, sorted(cuts)))
                 if len(d)]
        for k in range(2):
            assert np.concatenate([p[k] for p in parts]).tobytes() == whole[k].tobytes()

    def test_split_covers_the_zero_pivot_route(self):
        # the last row has a zero pivot at lam, so its entry takes the fallback
        diag, offdiag_sq, lam = self.PLANTED[1]
        rows = np.array([diag, [0.3, 0.1, -0.2], diag])
        whole = tridiagonal_signed_logdets(rows, [offdiag_sq] * 3, [lam, 0.7])
        one = tridiagonal_signed_logdets(rows[2:], [offdiag_sq], [lam, 0.7])
        assert whole[0][2].tobytes() == one[0][0].tobytes()
        assert whole[1][2].tobytes() == one[1][0].tobytes()

    def test_peak_memory_is_a_few_pivot_rows(self):
        # one (samples, energies) pivot row at a time, not an (N, samples,
        # energies) pivot array (19.5 MiB here)
        diag, offdiag_sq = sample_goe_tridiagonal(256, 256, RngStream(3).generator())
        lambdas = np.linspace(-0.3, 0.3, 13)
        tracemalloc.start()
        try:
            tridiagonal_signed_logdets(diag, offdiag_sq, lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @PROPERTY
    @given(t=_tridiagonals(), lam=ENTRY, exponent=st.integers(-400, 400))
    def test_matches_dense_slogdet(self, t, lam, exponent):
        diag, offdiag_sq = t
        n = len(diag)
        # scaling T and lam by 2^e is exact and moves log|det| by n e log 2
        scale = 2.0**exponent
        logd, signs = tridiagonal_signed_logdets([scale * diag], [scale**2 * offdiag_sq],
                                                 [scale * lam])
        shifted = lam * np.eye(n) - _dense_tridiagonal(diag, offdiag_sq)
        sign, log_abs = np.linalg.slogdet(shifted)
        assert (signs[0, 0] == 0) == (logd[0, 0] == -math.inf)
        got = int(signs[0, 0]) * math.exp(logd[0, 0] - n * exponent * math.log(2.0))
        # the product of absolute row sums bounds |det| and the rounding of both
        bound = np.prod(np.abs(shifted).sum(axis=1))
        assert abs(got - sign * math.exp(log_abs)) <= 1e-12 * n * bound


class TestTridiagonalCounts:
    @pytest.mark.parametrize("N", [1, 2, 64])
    def test_matches_dense_eigenvalues_below(self, N):
        diag, offdiag_sq = sample_goe_tridiagonal(N, 5, RngStream(13))
        x = np.random.default_rng(N).uniform(-2.5, 2.5, 50)
        counts = tridiagonal_counts(diag, offdiag_sq, x)
        for row, d, b2 in zip(counts, diag, offdiag_sq):
            eigs = eigenvalues(_dense_tridiagonal(d, b2))
            np.testing.assert_array_equal(row, np.sum(eigs[None, :] < x[:, None], axis=1))

    @pytest.mark.parametrize("diag,offdiag_sq,x,expected", [
        ([0.0, 0.0], [1.0], [-1.0, 0.0, 1.0, 2.0], [0, 1, 1, 2]),  # eigenvalues -1, 1
        ([0.0, 0.0, 0.0], [1.0, 1.0], [0.0], [1]),                  # -sqrt(2), 0, sqrt(2)
    ])
    def test_eigenvalue_at_x_is_not_below_it(self, diag, offdiag_sq, x, expected):
        np.testing.assert_array_equal(tridiagonal_counts([diag], [offdiag_sq], x), [expected])

    @PROPERTY
    @given(t=_tridiagonals(), x=st.lists(ENTRY, min_size=1, max_size=12))
    def test_nondecreasing_and_bounded_by_gershgorin(self, t, x):
        diag, offdiag_sq = t
        off = np.sqrt(offdiag_sq)
        radius = np.concatenate([[0.0], off]) + np.concatenate([off, [0.0]])
        low, high = np.min(diag - radius), np.max(diag + radius)
        x = np.sort(np.concatenate([x, [low - 1.0, high + 1.0]]))
        counts = tridiagonal_counts([diag], [offdiag_sq], x)[0]
        assert np.all(np.diff(counts) >= 0)
        assert np.all(counts[x < low - 1e-9] == 0)
        assert np.all(counts[x > high + 1e-9] == len(diag))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tridiagonal_counts(np.zeros((2, 3)), np.zeros((2, 3)), [0.0])
        with pytest.raises(ValueError):
            tridiagonal_counts(np.zeros((1, 2)), [[1.0]], [np.nan])


class TestNcm:
    def test_point_mass_in_range(self):
        hist = ncm(np.zeros(3), [-1.0, 1.0])
        np.testing.assert_array_equal(hist.masses, [1.0])

    def test_all_outside(self):
        hist = ncm(np.array([-3.0, 3.0]), [-1.0, 1.0])
        np.testing.assert_array_equal(hist.masses, [0.0])

    def test_counts_over_n(self):
        hist = ncm(np.array([-0.5, 0.1, 0.2, 3.0]), [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(hist.masses, [0.25, 0.5])

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            ncm(np.zeros(1), [1.0, -1.0])


class TestSemicircleDistance:
    def test_exact_semicircle_masses_give_zero(self):
        edges = np.linspace(-2.5, 2.5, 51)
        masses = np.diff(semicircle_cdf(edges))
        hist = NcmHistogram(edges, masses, 1000)
        assert semicircle_distance(hist) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_at_zero(self):
        edges = np.linspace(-2.5, 2.5, 101)
        hist = ncm(np.zeros(7), edges)
        assert semicircle_distance(hist) >= 0.5

    def test_goe_aggregate_is_close(self):
        eigs = np.sort(np.concatenate([
            np.linalg.eigvalsh(sample_goe(256, RngStream(11, k)))
            for k in range(8)]))
        hist = ncm(eigs, np.linspace(-2.5, 2.5, 101))
        assert semicircle_distance(hist) < 0.05
