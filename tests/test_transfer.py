"""Transfer evaluation of F2 at equal arguments: anchors, oracles, refinement."""

import itertools
import math

import numpy as np
import pytest

from bandmoments import transfer
from bandmoments.group_integrals import HcizParams, hciz_sp2
from bandmoments.kernels import rho
from bandmoments.lattice import LatticeParams
from bandmoments.moments import ScanConfig, estimate_f2, scaled_energies
from bandmoments.transfer import (Grid2D, _apply_bond, _contract, _kernel,
                                  _site_weights, build_kernel, transfer_evaluate)


def _closed_form_couplings(k):
    """gaa and gab straight from the Gaussian, for the kernel's grid."""
    w2 = k.params.W**2
    a, b = k.grid.nodes_a, k.grid.nodes_b
    return (np.exp(-0.5 * w2 * (a[:, None] - a[None, :]) ** 2),
            np.exp(-0.5 * w2 * (a[:, None] - b[None, :]) ** 2))


def _sequential_contract(k):
    """The chain integral bond by bond from site 1 to site N, on complex planes."""
    v = k.site.astype(complex)
    log_scale = 0.0
    for _ in range(k.params.N - 1):
        v = _apply_bond(k, v) * k.site
        scale = float(np.max(np.abs(v)))
        v /= scale
        log_scale += math.log(scale)
    return -complex(np.sum(v)) * math.exp(k.log_prefactor_magnitude + log_scale)


def _dense_bond(k, v):
    """One bond straight from the closed-form couplings, in complex arithmetic."""
    w = k.params.W
    gaa, gab = _closed_form_couplings(k)
    m2 = v * k.inv_d2
    m3 = v * k.inv_d3
    return ((6.0 / w**4) * k.inv_d2 * (gaa @ m2 @ gaa + gab @ m2.T @ gab)
            - (12.0 / w**6) * k.inv_d3 * (gaa @ m3 @ gaa - gab @ m3.T @ gab))


class TestSingleSiteAnchor:
    @pytest.mark.parametrize("lambda0,xi,w", [
        (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 0.7, 2.0),
        (1.0, -0.5, 4.0), (1.5, 0.5, 17.0),
    ])
    def test_matches_closed_form(self, lambda0, xi, w):
        result = transfer_evaluate(build_kernel(LatticeParams(0, w), lambda0, xi))
        lam = lambda0 + xi / rho(lambda0)
        assert result.f2 == pytest.approx(lam**2 + 2.0, rel=1e-6)
        assert result.imag_ratio < 1e-6


class TestGaussHermiteAnchor:
    @pytest.mark.parametrize("lambda0", [0.0, 1.0])
    def test_three_sites_at_w2(self, oracles, lambda0):
        # N=3 against the benchmark's exact Gauss-Hermite value; the grid
        # radius, not its spacing, sets the gap, and it is wide enough that
        # only rounding is left
        result = transfer_evaluate(build_kernel(LatticeParams(1, 2.0), lambda0, 0.0))
        exact = oracles.gauss_hermite_f2(lambda0, lambda0, oracles.band_profile(1, 2.0))
        assert abs(result.f2 - exact) <= 1e-12 * abs(exact)


class TestKernelStructure:
    def test_gaussian_couplings_symmetric(self):
        k = build_kernel(LatticeParams(1, 2.0), 0.3, 0.1)
        gaa = k.gaa
        np.testing.assert_array_equal(gaa, gaa.T)
        # the b-grid is the shifted a-grid, so its coupling is gaa itself
        b = k.grid.nodes_b
        gbb = np.exp(-0.5 * k.params.W**2 * (b[:, None] - b[None, :]) ** 2)
        np.testing.assert_allclose(gbb, gaa, rtol=0.0, atol=1e-14)

    def test_nodes_stay_apart(self):
        k = build_kernel(LatticeParams(1, 1.0), 0.0, 0.0)
        gaps = np.abs(k.grid.nodes_a[:, None] - k.grid.nodes_b[None, :])
        assert gaps.min() == pytest.approx(k.grid.spacing / 2, rel=1e-12)

    def test_radius_covers_saddle_region(self):
        for w in (1.0, 2.0, 4.0):
            k = build_kernel(LatticeParams(2, w), 1.0, 0.0)
            assert k.grid.radius >= math.pi * rho(1.0) + 5.0 / w

    @pytest.mark.parametrize("lambda0,xi", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.5, -0.7)])
    def test_site_real_exactly_at_band_centre(self, lambda0, xi):
        k = build_kernel(LatticeParams(1, 2.0), lambda0, xi)
        assert np.isrealobj(k.site) == (lambda0 == 0.0 and xi == 0.0)

    def test_site_weights_even_for_centered_band(self):
        # w(a, b) = w(-a, -b) at lambda0 = 0, xi = 0
        nodes = np.array([-1.7, -0.6, -0.25, 0.25, 0.6, 1.7])
        grid = Grid2D(nodes, nodes, 1.0, 2.0)
        w = _site_weights(grid, LatticeParams(1, 1.0), 0.0, 0.0)
        np.testing.assert_allclose(w, w[::-1, ::-1], rtol=1e-13, atol=1e-16)

    def test_large_w_coupling_concentrates(self):
        k = build_kernel(LatticeParams(1, 4.0), 0.0, 0.0)
        a = k.grid.nodes_a
        far = np.abs(a[:, None] - a[None, :]) > 1.0
        assert np.max(k.gaa[far]) < 1e-3

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_xi(self, xi):
        # unchecked, such a kernel would evaluate to nan+nanj with only RuntimeWarnings
        with pytest.raises(ValueError, match="xi must be finite"):
            build_kernel(LatticeParams(1, 1.0), 0.0, xi)

    @pytest.mark.parametrize("refine", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_refine_not_positive_and_finite(self, refine):
        with pytest.raises(ValueError, match="refine must be positive and finite"):
            build_kernel(LatticeParams(1, 1.0), 0.0, 0.0, refine=refine)


BOND_POINTS = [(1, 1.0, 0.0, 0.0), (1, 2.0, 1.0, 0.7), (4, 4.0, 1.5, -0.5),
               (16, 4.0, 1.0, 0.7), (1, 8.0, 0.0, 0.5)]


def _assert_factors_rebuild_couplings(k):
    # the bond factors into one-variable couplings: gaa on both grids (they
    # share the spacing) and gab across them
    gaa, gab = _closed_form_couplings(k)
    np.testing.assert_allclose(k.gaa, gaa, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(k.gab, gab, rtol=1e-15, atol=0.0)
    b = k.grid.nodes_b
    gbb = np.exp(-0.5 * k.params.W**2 * (b[:, None] - b[None, :]) ** 2)
    np.testing.assert_allclose(gbb, k.gaa, rtol=0.0, atol=1e-14)


class TestFactoredBond:
    @pytest.mark.parametrize("half_width,w,lambda0,xi", BOND_POINTS)
    @pytest.mark.parametrize("refine", [1.0, 2.0])
    def test_factors_rebuild_couplings(self, half_width, w, lambda0, xi, refine):
        k = build_kernel(LatticeParams(half_width, w), lambda0, xi, refine=refine)
        _assert_factors_rebuild_couplings(k)

    def test_factors_rebuild_couplings_at_large_w(self):
        # N=3, W=16: the couplings' accuracy must not depend on W
        _assert_factors_rebuild_couplings(build_kernel(LatticeParams(1, 16.0), 0.0, 0.0))

    @pytest.mark.parametrize("half_width,w,lambda0,xi", BOND_POINTS)
    def test_matches_dense_bond(self, half_width, w, lambda0, xi):
        k = build_kernel(LatticeParams(half_width, w), lambda0, xi)
        gen = np.random.default_rng(5)
        v = k.site * (gen.standard_normal(k.site.shape) + 1j * gen.standard_normal(k.site.shape))
        # the chain multiplies each bond's output by the site weight at once;
        # that weight's (a-b)^4 cancels the 1/d^3 that turns rounding in
        # either formula into relative noise at the smallest |a - b|
        got = _apply_bond(k, v) * k.site
        want = _dense_bond(k, v) * k.site
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("half_width,w", [(1, 1.0), (4, 4.0), (1, 8.0)])
    def test_real_v_matches_dense_bond(self, half_width, w):
        # at the band centre the site weights, and so v, are real: one plane
        k = build_kernel(LatticeParams(half_width, w), 0.0, 0.0)
        v = k.site * np.random.default_rng(6).standard_normal(k.site.shape)
        got = _apply_bond(k, v) * k.site
        want = _dense_bond(k, v) * k.site
        assert np.isrealobj(got)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDenseKernelOracle:
    def test_contraction_matches_dense_hciz_kernel(self):
        # three-site chain contracted against a dense kernel built entry by
        # entry from the independently validated Sp(2) closed form
        k = build_kernel(LatticeParams(1, 2.0), 0.5, 0.3, refine=0.5)
        w2 = k.params.W**2
        a, b = k.grid.nodes_a, k.grid.nodes_b
        ga, gb = np.meshgrid(a, b, indexing="ij")
        pairs_a = ga.ravel()
        pairs_b = gb.ravel()
        site = k.site.ravel()
        n_pairs = len(pairs_a)
        dense = np.empty((n_pairs, n_pairs), dtype=complex)
        for i in range(n_pairs):
            gauss = np.exp(-0.5 * w2 * (pairs_a[i] ** 2 + pairs_b[i] ** 2
                                        + pairs_a**2 + pairs_b**2))
            vals = np.array([hciz_sp2(HcizParams(w2, pairs_a[i], pairs_b[i],
                                                 pairs_a[q], pairs_b[q]))
                             for q in range(n_pairs)])
            dense[i] = gauss * vals
        # two bonds: site . K . diag(site) . K . site
        chain = complex(site @ (dense @ (site * (dense @ site))))
        expected = -chain * math.exp(k.log_prefactor_magnitude)
        got = _contract(k)
        assert got == pytest.approx(expected, rel=1e-10)


class TestMiddleSiteContraction:
    @pytest.mark.parametrize("half_width", [1, 2, 4, 16])
    @pytest.mark.parametrize("lambda0,xi", [(0.0, 0.0), (1.0, 0.7)])
    def test_matches_sequential_chain(self, half_width, lambda0, xi):
        # (N - 1) / 2 bonds into the middle site against all N - 1 in a row
        k = build_kernel(LatticeParams(half_width, 2.0), lambda0, xi)
        want = _sequential_contract(k)
        assert abs(_contract(k) - want) <= 1e-12 * abs(want)


class TestRefinement:
    def test_cauchy_property(self):
        params = LatticeParams(1, 1.0)
        vals = [_contract(build_kernel(params, 0.0, 0.0, refine=r))
                for r in (0.25, 0.5, 1.0)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d1 > 0
        assert d2 <= d1 / 4.0 or d1 < 1e-12 * abs(vals[2])

    def test_error_estimate_brackets_refinement_gap(self):
        # the value is taken on a radius widened by 1; the estimate adds its
        # gaps to the caller's radius and to 4/3 the spacing on the wide one
        params = LatticeParams(1, 1.0)
        k = build_kernel(params, 0.0, 0.0)
        result = transfer_evaluate(k)
        wide = _contract(_kernel(params, 0.0, 0.0, 1.0, 1.0))
        coarse = _contract(_kernel(params, 0.0, 0.0, 0.75, 1.0))
        assert result.value == wide
        assert result.quadrature_error_estimate == pytest.approx(
            abs(wide - _contract(k)) + abs(wide - coarse))
        assert result.converged

    def test_builds_each_widened_kernel_just_before_its_contraction(self, monkeypatch):
        # one (G, G) kernel set at a time beside the caller's, not three at once
        kernel = build_kernel(LatticeParams(1, 1.0), 0.0, 0.0)
        calls = []

        def record(name, inner):
            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            monkeypatch.setattr(transfer, name, wrapper)

        record("_kernel", transfer._kernel)
        record("_contract", transfer._contract)
        transfer_evaluate(kernel)
        assert calls == ["_contract", "_kernel", "_contract", "_kernel", "_contract"]


HONEST_POINTS = list(itertools.product((1, 3), (1.0, 2.0, 4.0), (0.0, 1.0), (0.0, 0.5)))


class TestHonestErrorEstimate:
    @pytest.mark.parametrize("n,w,lambda0,xi", HONEST_POINTS)
    def test_estimate_bounds_gauss_hermite_gap(self, oracles, n, w, lambda0, xi):
        # the estimate must cover the true error, truncation included; the
        # floor allows for rounding where the estimate itself is rounding
        params = LatticeParams(n // 2, w)
        result = transfer_evaluate(build_kernel(params, lambda0, xi))
        lam = lambda0 + xi / (n * rho(lambda0))
        exact = oracles.gauss_hermite_f2(lam, lam, oracles.band_profile(n // 2, w))
        assert abs(result.f2 - exact) <= max(result.quadrature_error_estimate,
                                             1e-13 * abs(exact))


def _z_against_mc(params, lambda0, xi, samples, seed):
    """(z, result): the transfer value's gap from a Monte Carlo F2(lam, lam) in sigmas."""
    lam = scaled_energies(lambda0, xi, xi, params.N)[0]
    mc = estimate_f2(ScanConfig(lambda0=lambda0, xi_pairs=((xi, xi),), num_samples=samples,
                                master_seed=seed, lattice=params), lam, lam)
    result = transfer_evaluate(build_kernel(params, lambda0, xi))
    sigma = math.hypot(abs(mc.value) * mc.relative_stderr, result.quadrature_error_estimate)
    return (result.f2 - mc.value) / sigma, result


class TestCrossValidate:
    def test_three_site_chain_agrees_with_mc(self):
        z, result = _z_against_mc(LatticeParams(1, 1.0), 0.0, 0.0, 60_000, 17)
        assert abs(z) <= 3.0
        assert result.imag_ratio < 1e-6

    def test_nonzero_xi_agrees_with_mc(self):
        z, _ = _z_against_mc(LatticeParams(1, 1.0), 1.0, 0.8, 60_000, 18)
        assert abs(z) <= 3.0
