"""Scalar kernels: semicircle law, DS kernel, saddle data, phase factor."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bandmoments.kernels import (ds_kernel, f_star, log_phase_factor, rho,
                                 saddle_data, saddle_f, semicircle_cdf)


class TestRho:
    def test_center_value(self):
        assert rho(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_edges_vanish(self):
        assert rho(2.0) == 0.0
        assert rho(-2.0) == 0.0
        assert rho(2.5) == 0.0

    def test_normalized(self):
        total, _ = quad(rho, -2.0, 2.0, limit=200)
        assert abs(total - 1.0) < 1e-10

    def test_cdf_anchors_exact(self):
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(0.0) == 0.5
        assert semicircle_cdf(2.0) == 1.0


def _ds_highprec(x: float) -> float:
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        return float(3 * (mpmath.sin(xm) / xm**3 - mpmath.cos(xm) / xm**2))


class TestDsKernel:
    def test_removable_singularity(self):
        assert ds_kernel(0.0) == 1.0

    def test_value_at_pi(self):
        assert ds_kernel(math.pi) == pytest.approx(3.0 / math.pi**2, rel=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 5e-3, 9.9e-3])
    def test_series_matches_high_precision(self, x):
        assert ds_kernel(x) == pytest.approx(_ds_highprec(x), abs=1e-12)

    @pytest.mark.parametrize("x", [1.01e-2, 0.3, 2.0])
    def test_closed_form_matches_high_precision(self, x):
        # the closed form carries ~1/x^2 cancellation near the crossover
        assert ds_kernel(x) == pytest.approx(_ds_highprec(x), abs=1e-10)

    def test_even(self):
        x = np.linspace(-20.0, 20.0, 401)
        np.testing.assert_allclose(ds_kernel(x), ds_kernel(-x), rtol=1e-14, atol=1e-16)

    def test_decay(self):
        x = np.linspace(10.0, 200.0, 500)
        assert np.all(np.abs(ds_kernel(x)) <= 6.0 / x**2)

    @pytest.mark.parametrize("x", [1e78, 1e103, 1e155, 1e308])
    def test_huge_finite_argument(self, x):
        # x^8 in the series overflows from ~1e77, x^3 from ~5.6e102, x^2 from ~1.3e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ds_kernel(x)
            batch = ds_kernel(np.array([0.0, 0.5, -x]))
        assert value == pytest.approx(_ds_highprec(x), rel=1e-12, abs=1e-320)
        assert batch[2] == value and batch[0] == 1.0 and batch[1] == ds_kernel(0.5)


class TestSaddle:
    def test_f_at_one_for_centered_band(self):
        assert saddle_f(1.0, 0.0) == pytest.approx(0.5)

    def test_f_singularity_signaled(self):
        with pytest.raises(ValueError):
            saddle_f(0.0, 0.0)

    @pytest.mark.parametrize("lambda0", [0.0, 1.0])
    def test_f_star_vanishes_at_saddles_and_positive_elsewhere(self, lambda0):
        sd = saddle_data(lambda0)
        assert f_star(sd.a_plus, lambda0) == pytest.approx(0.0, abs=1e-14)
        assert f_star(sd.a_minus, lambda0) == pytest.approx(0.0, abs=1e-14)
        grid = np.linspace(-6.0, 6.0, 1201)
        off = grid[(np.abs(grid - sd.a_plus) > 1e-3) & (np.abs(grid - sd.a_minus) > 1e-3)]
        if lambda0 == 0.0:
            off = off[np.abs(off) > 1e-12]
        assert np.all(f_star(off, lambda0) > 0.0)

    def test_closed_forms_at_zero(self):
        sd = saddle_data(0.0)
        assert (sd.a_plus, sd.a_minus) == (1.0, -1.0)
        assert sd.c_plus == 1.0 + 0.0j
        assert sd.c0 == 0.5

    def test_closed_forms_at_one(self):
        sd = saddle_data(1.0)
        assert sd.a_plus == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
        assert sd.c_plus == pytest.approx(0.75 + 0.4330127018922193j, abs=1e-12)
        assert sd.c_minus == sd.c_plus.conjugate()
        assert sd.c0 == 0.25

    def test_rejects_edge_energy(self):
        with pytest.raises(ValueError):
            saddle_data(2.0)
        with pytest.raises(ValueError):
            saddle_data(-2.5)

    @pytest.mark.parametrize("lambda0", [0.0, 0.5, 1.0, 1.5])
    def test_second_derivative_equals_2c(self, lambda0):
        sd = saddle_data(lambda0)
        h = 1e-4
        for a, c in ((sd.a_plus, sd.c_plus), (sd.a_minus, sd.c_minus)):
            fdd = (saddle_f(a + h, lambda0) - 2.0 * saddle_f(a, lambda0)
                   + saddle_f(a - h, lambda0)) / h**2
            assert abs(fdd - 2.0 * c) < 1e-6

    @pytest.mark.parametrize("lambda0", [0.0, 0.3, 1.0, 1.9, -1.2])
    def test_a_plus_is_pi_rho(self, lambda0):
        sd = saddle_data(lambda0)
        assert abs(sd.a_plus - math.pi * rho(lambda0)) < 1e-14


def phase_factor(xi1, xi2, lambda0, n):
    """C(xi) = exp(lambda0 (xi1+xi2) / 2 rho + (xi1^2+xi2^2) / 2 N rho^2)."""
    return math.exp(log_phase_factor(xi1, xi2, lambda0, n))


class TestPhaseFactor:
    def test_centered_band_reduces_to_quadratic_term(self):
        xi1, xi2, n = 0.8, -1.1, 64
        expected = math.exp(math.pi**2 * (xi1**2 + xi2**2) / (2.0 * n))
        assert phase_factor(xi1, xi2, 0.0, n) == pytest.approx(expected, rel=1e-14)

    def test_zero_arguments(self):
        assert phase_factor(0.0, 0.0, 1.3, 100) == 1.0

    def test_direct_substitution(self):
        lam0, n = 1.0, 100
        r = math.sqrt(3.0) / (2.0 * math.pi)
        expected = math.exp(lam0 * 2.0 / (2.0 * r) + 2.0 / (2.0 * n * r**2))
        assert phase_factor(1.0, 1.0, lam0, n) == pytest.approx(expected, rel=1e-13)
        assert log_phase_factor(1.0, 1.0, lam0, n) == pytest.approx(
            math.log(expected), rel=1e-13)
