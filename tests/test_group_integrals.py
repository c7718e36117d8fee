"""HCIZ closed forms, coset samplers, and the eigenvalue reduction identity."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gammaincc
from scipy.stats import ks_2samp

from bandmoments import chain, group_integrals
from bandmoments.chain import sample_chain, tail_probability
from bandmoments.ensemble import RngStream
from bandmoments.group_integrals import (TAYLOR_CUTOFF, HcizParams, _coset_u2_params,
                                         _coset_u2_s, _eigenvalue_pairs, _reduction_reports,
                                         _reduction_sums, _sp2_generic, _sp2_params,
                                         _sp2_s, _sp2_series,
                                         _sp2_weight_inverse_cdf, hciz_sp2,
                                         hciz_u2, mc_hciz_sp2, mc_hciz_u2,
                                         reduction_check, sample_coset_u2,
                                         sample_sp2, u2_quadrature)
from bandmoments.kernels import ds_kernel, rho, saddle_data

ANCHOR = HcizParams(1.0, 1.0, -1.0, 1.0, -1.0)

_SIGMA_HAT = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

# few, derandomized examples: the property tests stay reproducible and fast
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)
BOUNDED = st.complex_numbers(max_magnitude=2.0)
UNIT = st.floats(0.0, 1.0)
PHASE = st.floats(-math.pi, math.pi)


def _random_params(seed, count, min_gap=0.2):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t, c1, c2, d1, d2 = (complex(*v) for v in rng.uniform(-2, 2, (5, 2)) / math.sqrt(2))
        if abs(c1 - c2) > min_gap and abs(d1 - d2) > min_gap:
            out.append(HcizParams(t, c1, c2, d1, d2))
    return out


class TestHcizU2:
    def test_anchor_value(self):
        assert hciz_u2(ANCHOR) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)

    def test_anchor_against_quadrature(self):
        assert u2_quadrature(ANCHOR) == pytest.approx(hciz_u2(ANCHOR), rel=1e-12)

    def test_degenerate_d_limit_path(self):
        p = HcizParams(0.9, 1.2, -0.7, 0.4, 0.4)
        assert hciz_u2(p) == pytest.approx(np.exp(0.9 * (1.2 - 0.7) * 0.4), rel=1e-12)

    def test_degenerate_limit_is_approached_linearly(self):
        base = HcizParams(1.1, 0.9, -0.4, 0.7, 0.7)
        limit = np.exp(base.t * (base.c1 + base.c2) * base.d1)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = HcizParams(base.t, base.c1, base.c2, base.d1 + eps, base.d2)
            gaps.append(abs(hciz_u2(p) - limit))
        assert gaps[0] < 0.1
        assert gaps[1] < 2e-1 * gaps[0]  # shrinks linearly with eps
        assert gaps[2] < 2e-1 * gaps[1]

    def test_zero_scale(self):
        assert hciz_u2(HcizParams(0.0, 1.0, 2.0, 3.0, 4.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", _random_params(10, 6))
    def test_quadrature_agrees(self, p):
        assert abs(u2_quadrature(p) - hciz_u2(p)) <= 1e-8 * abs(hciz_u2(p))

    def test_mc_agrees(self):
        for k, p in enumerate(_random_params(11, 3)):
            mean, se = mc_hciz_u2(p, 200_000, RngStream(20, k))
            assert abs(mean - hciz_u2(p)) <= 4.0 * se


class TestHcizSp2:
    def test_anchor_value(self):
        expected = 3.0 / 16.0 * (math.e**2 + 3.0 * math.exp(-2.0))
        assert hciz_sp2(ANCHOR) == pytest.approx(expected, rel=1e-14)

    def test_zero_scale_taylor_path(self):
        assert hciz_sp2(HcizParams(0.0, 1.0, 2.0, 3.0, 4.0)) == pytest.approx(1.0)

    def test_swap_symmetries(self):
        p = HcizParams(0.8 + 0.2j, 1.1, -0.3, 0.9, -0.6)
        both = HcizParams(p.t, p.c2, p.c1, p.d2, p.d1)
        d_only = HcizParams(p.t, p.c1, p.c2, p.d2, p.d1)
        assert hciz_sp2(both) == hciz_sp2(p)
        assert hciz_sp2(d_only) == pytest.approx(hciz_sp2(p), rel=1e-12)

    def test_taylor_crossover_continuity(self):
        # the generic path's rounding floor is ~12 eps/|tt|^3, so the 1e-9
        # agreement is checked at the implemented crossover
        e1 = 0.4 - 0.3j
        for phase in np.exp(1j * np.linspace(0.0, 6.0, 7)):
            tt = TAYLOR_CUTOFF * phase
            generic = _sp2_generic(e1, e1 - tt, tt)
            taylor = np.exp(e1) * _sp2_series(tt)
            assert abs(generic - taylor) <= 1e-9 * abs(np.exp(e1))

    def test_mc_agrees(self):
        for k, p in enumerate(_random_params(12, 3)):
            mean, se = mc_hciz_sp2(p, 200_000, RngStream(21, k))
            assert abs(mean - hciz_sp2(p)) <= 4.0 * se

    def test_large_tt_expansion(self):
        # the angular factor tends to (6/tt^2)(1 - 2/tt) once e^{-tt} dies
        for tt in (10.0, 50.0):
            scaled = _sp2_generic(0.0, -tt, tt) * tt**2 / 6.0
            bound = 2.0 * math.exp(-tt) * (1.0 + 2.0 / tt) + 1e-14
            assert abs(scaled - (1.0 - 2.0 / tt)) <= bound

    def test_ds_kernel_is_saddle_sp2_integral(self):
        # the GOE pair kernel is the Sp(2) HCIZ at the saddle parameters
        for lambda0, dxi in ((0.0, 1.0), (0.7, 0.5), (1.3, 2.2)):
            sd = saddle_data(lambda0)
            p = HcizParams(-1j / rho(lambda0), sd.a_plus, sd.a_minus,
                           dxi / 2.0, -dxi / 2.0)
            val = hciz_sp2(p)
            assert val.imag == pytest.approx(0.0, abs=1e-12)
            assert val.real == pytest.approx(float(ds_kernel(math.pi * dxi)), abs=1e-12)


def symplectic_defect(p):
    """Max deviation from unitarity and from P sigma_hat P^t = sigma_hat over (..., 4, 4)."""
    pt = np.swapaxes(p, -1, -2)
    unitary = np.max(np.abs(p @ pt.conj() - np.eye(4)))
    sympl = np.max(np.abs(p @ _SIGMA_HAT @ pt - _SIGMA_HAT))
    return float(max(unitary, sympl))


def _sp2_s_v(p):
    # P = V U: |P_12|^2 + |P_13|^2 = |V_12|^2 ((1 - s_U) + s_U)
    return np.abs(p[:, 0, 1]) ** 2 + np.abs(p[:, 0, 2]) ** 2


class TestCosetSamplers:
    def test_u2_matrix_realization(self):
        u = sample_coset_u2(5, RngStream(30))
        assert u.shape == (5, 2, 2)
        np.testing.assert_allclose(u @ np.swapaxes(u.conj(), 1, 2),
                                   np.broadcast_to(np.eye(2), (5, 2, 2)), atol=1e-14)
        # s = |U_12|^2 is the first block of uniforms the sampler draws
        s = RngStream(30).generator().uniform(0.0, 1.0, 5)
        np.testing.assert_allclose(np.abs(u[:, 0, 1]) ** 2, s, atol=1e-14)

    def test_u2_moments(self):
        s = np.abs(sample_coset_u2(200_000, RngStream(31))[:, 0, 1]) ** 2
        for k, expected in ((1, 0.5), (2, 1.0 / 3.0)):
            emp = np.mean(s**k)
            se = np.std(s**k) / math.sqrt(len(s))
            assert abs(emp - expected) < 3.0 * se

    def test_sp2_weight_is_probability_density(self):
        total, _ = quad(lambda s: 3.0 * (1.0 - 2.0 * s) ** 2, 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sp2_weight_moment_vs_quadrature_oracle(self):
        oracle, _ = quad(lambda s: 3.0 * s * (1.0 - 2.0 * s) ** 2, 0.0, 1.0)
        sv = _sp2_s_v(sample_sp2(20_000, RngStream(32)))
        se = np.std(sv) / math.sqrt(len(sv))
        assert abs(np.mean(sv) - oracle) < 3.0 * se

    def test_inverse_cdf_endpoints(self):
        assert _sp2_weight_inverse_cdf(np.array(0.0)) == pytest.approx(0.0)
        assert _sp2_weight_inverse_cdf(np.array(1.0)) == pytest.approx(1.0)
        assert _sp2_weight_inverse_cdf(np.array(0.5)) == pytest.approx(0.5)

    def test_sp2_elements_are_symplectic(self):
        assert symplectic_defect(sample_sp2(10_000, RngStream(33))) < 1e-12

    def test_sp2_factors_match_their_draws(self):
        # s_U, alpha, s_V (inverse CDF), beta: one block of uniforms each
        p = sample_sp2(6, RngStream(34))
        gen = RngStream(34).generator()
        s_u = gen.uniform(0.0, 1.0, 6)
        gen.uniform(-np.pi, np.pi, 6)
        s_v = _sp2_weight_inverse_cdf(gen.uniform(0.0, 1.0, 6))
        np.testing.assert_allclose(_sp2_s_v(p), s_v, atol=1e-14)
        np.testing.assert_allclose(np.abs(p[:, 1, 1]) ** 2, (1.0 - s_u) * (1.0 - s_v),
                                   atol=1e-14)

    def test_sp2_entries_equal_block_product(self):
        # P = V_blk U_blk with the blocks rebuilt from the sampler's uniforms
        p = sample_sp2(1_000, RngStream(35))
        gen = RngStream(35).generator()
        s_u = gen.uniform(0.0, 1.0, 1_000)
        e = np.sqrt(s_u) * np.exp(1j * gen.uniform(-np.pi, np.pi, 1_000))
        s_v = _sp2_weight_inverse_cdf(gen.uniform(0.0, 1.0, 1_000))
        ph = np.exp(1j * gen.uniform(-np.pi, np.pi, 1_000))
        v = np.zeros((1_000, 4, 4), dtype=complex)
        v[:, 0, 0] = v[:, 1, 1] = np.sqrt(1.0 - s_v)
        v[:, 0, 1] = np.sqrt(s_v) * ph
        v[:, 1, 0] = -np.sqrt(s_v) / ph
        v[:, 2:, 2:] = v[:, :2, :2].conj()
        sigma = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = np.zeros((1_000, 4, 4), dtype=complex)
        u[:, :2, :2] = u[:, 2:, 2:] = np.sqrt(1.0 - s_u)[:, None, None] * np.eye(2)
        u[:, :2, 2:] = e[:, None, None] * sigma
        u[:, 2:, :2] = -e.conj()[:, None, None] * sigma
        np.testing.assert_allclose(p, v @ u, rtol=0.0, atol=1e-15)


class TestOneSampler:
    """Each Monte Carlo mean averages its integrand over its group's parameter draws.

    The integrands are read from the coset parameters, exp(E1 - tt s) and
    exp(E1 - tt q); the full-matrix tests pin them, draw by draw, to the
    integrands over the matrices the samplers build from the same draws.
    """

    P = _random_params(13, 1)[0]

    def test_u2_mean_over_sampler_draws(self):
        e1, _, tt = self.P.exponents()
        s, _ = _coset_u2_params(5_000, RngStream(50).generator())
        vals = np.exp(e1 - tt * s)
        mean, se = mc_hciz_u2(self.P, 5_000, RngStream(50))
        assert mean == np.sum(vals) / len(vals)
        assert se == pytest.approx(np.std(vals) / math.sqrt(len(vals)), rel=1e-9)

    def test_sp2_mean_over_sampler_draws(self):
        e1, _, tt = self.P.exponents()
        s_u, _, s_v, _ = _sp2_params(5_000, RngStream(51).generator())
        vals = np.exp(e1 - tt * (s_u + s_v - 2.0 * s_u * s_v))
        mean, se = mc_hciz_sp2(self.P, 5_000, RngStream(51))
        assert mean == np.sum(vals) / len(vals)
        assert se == pytest.approx(np.std(vals) / math.sqrt(len(vals)), rel=1e-9)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_phase_free_draws_equal_sampler_draws(self, bit_generator):
        # the Monte Carlo loops step over the phases: same s, same raw outputs after
        def gens():
            return bit_generator(7), bit_generator(7)

        full, skip = (np.random.Generator(b) for b in gens())
        s, _ = _coset_u2_params(1_001, full)
        np.testing.assert_array_equal(_coset_u2_s(1_001, skip), s)
        np.testing.assert_array_equal(skip.bit_generator.random_raw(4),
                                      full.bit_generator.random_raw(4))
        full, skip = (np.random.Generator(b) for b in gens())
        s_u, _, s_v, _ = _sp2_params(1_001, full)
        for got, want in zip(_sp2_s(1_001, skip), (s_u, s_v)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(skip.bit_generator.random_raw(4),
                                      full.bit_generator.random_raw(4))

    def test_u2_integrand_matches_full_matrix(self):
        c = np.array([self.P.c1, self.P.c2])
        d = np.array([self.P.d1, self.P.d2])
        u = sample_coset_u2(5_000, RngStream(52))
        full = np.exp(self.P.t * np.einsum("k,l,blk->b", c, d, np.abs(u) ** 2))
        e1, _, tt = self.P.exponents()
        s, _ = _coset_u2_params(5_000, RngStream(52).generator())
        np.testing.assert_allclose(np.exp(e1 - tt * s), full, rtol=1e-12, atol=0.0)

    def test_sp2_integrand_matches_full_matrix(self):
        g = np.array([self.P.d1, self.P.d2, self.P.d1, self.P.d2])
        h = np.array([self.P.c1, self.P.c2, self.P.c1, self.P.c2])
        p = sample_sp2(5_000, RngStream(53))
        full = np.exp(0.5 * self.P.t * np.einsum("k,l,blk->b", g, h, np.abs(p) ** 2))
        e1, _, tt = self.P.exponents()
        s_u, _, s_v, _ = _sp2_params(5_000, RngStream(53).generator())
        np.testing.assert_allclose(np.exp(e1 - tt * (s_u + s_v - 2.0 * s_u * s_v)), full,
                                   rtol=1e-12, atol=0.0)


def _coset_u(s, alpha):
    """The U(2) coset element with U_11 = U_22 = sqrt(1 - s) and U_12 = sqrt(s) e^{i alpha}."""
    e = math.sqrt(s) * cmath.exp(1j * alpha)
    return np.array([[math.sqrt(1.0 - s), e], [-e.conjugate(), math.sqrt(1.0 - s)]])


class TestTraceIdentities:
    """The traces in both HCIZ exponents, on matrices built from the coset formulas."""

    @PROPERTY
    @given(p=st.builds(HcizParams, BOUNDED, BOUNDED, BOUNDED, BOUNDED, BOUNDED),
           s=UNIT, alpha=PHASE)
    def test_u2_trace_is_linear_in_s(self, p, s, alpha):
        u = _coset_u(s, alpha)
        e1, _, tt = p.exponents()
        trace = np.trace(np.diag([p.c1, p.c2]) @ u.conj().T @ np.diag([p.d1, p.d2]) @ u)
        assert abs(p.t * trace - (e1 - tt * s)) <= 1e-12

    @PROPERTY
    @given(p=st.builds(HcizParams, BOUNDED, BOUNDED, BOUNDED, BOUNDED, BOUNDED),
           s_u=UNIT, alpha=PHASE, s_v=UNIT, beta=PHASE)
    def test_sp2_trace_is_linear_in_q(self, p, s_u, alpha, s_v, beta):
        # the block form of P = V U in sample_sp2's docstring
        cos_phi, e = math.sqrt(1.0 - s_u), math.sqrt(s_u) * cmath.exp(1j * alpha)
        v = _coset_u(s_v, beta)
        sigma = np.array([[0.0, 1.0], [1.0, 0.0]])
        pm = np.block([[cos_phi * v, e * v @ sigma],
                       [-e.conjugate() * v.conj() @ sigma, cos_phi * v.conj()]])
        g = np.diag([p.d1, p.d2, p.d1, p.d2])
        h = np.diag([p.c1, p.c2, p.c1, p.c2])
        e1, _, tt = p.exponents()
        q = s_u + s_v - 2.0 * s_u * s_v
        assert abs(0.5 * p.t * np.trace(g @ pm.conj().T @ h @ pm) - (e1 - tt * q)) <= 1e-12

    @PROPERTY
    @given(e1=BOUNDED, phase=PHASE)
    def test_sp2_continuous_across_taylor_cutoff(self, e1, phase):
        # t = d1 = 1, d2 = 0 fix E1 = e1 and tt; one value on each side of the seam
        tts = TAYLOR_CUTOFF * cmath.exp(1j * phase) * np.array([1 - 1e-12, 1 + 1e-12])
        sides = [HcizParams(1.0, e1, e1 - tt, 1.0, 0.0) for tt in tts]
        assert [abs(p.exponents()[2]) < TAYLOR_CUTOFF for p in sides] == [True, False]
        series, generic = (hciz_sp2(p) for p in sides)
        assert abs(generic - series) <= 1e-9 * abs(cmath.exp(e1))


class TestReductionCheck:
    def test_constant_observable_recovers_total_mass(self):
        rep = reduction_check(1.3, 1.0, -0.5, lambda y1, y2: np.ones_like(y1),
                              draws=200_000, rng=RngStream(40))
        mass = 2.0 * math.pi**3 / 1.3**3
        assert rep.lhs == pytest.approx(mass, rel=1e-12)
        assert rep.rhs == pytest.approx(mass, rel=1e-12)

    def test_trace_observable(self):
        rep = reduction_check(2.0, 1.0, -0.3, lambda y1, y2: y1 + y2,
                              draws=400_000, rng=RngStream(41))
        assert abs(rep.lhs - rep.rhs) <= 3.0 * rep.lhs_stderr + 1e-9 * abs(rep.rhs)

    def test_gap_squared_observable(self):
        rep = reduction_check(1.0, 1.5, 0.5, lambda y1, y2: (y1 - y2) ** 2,
                              draws=400_000, rng=RngStream(42))
        # analytic mean: (d1-d2)^2 + 10/t, times the Gaussian mass
        mass = 2.0 * math.pi**3
        assert rep.rhs == pytest.approx(mass * ((1.5 - 0.5) ** 2 + 10.0), rel=1e-12)
        assert abs(rep.lhs - rep.rhs) <= 3.0 * rep.lhs_stderr

    def test_observables_share_draws(self, monkeypatch):
        phis = (lambda y1, y2: np.ones_like(y1), lambda y1, y2: y1 + y2,
                lambda y1, y2: (y1 - y2) ** 2)
        # chunks of 70_000 leave a short last chunk
        monkeypatch.setattr(group_integrals, "_REDUCTION_CHUNK", 70_000)
        totals, totals_sq, kept = _reduction_sums(((0.8, 2.0, 0.6),), phis, 300_000,
                                                  RngStream(43))
        reports = _reduction_reports(0.8, 2.0, 0.6, phis, totals[0].tolist(),
                                     totals_sq[0].tolist(), kept)
        assert len(reports) == len(phis)
        for phi, rep in zip(phis, reports):
            assert rep == reduction_check(0.8, 2.0, 0.6, phi, draws=300_000,
                                          rng=RngStream(43))

    @pytest.mark.parametrize("box", [7.0, 1.5], ids=["default-box", "small-box"])
    def test_settings_share_draws(self, monkeypatch, box):
        # each setting's sums give the reports of a one-setting check on the
        # same stream, also when the region drops rows and the last chunk is short
        settings = ((1.0, 1.5, 0.5), (2.0, 1.0, -0.3), (0.8, 2.0, 0.6))
        phis = (lambda y1, y2: np.ones_like(y1), lambda y1, y2: y1 + y2,
                lambda y1, y2: (y1 - y2) ** 2)
        monkeypatch.setattr(group_integrals, "_REDUCTION_CHUNK", 70_000)
        monkeypatch.setattr(group_integrals, "_BOX", box)
        totals, totals_sq, kept = _reduction_sums(settings, phis, 150_000, RngStream(44))
        assert totals.shape == totals_sq.shape == (len(settings), len(phis))
        for si, (t, d1, d2) in enumerate(settings):
            reports = _reduction_reports(t, d1, d2, phis, totals[si].tolist(),
                                         totals_sq[si].tolist(), kept)
            for phi, rep in zip(phis, reports):
                assert rep == reduction_check(t, d1, d2, phi, draws=150_000,
                                              rng=RngStream(44))

    def test_any_setting_is_checked(self):
        with pytest.raises(ValueError, match="d1 != d2"):
            _reduction_sums(((1.0, 1.5, 0.5), (1.0, 0.5, 0.5)), (lambda y1, y2: y1,), 10,
                            RngStream(0))

    def test_rows_outside_the_box_are_dropped(self):
        class Planted:
            def standard_normal(self, shape):
                z = np.tile(np.linspace(-1.0, 1.0, shape[1]), (2, 1))
                z[0, 1] = -7.5          # row 1: z_x beyond the box
                return z

            def standard_exponential(self, shape):
                e = np.full(shape, 0.25)
                e[:, 3] = 49.5          # row 3: t |w|^2 = 99 beyond 2 * 7^2
                return e

        rep = reduction_check(2.0, 1.0, -0.3, lambda y1, y2: y1 + y2, draws=5,
                              rng=Planted())
        kept = np.linspace(-1.0, 1.0, 5)[[0, 2, 4]]
        trace = 1.0 - 0.3 + 2.0 * kept / math.sqrt(2.0)
        assert rep.kept == 3
        assert rep.lhs == pytest.approx(2.0 * math.pi**3 / 8.0 * trace.mean(), rel=1e-14)

    @pytest.mark.parametrize("t,d1,d2", [(1.0, 1.5, 0.5), (0.8, 2.0, 0.6)])
    def test_eigenvalues_follow_the_six_normal_law(self, t, d1, d2):
        # the pairs of six normal coordinates (x, y, Re w1, Im w1, Re w2, Im w2)
        count = 200_000
        z = np.random.default_rng(7).standard_normal((count, 6))
        x, y = d1 + z[:, 0] / math.sqrt(t), d2 + z[:, 1] / math.sqrt(t)
        half_gap = np.sqrt(0.25 * (x - y) ** 2 + np.sum(z[:, 2:] ** 2, axis=1) / (2.0 * t))
        six = (0.5 * (x + y) + half_gap, 0.5 * (x + y) - half_gap)
        z, g, scratch = group_integrals._standard_draws(np.random.default_rng(8), count)
        y1, y2 = pairs = np.empty_like(z)
        _eigenvalue_pairs(z, g, t, d1, d2, pairs, scratch)
        assert ks_2samp(y1, six[0]).pvalue > 1e-3
        assert ks_2samp(y1 - y2, six[0] - six[1]).pvalue > 1e-3

    def test_rejects_degenerate_d(self):
        with pytest.raises(ValueError):
            reduction_check(1.0, 0.5, 0.5, lambda y1, y2: y1, draws=10, rng=RngStream(0))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            reduction_check(0.0, 1.0, -1.0, lambda y1, y2: y1, draws=10, rng=RngStream(0))

    @pytest.mark.parametrize("t,d1,d2,match", [
        # unchecked, t = inf would compare 0 with 0 and pass
        (math.inf, 1.5, 0.5, "t must be positive and finite"),
        (math.nan, 1.5, 0.5, "t must be positive and finite"),
        (1.0, math.nan, 0.5, "d1 and d2 must be finite"),
        (1.0, 1.5, math.inf, "d1 and d2 must be finite"),
        (1.0, -math.inf, 0.5, "d1 and d2 must be finite"),
    ])
    def test_rejects_non_finite_settings(self, t, d1, d2, match):
        with pytest.raises(ValueError, match=match):
            reduction_check(t, d1, d2, lambda y1, y2: y1 * y2, draws=1000, rng=RngStream(0))

    def test_box_leaves_negligible_gaussian_mass(self):
        # z_x and z_y each outside +-_BOX with probability erfc(_BOX / sqrt 2),
        # and t |w|^2 ~ Gamma(2, 1) beyond 2 _BOX^2
        box = group_integrals._BOX
        assert 2.0 * erfc(box / math.sqrt(2.0)) + gammaincc(2.0, 2.0 * box**2) < 1e-10


@pytest.mark.parametrize("run,least", [
    (lambda draws: mc_hciz_u2(ANCHOR, draws, RngStream(0)), 2),
    (lambda draws: mc_hciz_sp2(ANCHOR, draws, RngStream(0)), 2),
    (lambda draws: reduction_check(1.0, 1.0, -1.0, lambda y1, y2: y1, draws, RngStream(0)), 2),
    # a frequency has no error bar to divide by: one draw is a budget
    (lambda draws: tail_probability(8, 2.0, 1.0, 0.5, draws, RngStream(0)), 1),
], ids=["mc_hciz_u2", "mc_hciz_sp2", "reduction_check", "tail_probability"])
@pytest.mark.parametrize("draws", [0, -3, 1])
def test_monte_carlo_rejects_empty_draw_budget(run, least, draws):
    if draws >= least:
        run(draws)
        return
    with pytest.raises(ValueError, match="draws"):
        run(draws)


# complex arguments: the integrands then fill complex buffers, their largest
COMPLEX_ANCHOR = HcizParams(0.7 + 0.4j, 1.0, -1.0 + 0.5j, 1.0, -1.0)
TAIL_SITES = 36


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (run, module, chunk constant, bytes a draw holds while its batch is in hand):
# 8 of s and 16 of complex values in mc_hciz_u2; 16 of (s_U, s_V), 8 and 16
# in mc_hciz_sp2; 32 of normal and exponential variates and 8 of an
# observable's values in reduction_check, and 16 more at several settings for
# the eigenvalue pairs they reuse; one row of the chain in tail_probability,
# for one threshold or several
@pytest.mark.parametrize("run,module,chunk,per_draw", [
    (lambda draws: mc_hciz_u2(COMPLEX_ANCHOR, draws, RngStream(0)),
     group_integrals, "_U2_CHUNK", 24),
    (lambda draws: mc_hciz_sp2(COMPLEX_ANCHOR, draws, RngStream(0)),
     group_integrals, "_SP2_CHUNK", 40),
    (lambda draws: reduction_check(1.0, 1.0, -1.0, lambda y1, y2: (y1 - y2) ** 2,
                                   draws, RngStream(0)),
     group_integrals, "_REDUCTION_CHUNK", 40),
    (lambda draws: _reduction_sums(((1.0, 1.5, 0.5), (2.0, 1.0, -0.3), (0.8, 2.0, 0.6)),
                                   (lambda y1, y2: y1 + y2, lambda y1, y2: (y1 - y2) ** 2),
                                   draws, RngStream(0)),
     group_integrals, "_REDUCTION_CHUNK", 56),
    (lambda draws: tail_probability(TAIL_SITES, 9.0, 1.0, 0.5, draws, RngStream(0)),
     chain, "_TAIL_CHUNK", 8 * TAIL_SITES),
    (lambda draws: tail_probability(TAIL_SITES, 9.0, 1.0, (0.5, 0.7, 0.9), draws,
                                    RngStream(0)),
     chain, "_TAIL_CHUNK", 8 * TAIL_SITES),
], ids=["mc_hciz_u2", "mc_hciz_sp2", "reduction_check", "reduction_settings",
        "tail_probability", "tail_probability_deltas"])
def test_monte_carlo_holds_one_batch(run, module, chunk, per_draw):
    # a loop that kept its last batch while drawing the next would hold two
    size = getattr(module, chunk)
    peaks = [_traced_peak(lambda: run(batches * size)) for batches in (2, 8)]
    assert peaks[1] <= peaks[0] + 2**16
    assert max(peaks) < per_draw * size + 2**20


def _plain_mean(integrand, draw_params, draws, chunk):
    """(mean, stderr) of integrand over seed-0 batches, without buffers reused."""
    gen = RngStream(0).generator()
    total, total_sq = 0.0 + 0.0j, 0.0
    for done in range(0, draws, chunk):
        vals = integrand(*draw_params(min(chunk, draws - done), gen))
        total += np.sum(vals)
        total_sq += float(np.sum(np.abs(vals) ** 2))
    mean = total / draws
    return complex(mean), math.sqrt(max(total_sq / draws - abs(mean) ** 2, 0.0) / draws)


class TestInPlaceIntegrands:
    """The Monte Carlo loops compute in their own buffers, to the last bit."""

    # two full batches and a short one
    CHUNK = 1000
    DRAWS = 2500

    @pytest.mark.parametrize("p", [ANCHOR, COMPLEX_ANCHOR], ids=["real", "complex"])
    def test_u2_equals_plain_expression(self, monkeypatch, p):
        monkeypatch.setattr(group_integrals, "_U2_CHUNK", self.CHUNK)
        e1, _, tt = p.exponents()
        plain = _plain_mean(lambda s, alpha: np.exp(e1 - tt * s), _coset_u2_params,
                            self.DRAWS, self.CHUNK)
        assert mc_hciz_u2(p, self.DRAWS, RngStream(0)) == plain

    @pytest.mark.parametrize("p", [ANCHOR, COMPLEX_ANCHOR], ids=["real", "complex"])
    def test_sp2_equals_plain_expression(self, monkeypatch, p):
        monkeypatch.setattr(group_integrals, "_SP2_CHUNK", self.CHUNK)
        e1, _, tt = p.exponents()
        plain = _plain_mean(
            lambda s_u, alpha, s_v, beta: np.exp(e1 - tt * (s_u + s_v - 2.0 * s_u * s_v)),
            _sp2_params, self.DRAWS, self.CHUNK)
        assert mc_hciz_sp2(p, self.DRAWS, RngStream(0)) == plain

    def test_tail_equals_count_on_plain_abs(self, monkeypatch):
        monkeypatch.setattr(chain, "_TAIL_CHUNK", self.CHUNK)
        gen = RngStream(5).generator()
        exceed = 0
        for done in range(0, self.DRAWS, self.CHUNK):
            x = sample_chain(16, 4.0, 1.0, gen, size=min(self.CHUNK, self.DRAWS - done))
            exceed += int(np.sum(np.max(np.abs(x), axis=1) > 0.6 * 4.0))
        assert 0 < exceed < self.DRAWS
        assert tail_probability(16, 4.0, 1.0, 0.6, self.DRAWS, RngStream(5)) == exceed / self.DRAWS
