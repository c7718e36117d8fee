"""Moment estimation: accumulators, closed-form anchors, ratio scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandmoments import moments
from bandmoments.ensemble import RngStream, sample_goe_tridiagonal, sample_symmetric
from bandmoments.kernels import ds_kernel, rho
from bandmoments.lattice import LatticeParams, variance_profile
from bandmoments.moments import (ScanConfig, SignedAccumulator, estimate_f2,
                                 estimate_ratio, f2_goe_exact, scaled_energies)
from bandmoments.spectral import tridiagonal_signed_logdets

RNG = np.random.default_rng(2)


class TestScaledEnergies:
    def test_centered_band(self):
        l1, l2 = scaled_energies(0.0, 1.0, -1.0, 100)
        assert l1 == pytest.approx(math.pi / 100.0)
        assert l2 == pytest.approx(-math.pi / 100.0)

    def test_zero_offsets(self):
        assert scaled_energies(0.7, 0.0, 0.0, 10) == (0.7, 0.7)

    def test_direct_substitution(self):
        l1, _ = scaled_energies(1.0, 1.0, 0.0, 100)
        assert l1 == pytest.approx(1.0 + 1.0 / (100.0 * rho(1.0)), rel=1e-14)

    def test_rejects_edge(self):
        with pytest.raises(ValueError):
            scaled_energies(2.0, 0.0, 0.0, 10)


def _random_contributions(count):
    logs = RNG.uniform(-800.0, 700.0, count)
    signs = RNG.choice([-1, 1], count).astype(np.int8)
    return signs, logs


# signed log terms with zero signs and -inf logs (zero terms), plus cut
# points that partition them into consecutive parts, some of them empty
TERM = st.tuples(st.sampled_from([-1, 0, 1]),
                 st.one_of(st.just(-math.inf), st.floats(-700.0, 700.0)))
TERMS = st.lists(TERM, min_size=1, max_size=40)
CUTS = st.lists(st.integers(0, 40), max_size=6)


class TestSignedAccumulator:
    def test_merge_matches_single_pass(self):
        signs, logs = _random_contributions(1000)
        whole = SignedAccumulator()
        whole.add_many(signs, logs)
        for cuts in ([100], [1, 999], [333, 334, 500], list(range(50, 1000, 50))):
            parts = []
            prev = 0
            for c in cuts + [1000]:
                acc = SignedAccumulator()
                acc.add_many(signs[prev:c], logs[prev:c])
                parts.append(acc)
                prev = c
            merged = parts[0]
            for p in parts[1:]:
                merged = merged.merge(p)
            for a, b in ((whole.estimate(), merged.estimate()),):
                assert a.sign == b.sign
                assert a.log_mean_magnitude == pytest.approx(
                    b.log_mean_magnitude, rel=1e-12)
                assert a.relative_stderr == pytest.approx(
                    b.relative_stderr, rel=1e-9)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(terms=TERMS, cuts=CUTS)
    def test_merge_of_any_partition_matches_pooled_add(self, terms, cuts):
        signs, logs = (np.array(column) for column in zip(*terms))
        pooled = SignedAccumulator()
        pooled.add_many(signs, logs)
        bounds = [0, *sorted(min(c, len(terms)) for c in cuts), len(terms)]
        merged = SignedAccumulator()
        for lo, hi in zip(bounds, bounds[1:]):
            part = SignedAccumulator()
            part.add_many(signs[lo:hi], logs[lo:hi])
            merged = merged.merge(part)
        assert merged.count == pooled.count
        # each log sum to rounding; -inf (an empty sum) exactly
        assert merged.log_sums() == pytest.approx(pooled.log_sums(), rel=1e-13, abs=1e-13)

    def test_merge_commutes(self):
        signs, logs = _random_contributions(200)
        a, b = SignedAccumulator(), SignedAccumulator()
        a.add_many(signs[:90], logs[:90])
        b.add_many(signs[90:], logs[90:])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.signed_log_sum() == ba.signed_log_sum()

    def test_extreme_magnitudes_do_not_overflow(self):
        acc = SignedAccumulator()
        acc.add_many(np.array([1, 1, -1]), np.array([5000.0, 4999.0, 5000.5]))
        sign, log_abs = acc.signed_log_sum()
        # exp(5000) + exp(4999) - exp(5000.5) < 0
        assert sign == -1
        assert np.isfinite(log_abs)

    def test_zero_contributions_count_but_add_nothing(self):
        acc = SignedAccumulator()
        acc.add_many(np.array([1, 0, 1]), np.array([0.0, -np.inf, 0.0]))
        est = acc.estimate()
        assert est.count == 3
        assert est.sign == 1
        assert est.log_mean_magnitude == pytest.approx(math.log(2.0 / 3.0))

    def test_unresolved_sign_flagged(self):
        signs = np.tile([1, -1], 500)
        logs = RNG.normal(0.0, 0.1, 1000)
        acc = SignedAccumulator()
        acc.add_many(signs, logs)
        assert not acc.estimate().sign_resolved

    def test_logsumexp_empty(self):
        assert SignedAccumulator().log_sums() == (-math.inf,) * 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nan_and_positive_infinity(self, bad):
        acc = SignedAccumulator()
        with pytest.raises(ValueError):
            acc.add_many(np.array([1, 1, 1]), np.array([0.0, bad, 0.0]))

    def test_rejects_two_dimensional_terms(self):
        signs, logs = _random_contributions(6)
        with pytest.raises(ValueError, match="shape"):
            SignedAccumulator().add_many(signs.reshape(3, 2), logs.reshape(3, 2))


def _hermgauss_expect(fn, sigmas, nodes=24):
    """E[fn(x1..xk)] for independent centered normals via Gauss-Hermite."""
    u, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*[math.sqrt(2.0) * s * u for s in sigmas], indexing="ij")
    weights = np.ones_like(grids[0])
    for axis, _ in enumerate(sigmas):
        shape = [1] * len(sigmas)
        shape[axis] = nodes
        weights = weights * w.reshape(shape)
    return float(np.sum(weights * fn(*grids)) / math.pi ** (len(sigmas) / 2.0))


class TestEstimateF2:
    def _config(self, samples=30_000, seed=0, **kw):
        kw.setdefault("lattice", LatticeParams(0, 1.0))
        return ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),),
                          num_samples=samples, master_seed=seed, **kw)

    def test_single_site_diagonal(self):
        est = estimate_f2(self._config(), 0.0, 0.0)
        assert est.sign == 1
        stderr = est.value * est.relative_stderr
        assert abs(est.value - 2.0) < 3.0 * stderr

    def test_single_site_off_diagonal(self):
        est = estimate_f2(self._config(seed=1), 0.3, -0.4)
        expected = 2.0 + 0.3 * (-0.4)
        assert abs(est.value - expected) < 3.0 * abs(est.value) * est.relative_stderr

    def test_equal_arguments_all_positive(self):
        from bandmoments.moments import _run_scan
        config = self._config(samples=500, seed=2,
                              lattice=LatticeParams(2, 1.0))
        est = estimate_f2(config, 0.4, 0.4)
        assert est.sign == 1
        assert est.sign_resolved
        # every per-sample contribution det^2 is a square: no sign is negative
        streams = _run_scan(config, (0.4,))
        signs = np.concatenate([s for _, s in streams])[:, 0]
        assert len(signs) == 500
        assert np.all(signs * signs >= 0)

    def test_goe_two_by_two_against_quadrature(self):
        lam = 3.0
        oracle = _hermgauss_expect(
            lambda a, b, c: ((lam - a) * (lam - b) - c**2) ** 2,
            sigmas=(1.0, 1.0, math.sqrt(0.5)))
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),),
                            num_samples=40_000, master_seed=3, goe_size=2)
        est = estimate_f2(config, lam, lam)
        assert abs(est.value - oracle) < 3.0 * est.value * est.relative_stderr

    def test_goe_two_by_two_inside_spectrum_signed(self):
        # energies inside the spectrum make det signs fluctuate; the signed
        # pools must still reproduce the exact quadrature value
        l1, l2 = 0.2, -0.3
        oracle = _hermgauss_expect(
            lambda a, b, c: ((l1 - a) * (l1 - b) - c**2)
                            * ((l2 - a) * (l2 - b) - c**2),
            sigmas=(1.0, 1.0, math.sqrt(0.5)))
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),),
                            num_samples=200_000, master_seed=9, goe_size=2)
        est = estimate_f2(config, l1, l2)
        stderr = abs(est.value) * est.relative_stderr
        assert abs(est.value - oracle) < 3.0 * stderr
        assert stderr < 0.05 * abs(oracle)


def _goe_two_by_two(l1, l2):
    """Gauss-Hermite F2 for the GOE at N = 2: H = [[a, c], [c, b]], Var a = Var b = 1."""
    return _hermgauss_expect(
        lambda a, b, c: ((l1 - a) * (l1 - b) - c**2) * ((l2 - a) * (l2 - b) - c**2),
        sigmas=(1.0, 1.0, math.sqrt(0.5)))


class TestF2GoeExact:
    ARGS = [(0.0, 0.0), (0.3, -0.7), (1.0, 1.0), (-1.7, 1.9)]

    @pytest.mark.parametrize("l1,l2", ARGS)
    def test_single_site_closed_form(self, l1, l2):
        sign, log_abs = f2_goe_exact(l1, l2, 1)
        assert sign * math.exp(log_abs) == pytest.approx(l1 * l2 + 2.0, rel=1e-14)

    @pytest.mark.parametrize("l1,l2", ARGS)
    def test_two_by_two_against_quadrature(self, l1, l2):
        sign, log_abs = f2_goe_exact(l1, l2, 2)
        assert sign * math.exp(log_abs) == pytest.approx(_goe_two_by_two(l1, l2), rel=1e-12)

    @pytest.mark.parametrize("N", [3, 16, 256, 4096])
    def test_matches_benchmark_oracle(self, N, oracles):
        for l1, l2 in self.ARGS[:3]:
            sign, log_abs = f2_goe_exact(l1, l2, N)
            ref_sign, ref_log = oracles.goe_log_f2(l1, l2, N)
            assert sign == ref_sign
            assert abs(math.expm1(log_abs - ref_log)) <= 1e-11

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(l1=st.floats(-2.5, 2.5), l2=st.floats(-2.5, 2.5), N=st.integers(1, 512))
    def test_ratio_matches_benchmark_oracle(self, oracles, l1, l2, N):
        # the normalised ratio lies in [-1, 1] (Cauchy-Schwarz), so an absolute
        # bound stays meaningful where F2(l1, l2) itself crosses zero
        s12, g12 = f2_goe_exact(l1, l2, N)
        s11, g11 = f2_goe_exact(l1, l1, N)
        s22, g22 = f2_goe_exact(l2, l2, N)
        assert s11 == s22 == 1
        ratio = s12 * math.exp(g12 - 0.5 * (g11 + g22))
        assert abs(ratio - oracles.goe_ratio(l1, l2, N)) <= 1e-10

    def test_stays_finite_at_large_n(self):
        sign, log_abs = f2_goe_exact(0.1, 0.1, 4096)
        assert sign == 1 and math.isfinite(log_abs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            f2_goe_exact(0.0, 0.0, 0)

    @pytest.mark.parametrize("N", [4, 16])
    @pytest.mark.parametrize("l1,l2", [(0.3, 0.2), (-0.5, -0.5)])
    def test_dumitriu_edelman_estimate_agrees(self, N, l1, l2):
        # the scan's GOE draws against the exact value; seed and budget fixed
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=100_000,
                            master_seed=20, goe_size=N)
        est = estimate_f2(config, l1, l2)
        sign, log_abs = f2_goe_exact(l1, l2, N)
        exact = sign * math.exp(log_abs)
        stderr = abs(est.value) * est.relative_stderr
        assert abs(est.value - exact) < 4.0 * stderr
        assert stderr < 0.2 * abs(exact)


class TestDenseSource:
    """The LU route (up to two energies) against the eigensolve route (three or more)."""

    @staticmethod
    def _both_routes(n, seed, count, lam):
        h = sample_symmetric(variance_profile(LatticeParams(n, 1.5)), count,
                             np.random.default_rng(seed))
        one = moments._dense_logdets(h, np.array([lam]))
        three = moments._dense_logdets(h, np.array([lam, lam + 0.1, lam - 0.2]))
        return one, three

    @pytest.mark.parametrize("energies,route", [(1, "slogdet"), (2, "slogdet"),
                                                (3, "eigvalsh")])
    def test_route_follows_energy_count(self, energies, route, monkeypatch):
        called = []
        for name in ("slogdet", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _name=name, _real=real: called.append(_name) or _real(*a))
        h = sample_symmetric(variance_profile(LatticeParams(1, 1.5)), 5, np.random.default_rng(0))
        moments._dense_logdets(h, np.linspace(0, 1, energies))
        assert set(called) == {route}

    @pytest.mark.parametrize("n", [0, 1, 4])   # N = 1, 3, 9
    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    def test_routes_agree(self, n, lam):
        (log_lu, sign_lu), (log_eig, sign_eig) = self._both_routes(n, 11, 1000, lam)
        assert log_lu.shape == (1000, 1) and sign_lu.dtype == np.int8
        assert sign_eig.dtype == np.int8
        np.testing.assert_array_equal(sign_lu[:, 0], sign_eig[:, 0])
        assert np.max(np.abs(log_lu[:, 0] - log_eig[:, 0])) <= 1e-9

    def test_exact_hit_gives_zero_sign(self):
        # at N=1 the matrix is its one drawn entry, so lam can hit it exactly
        profile = variance_profile(LatticeParams(0, 1.5))
        lam = float(sample_symmetric(profile, 1, np.random.default_rng(12))[0, 0, 0])
        (log_lu, sign_lu), (log_eig, sign_eig) = self._both_routes(0, 12, 1, lam)
        assert (sign_lu[0, 0], log_lu[0, 0]) == (0, -math.inf)
        assert (sign_eig[0, 0], log_eig[0, 0]) == (0, -math.inf)


class TestBlockRunner:
    """Worker blocks pool the substreams' draws; the results must not show it."""

    @staticmethod
    def _streams(workers, samples, streams, **ensemble):
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.5, -0.5), (1.0, -1.0)),
                            num_samples=samples, master_seed=6, num_streams=streams,
                            workers=workers, **ensemble)
        return moments._run_scan(config, (0.4, -0.1, 0.25)), estimate_ratio(config)

    # chunks of 256 GOE (N=256) and 56 band (N=17) samples: 75-sample
    # streams fill them across stream boundaries
    @pytest.mark.parametrize("ensemble",
                             [dict(goe_size=256), dict(lattice=LatticeParams(8, 2.0))],
                             ids=["goe", "band"])
    @pytest.mark.parametrize("samples,streams", [(600, 8), (5, 8)],
                             ids=["pooled", "zero_count_streams"])
    def test_workers_give_byte_equal_results(self, ensemble, samples, streams):
        (serial, rows), *others = [self._streams(w, samples, streams, **ensemble)
                                   for w in (1, 2, 3)]
        assert len(serial) == min(samples, streams)   # one part per non-empty stream
        assert sum(len(logs) for logs, _ in serial) == samples
        for parts, other_rows in others:
            assert len(parts) == len(serial)
            for (logs, signs), (ref_logs, ref_signs) in zip(parts, serial):
                assert logs.tobytes() == ref_logs.tobytes()
                assert signs.tobytes() == ref_signs.tobytes()
            assert repr(other_rows) == repr(rows)      # NaN rows compare too

    def test_goe_streams_draw_in_their_own_batches(self):
        # 300 samples per stream at N=256: a batch of 256, then one of 44
        lambdas = (0.1, -0.35, 0.6)
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=600,
                            master_seed=11, goe_size=256, num_streams=2)
        logs, signs = (np.concatenate(p) for p in zip(*moments._run_scan(config, lambdas)))
        ref = []
        for stream in range(2):
            gen = RngStream(11, stream).generator()
            for size in (256, 44):
                ref.append(tridiagonal_signed_logdets(
                    *sample_goe_tridiagonal(256, size, gen), lambdas))
        assert logs.tobytes() == np.concatenate([r[0] for r in ref]).tobytes()
        assert signs.tobytes() == np.concatenate([r[1] for r in ref]).tobytes()


class TestEstimateRatio:
    def test_diagonal_point_is_exactly_one(self):
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.7, 0.7),),
                            num_samples=300, master_seed=4, goe_size=8)
        row = estimate_ratio(config)[0]
        assert row.ratio == 1.0
        assert row.stderr == 0.0
        assert row.ds_ref == 1.0

    def test_swap_symmetry_exact(self):
        config = ScanConfig(lambda0=0.2, xi_pairs=((0.5, -0.5), (-0.5, 0.5)),
                            num_samples=400, master_seed=5, goe_size=8)
        r1, r2 = estimate_ratio(config)
        assert r1.ratio == r2.ratio
        assert r1.stderr == r2.stderr

    def test_ds_reference_column(self):
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.5, -0.5),),
                            num_samples=200, master_seed=6, goe_size=4)
        row = estimate_ratio(config)[0]
        assert row.ds_ref == pytest.approx(float(ds_kernel(math.pi)), rel=1e-14)

    def test_goe_tracks_ds_at_moderate_size(self):
        # det products are heavy-tailed, so the error bar stays wide at this
        # budget; the contract is statistical consistency, not smallness
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.5, -0.5),),
                            num_samples=6000, master_seed=7, goe_size=64)
        row = estimate_ratio(config)[0]
        assert row.flag in ("ok", "sign_unresolved")
        assert abs(row.ratio) <= 1.0 + 1e-12  # Cauchy-Schwarz bound
        assert abs(row.ratio - row.ds_ref) < max(0.15, 4.0 * row.stderr)

    def test_ratio_matches_exact_finite_size_value(self):
        # at N = 2 the ratio has an exact Gauss-Hermite oracle and the
        # sampling noise is mild, so estimate and error bar are both testable
        xi1, xi2 = 0.2, -0.3
        l1, l2 = scaled_energies(0.0, xi1, xi2, 2)
        sig = (1.0, 1.0, math.sqrt(0.5))

        def det(lam):
            return lambda a, b, c: (lam - a) * (lam - b) - c**2

        f12 = _hermgauss_expect(
            lambda a, b, c: det(l1)(a, b, c) * det(l2)(a, b, c), sig)
        f11 = _hermgauss_expect(lambda a, b, c: det(l1)(a, b, c) ** 2, sig)
        f22 = _hermgauss_expect(lambda a, b, c: det(l2)(a, b, c) ** 2, sig)
        exact = f12 / math.sqrt(f11 * f22)
        config = ScanConfig(lambda0=0.0, xi_pairs=((xi1, xi2),),
                            num_samples=200_000, master_seed=10, goe_size=2)
        row = estimate_ratio(config)[0]
        assert row.stderr < 0.01
        assert abs(row.ratio - exact) < 4.0 * row.stderr

    def test_stderr_is_delta_method_over_samples(self):
        # the error bar, rebuilt in plain floats from the per-sample determinants
        from bandmoments.moments import _run_scan
        xi1, xi2 = 0.2, -0.3
        config = ScanConfig(lambda0=0.0, xi_pairs=((xi1, xi2),), num_samples=5000,
                            master_seed=10, goe_size=2)
        streams = _run_scan(config, scaled_energies(0.0, xi1, xi2, 2))
        logs, signs = (np.concatenate(parts) for parts in zip(*streams))
        d1, d2 = (signs[:, k] * np.exp(logs[:, k]) for k in (0, 1))
        a, b, c = d1 * d2, d1**2, d2**2
        u = a / a.mean() - b / (2.0 * b.mean()) - c / (2.0 * c.mean())
        row = estimate_ratio(config)[0]
        assert row.stderr == pytest.approx(abs(row.ratio) * math.sqrt(np.var(u) / len(u)),
                                           rel=1e-12)

    def test_worker_partition_deterministic(self):
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.5, -0.5), (1.0, -1.0)),
                            num_samples=600, master_seed=8, goe_size=8,
                            num_streams=8)
        serial = estimate_ratio(config)
        parallel = estimate_ratio(
            ScanConfig(lambda0=0.0, xi_pairs=((0.5, -0.5), (1.0, -1.0)),
                       num_samples=600, master_seed=8, goe_size=8,
                       num_streams=8, workers=2))
        for a, b in zip(serial, parallel):
            assert (a.ratio, a.stderr) == (b.ratio, b.stderr)

    @staticmethod
    def _assert_worker_count_exact_at_blas_size(xi_pairs):
        # N=255 factorisations of the dense band source are large enough for
        # OpenBLAS to split over threads.
        configs = [ScanConfig(lambda0=0.0, xi_pairs=xi_pairs, num_samples=16,
                              master_seed=3, lattice=LatticeParams(127, 64.0),
                              num_streams=4, workers=w)
                   for w in (1, 2)]
        serial, parallel = (estimate_ratio(c) for c in configs)
        for a, b in zip(serial, parallel):
            assert (a.ratio, a.stderr) == (b.ratio, b.stderr)

    def test_worker_partition_deterministic_at_blas_size(self):
        # one pair is two energies: the LU route
        self._assert_worker_count_exact_at_blas_size(((0.5, -0.5),))

    def test_worker_partition_deterministic_at_blas_size_eigensolve(self):
        # two pairs are four energies: the eigensolve route
        self._assert_worker_count_exact_at_blas_size(((0.5, -0.5), (1.0, -1.0)))

    def test_single_site_goe_scan(self):
        # N=1 has no off-diagonal: F2 = l1 l2 + 2 from one Gaussian per sample
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0), (0.5, -0.5)),
                            num_samples=500, master_seed=4, goe_size=1)
        diag, off = estimate_ratio(config)
        assert (diag.ratio, diag.stderr) == (1.0, 0.0)
        assert math.isfinite(off.ratio) and abs(off.ratio) <= 1.0 + 1e-12

    def test_sample_source_follows_ensemble(self):
        common = dict(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=4, master_seed=0)
        assert ScanConfig(goe_size=4, **common).sample_source == "dumitriu-edelman"
        assert ScanConfig(lattice=LatticeParams(1, 1.0), **common).sample_source == "dense"

    def test_scan_blas_runs_on_one_thread(self):
        threads = moments._openblas_threads()
        if threads is None:  # no bundled OpenBLAS: the context does nothing
            with moments._one_blas_thread():
                return
        get, _ = threads
        before = get()
        with moments._one_blas_thread():
            assert get() == 1
        assert get() == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(lambda0=2.5, xi_pairs=((0.0, 0.0),), num_samples=10,
                       master_seed=0, goe_size=4)
        with pytest.raises(ValueError):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=10,
                       master_seed=0)
        with pytest.raises(ValueError):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=0,
                       master_seed=0, goe_size=4)
        with pytest.raises(ValueError):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=10,
                       master_seed=0, goe_size=4, num_streams=0)
        with pytest.raises(ValueError):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=10,
                       master_seed=0, goe_size=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("ensemble", [dict(goe_size=4), dict(lattice=LatticeParams(1, 2.0))])
    def test_non_finite_energy_rejected(self, bad, ensemble):
        config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=10,
                            master_seed=0, **ensemble)
        with pytest.raises(ValueError, match="energies must be finite, got"):
            estimate_f2(config, bad, bad)
        with pytest.raises(ValueError, match="energies must be finite, got"):
            estimate_f2(config, 0.1, bad)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"worker count must be at least 1, got {workers}"):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=10,
                       master_seed=0, goe_size=8, workers=workers)

    def test_empty_xi_pairs_rejected(self):
        # an empty scan would return no rows instead of failing
        with pytest.raises(ValueError, match="at least one xi pair"):
            ScanConfig(lambda0=0.0, xi_pairs=(), num_samples=10, master_seed=0, goe_size=8)

    def test_one_sample_rejected(self):
        # one sample has no error bar: every row would read ratio +-1, flag ok
        with pytest.raises(ValueError, match="at least 2, got 1"):
            ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),), num_samples=1,
                       master_seed=0, goe_size=8)
