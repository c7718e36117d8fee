"""Acceptance criteria A1-A11, each at its stated tolerance.

Every test prints one `A<k> PASS/FAIL` line with the measured numbers before
asserting, so a full run always reports the whole table.  A6-A8 exercise the
Monte Carlo ratio scan at its specified sample budget; det-product
contributions are heavy-tailed there, and the criteria are asserted exactly
as stated (see the "Known-red criteria" section of README.md for the
measured statistics behind any red result).
"""

import math
import time

import numpy as np
import pytest

from bandmoments.cli import (chain_suite, hciz_suite, main, reduction_suite)
from bandmoments.ensemble import RngStream, sample_goe, sample_symmetric
from bandmoments.kernels import saddle_data, saddle_f
from bandmoments.lattice import LatticeParams, variance_profile
from bandmoments.moments import ScanConfig, estimate_ratio
from bandmoments.spectral import ncm, semicircle_distance
from bandmoments.transfer import cross_validate

WORKERS = 2
XI_DIFFS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _scan_rows(ensemble: str, size: int, seed: int = 0, samples: int = 20_000):
    pairs = tuple((d / 2.0, -d / 2.0) for d in XI_DIFFS)
    if ensemble == "goe":
        config = ScanConfig(lambda0=0.0, xi_pairs=pairs, num_samples=samples,
                            master_seed=seed, goe_size=size, workers=WORKERS)
    else:
        n = (size - 1) // 2
        w = float(size) ** 0.75  # W^2 = N^{1.5}, i.e. theta = 0.5
        config = ScanConfig(lambda0=0.0, xi_pairs=pairs, num_samples=samples,
                            master_seed=seed, lattice=LatticeParams(n, w),
                            workers=WORKERS)
    return estimate_ratio(config)


def _max_deviation(rows):
    devs = [abs(r.ratio - r.ds_ref) for r in rows]
    return max(devs), rows[int(np.argmax(devs))]


@pytest.fixture(scope="module")
def band_scans():
    return {size: _scan_rows("band", size) for size in (64, 128, 256)}


def test_a1_hciz_u2_quadrature():
    start = time.time()
    rows = [r for r in hciz_suite(seed=0, sets=20, draws=0)
            if r.check_id.startswith("hciz_u2_quad")]
    elapsed = time.time() - start
    worst = max(r.measured for r in rows)
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _report("A1", ok, f"worst closed-vs-quadrature rel err {worst:.3e} "
                             f"over {len(rows)} sets, {elapsed:.1f}s")


def test_a2_hciz_sp2_monte_carlo():
    start = time.time()
    rows = hciz_suite(seed=0, sets=20, draws=1_000_000)
    elapsed = time.time() - start
    z_rows = [r for r in rows if r.check_id.startswith("hciz_sp2_mc_") and
              "stderr" not in r.check_id]
    se_rows = [r for r in rows if "sp2_mc_stderr" in r.check_id]
    worst_z = max(r.measured for r in z_rows)
    worst_se = max(r.measured for r in se_rows)
    ok = worst_z <= 3.0 and worst_se <= 3e-3 and elapsed < 60.0
    assert _report("A2", ok, f"worst |z| {worst_z:.2f} (<=3), worst rel stderr "
                             f"{worst_se:.2e} (<3e-3), {elapsed:.1f}s")


def test_a3_eigenvalue_reduction():
    start = time.time()
    rows = reduction_suite(seed=0, draws=10_000_000)
    elapsed = time.time() - start
    rel_rows = [r for r in rows if not r.check_id.endswith("stderr_ok")]
    worst = max(r.measured for r in rel_rows)
    ok = worst <= 0.01 and all(r.passed for r in rows) and elapsed < 300.0
    assert _report("A3", ok, f"worst 6-dim-MC vs 2-dim-quadrature rel diff "
                             f"{worst:.2e} (<=1e-2), {elapsed:.1f}s")


def test_a4_gaussian_chain():
    start = time.time()
    rows = {r.check_id: r for r in chain_suite(seed=0, tail_draws=40_000)}
    elapsed = time.time() - start
    dense = rows["chain_logdet_dense_oracle"]
    asym = rows["chain_asymptotic_320_32"]
    shrink = rows["chain_asymptotic_shrinks_with_W"]
    slope = rows["chain_tail_slope_negative"]
    r2 = rows["chain_tail_fit_r2"]
    ok = (dense.measured <= 1e-10 and asym.measured <= 0.05
          and shrink.passed and slope.measured == 1.0 and r2.measured >= 0.9
          and elapsed < 120.0)
    assert _report("A4", ok, f"logdet oracle {dense.measured:.1e} (<=1e-10), "
                             f"sinh rel err {asym.measured:.4f} (<=0.05), "
                             f"tail fit R^2 {r2.measured:.3f} (>=0.9), {elapsed:.1f}s")


def test_a5_transfer_vs_monte_carlo():
    # (N, W) targets; N must be odd (N = 2n+1), so the stated N=8 runs at 9
    start = time.time()
    points = ((0, 2.0), (1, 1.0), (4, 2.0))
    details = []
    ok = True
    for n, w in points:
        for lambda0 in (0.0, 1.0):
            cv = cross_validate(LatticeParams(n, w), lambda0, 0.0,
                                mc_samples=1_000_000, master_seed=0,
                                workers=WORKERS)
            details.append(f"N={2*n+1},W={w:g},l0={lambda0:g}: z={cv.z_score:+.2f}")
            ok = ok and abs(cv.z_score) <= 3.0
            if n == 0:
                exact = cv.lam**2 + 2.0
                sigma = math.hypot(cv.mc_stderr,
                                   cv.transfer.quadrature_error_estimate)
                ok = ok and abs(cv.transfer.f2 - exact) <= 3.0 * sigma
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    assert _report("A5", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_a6_goe_reference_kernel():
    start = time.time()
    rows = _scan_rows("goe", 256)
    elapsed = time.time() - start
    dev, worst_row = _max_deviation(rows)
    at_one = next(r for r in rows if r.xi1 - r.xi2 == 1.0)
    ds_pi = 3.0 / math.pi**2
    bracket = abs(at_one.ratio - ds_pi) <= 3.0 * at_one.stderr
    ok = dev <= 0.10 and bracket and elapsed < 1800.0
    assert _report(
        "A6", ok,
        f"max |ratio-DS| {dev:.3f} at dxi={worst_row.xi1 - worst_row.xi2:g} "
        f"(required <=0.10); at dxi=1: {at_one.ratio:+.3f}+-{at_one.stderr:.3f} "
        f"vs 3/pi^2={ds_pi:.3f} bracket={bracket}; {elapsed:.0f}s")


def test_a7_band_tracks_ds(band_scans):
    dev, worst_row = _max_deviation(band_scans[256])
    ok = dev <= 0.15
    assert _report(
        "A7", ok,
        f"band N=256 W=64: max |ratio-DS| {dev:.3f} at "
        f"dxi={worst_row.xi1 - worst_row.xi2:g} (required <=0.15)")


def test_a8_trend_toward_limit(band_scans):
    devs = {}
    errs = {}
    for size, rows in band_scans.items():
        devs[size], worst = _max_deviation(rows)
        errs[size] = worst.stderr
    ok = True
    for a, b in ((64, 128), (128, 256)):
        combined = math.hypot(errs[a], errs[b])
        ok = ok and devs[b] <= devs[a] + combined
    assert _report(
        "A8", ok,
        "deviation along N: " + ", ".join(
            f"N={s}: {devs[s]:.3f}+-{errs[s]:.3f}" for s in (64, 128, 256))
        + " (nonincreasing within 1 combined stderr)")


def _aggregate_ks(kind: str, size: int, count: int, seed: int) -> float:
    if kind == "band":
        profile = variance_profile(LatticeParams((size - 1) // 2, 64.0))
        draws = [sample_symmetric(profile, 1, RngStream(seed, k))[0] for k in range(count)]
    else:
        draws = [sample_goe(size, RngStream(seed, k)) for k in range(count)]
    eigs = np.sort(np.concatenate([np.linalg.eigvalsh(d) for d in draws]))
    return semicircle_distance(ncm(eigs, np.linspace(-2.5, 2.5, 201)))


def test_a9_semicircle():
    start = time.time()
    ks_goe = _aggregate_ks("goe", 1024, 50, seed=0)
    ks_band = _aggregate_ks("band", 1023, 50, seed=1)  # N odd: 2*511+1
    elapsed = time.time() - start
    ok = ks_goe <= 0.02 and ks_band <= 0.03 and elapsed < 120.0
    assert _report("A9", ok, f"KS GOE {ks_goe:.4f} (<=0.02), band {ks_band:.4f} "
                             f"(<=0.03), {elapsed:.1f}s")


def test_a10_saddle_expansion():
    h = 1e-4
    worst = 0.0
    for lambda0 in (0.0, 0.5, 1.0, 1.5):
        sd = saddle_data(lambda0)
        for a, c in ((sd.a_plus, sd.c_plus), (sd.a_minus, sd.c_minus)):
            fdd = (saddle_f(a + h, lambda0) - 2.0 * saddle_f(a, lambda0)
                   + saddle_f(a - h, lambda0)) / h**2
            worst = max(worst, abs(fdd / 2.0 - c))
    ok = worst <= 1e-6
    assert _report("A10", ok, f"worst |f''(a_pm)/2 - c_pm| = {worst:.2e} (<=1e-6)")


def test_a11_determinism(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        main(["scan-f2", "--ensemble", "goe", "--size", "16", "--samples",
              "500", "--xi-diffs", "0,1,2", "--seed", "5", "--out", str(out)])
        main(["spectrum", "--size", "64", "--samples", "5", "--bins", "40",
              "--seed", "5", "--out", str(out / "spec")])
        main(["verify-hciz", "--sets", "2", "--draws", "20000", "--seed", "5",
              "--out", str(out / "v")])
        outs.append(out)
    same = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in ("scan_f2.csv", "spec/spectrum.csv", "v/verify.csv"))
    assert _report("A11", same, "reruns with identical config/seed/workers "
                                "produce byte-identical CSVs")
