"""Per-layer probes: time calls into each module's public functions.

    python3 perfbench/probes.py SEED OUT_JSON

Runs in its own interpreter during a traced run.  Each probe calls public
functions of one layer on the inputs the workloads use (GOE N=256 on the A6
grid, band N=3/9/33, the identity suites' parameters), inside spans of a
Tracer, and turns the span durations into the per-layer metrics listed in
BENCHMARK.json.  Repeated calls report the median.  ``kernels`` is
closed-form scalar code below the timer's resolution and has no probe.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from bandmoments import (ChainParams, HcizParams, LatticeParams, RngStream,  # noqa: E402
                         ScanConfig, SignedAccumulator, TridiagonalOperator,
                         build_kernel, chain_logdet, cli, eigenvalues,
                         estimate_f2, estimate_ratio, mc_hciz_sp2, mc_hciz_u2,
                         neumann_laplacian, reduction_check, sample_goe,
                         scaled_energies, signed_logdet, tail_probability,
                         transfer_evaluate, tridiagonal_logdet, u2_quadrature,
                         variance_profile)

SCAN_SAMPLES = 128
REPEATS = 16
HCIZ_PROBE_DRAWS = 200_000
TAIL_DRAWS = 40_000
SMALL_F2_SAMPLES = 20_000
CLI_SAMPLES = 32


def _timed(tracer: Tracer, name: str, fn, repeats: int = 1) -> float:
    """Median duration of `repeats` spans of fn()."""
    for _ in range(repeats):
        with tracer.span(name):
            fn()
    return statistics.median(tracer.durations(name)[-repeats:])


def _once(tracer: Tracer, name: str, fn):
    """(duration, result) of one span around fn()."""
    with tracer.span(name) as record:
        result = fn()
    return record["end"] - record["start"], result


def _goe_config(seed: int, samples: int, workers: int) -> ScanConfig:
    diffs = (float(d) for d in workloads.GOE_XI_DIFFS.split(","))
    return ScanConfig(lambda0=0.0, xi_pairs=tuple((d / 2, -d / 2) for d in diffs),
                      num_samples=samples, master_seed=seed,
                      goe_size=workloads.GOE_N, workers=workers)


def probe_goe(tracer: Tracer, seed: int, out: Path) -> dict:
    n = workloads.GOE_N
    samples = [sample_goe(n, RngStream(seed, k)) for k in range(REPEATS)]
    k = iter(range(REPEATS))
    sample_ms = 1e3 * _timed(tracer, "ensemble.sample_goe",
                             lambda: sample_goe(n, RngStream(seed, next(k))), REPEATS)
    k = iter(samples)
    eig_ms = 1e3 * _timed(tracer, "spectral.eigenvalues",
                          lambda: eigenvalues(next(k)), REPEATS)
    spectra = [eigenvalues(s) for s in samples]
    config = _goe_config(seed, SCAN_SAMPLES, 1)
    lambdas = sorted({scaled_energies(0.0, x, x, n)[0]
                      for pair in config.xi_pairs for x in pair})

    def all_logdets():
        for spec in spectra:
            for lam in lambdas:
                signed_logdet(spec, lam)

    logdet_us = 1e6 * _timed(tracer, "spectral.signed_logdet", all_logdets) / (
        len(spectra) * len(lambdas))
    scan_s = _timed(tracer, "moments.estimate_ratio[workers=1]",
                    lambda: estimate_ratio(config))
    pooled = _goe_config(seed, SCAN_SAMPLES, 2)
    pool_s = _timed(tracer, "moments.estimate_ratio[workers=2]",
                    lambda: estimate_ratio(pooled))

    # cli.main scan-f2 minus the estimate_ratio call it wraps
    inner = cli.estimate_ratio
    cli.estimate_ratio = tracer.wrap("cli.estimate_ratio", inner)
    try:
        argv = ["scan-f2", "--ensemble", "goe", "--size", str(n),
                "--samples", str(CLI_SAMPLES), "--xi-diffs", workloads.GOE_XI_DIFFS,
                "--workers", "1", "--seed", str(seed), "--out", str(out / "cli_scan")]
        _timed(tracer, "cli.main", lambda: cli.main(argv), 3)
    finally:
        cli.estimate_ratio = inner
    overheads = [outer - wrapped for outer, wrapped in zip(
        tracer.durations("cli.main"), tracer.durations("cli.estimate_ratio"))]
    return {
        "ensemble.sample_goe_ms": sample_ms,
        "spectral.eigenvalues_ms": eig_ms,
        "spectral.signed_logdet_us": logdet_us,
        "moments.scan_s": scan_s,
        "moments.pool_wait_s": pool_s - scan_s / pooled.workers,
        "cli.overhead_s": statistics.median(overheads),
    }


def probe_accumulators(tracer: Tracer, seed: int) -> dict:
    # one stream's block of the transfer-check Monte Carlo (samples / 64 streams)
    block = workloads.TRANSFER_CHECK_SAMPLES // 64
    gen = np.random.default_rng(seed)
    logs = gen.normal(0.0, 3.0, block)
    signs = np.where(gen.random(block) < 0.3, -1, 1).astype(np.int8)
    reps = 200
    acc = SignedAccumulator()
    add_us = 1e6 * _timed(tracer, "moments.SignedAccumulator.add_many",
                          lambda: acc.add_many(signs, logs), reps)
    other = SignedAccumulator()
    other.add_many(signs[::-1], logs[::-1] + 1.0)
    merge_us = 1e6 * _timed(tracer, "moments.SignedAccumulator.merge",
                            lambda: acc.merge(other), reps)
    params = LatticeParams(4, 2.0)
    config = ScanConfig(lambda0=0.0, xi_pairs=((0.0, 0.0),),
                        num_samples=SMALL_F2_SAMPLES, master_seed=seed, lattice=params)
    f2_s = _timed(tracer, "moments.estimate_f2", lambda: estimate_f2(config, 0.0, 0.0))
    return {
        "moments.add_many_us": add_us,
        "moments.merge_us": merge_us,
        "moments.f2_small_ms_per_ksample": 1e3 * f2_s / (SMALL_F2_SAMPLES / 1000),
    }


def probe_transfer(tracer: Tracer) -> dict:
    params = LatticeParams(workloads.N33_HALF_WIDTH, workloads.N33_BANDWIDTH)
    profile_ms = 1e3 * _timed(tracer, "lattice.variance_profile",
                              lambda: variance_profile(params), REPEATS)
    lap = neumann_laplacian(params.N)
    op = TridiagonalOperator(-params.W**2 * lap.diagonal, -params.W**2 * lap.offdiagonal)
    logdet_us = 1e6 * _timed(tracer, "lattice.tridiagonal_logdet",
                             lambda: tridiagonal_logdet(op, 1.0), 200)
    coarse_s, coarse = _once(tracer, "transfer.build_kernel[coarse]",
                             lambda: build_kernel(params, 0.0, 0.0))
    fine_s, fine = _once(tracer, "transfer.build_kernel[fine]",
                         lambda: build_kernel(params, 0.0, 0.0, refine=2.0))
    evaluate_s, _ = _once(tracer, "transfer.transfer_evaluate",
                          lambda: transfer_evaluate(coarse))
    arrays = [v for v in vars(fine).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(fine.grid).values() if isinstance(v, np.ndarray)]
    return {
        "lattice.variance_profile_ms": profile_ms,
        "lattice.tridiagonal_logdet_us": logdet_us,
        "transfer.build_kernel_s": coarse_s + fine_s,
        "transfer.contract_s": evaluate_s - fine_s,
        "transfer.kernel_mib": sum(a.nbytes for a in arrays) / 2**20,
        "transfer.grid_nodes": len(fine.grid.nodes_a),
    }


def probe_identities(tracer: Tracer, seed: int) -> dict:
    gen = np.random.default_rng(seed)
    t, c1, c2, d1, d2 = (complex(*v) for v in gen.uniform(-2, 2, (5, 2)) / math.sqrt(2))
    p = HcizParams(t, c1, c2, d1, d2)
    sp2_s = _timed(tracer, "group_integrals.mc_hciz_sp2",
                   lambda: mc_hciz_sp2(p, HCIZ_PROBE_DRAWS, RngStream(seed, 100)))
    u2_s = _timed(tracer, "group_integrals.mc_hciz_u2",
                  lambda: mc_hciz_u2(p, HCIZ_PROBE_DRAWS, RngStream(seed, 200)))
    quad_ms = 1e3 * _timed(tracer, "group_integrals.u2_quadrature",
                           lambda: u2_quadrature(p), REPEATS)
    draws = workloads.REDUCTION_DRAWS
    red_s = _timed(tracer, "group_integrals.reduction_check",
                   lambda: reduction_check(1.0, 1.5, 0.5, lambda y1, y2: y1 + y2,
                                           draws=draws, rng=RngStream(seed, 0)))
    tail_s = _timed(tracer, "chain.tail_probability",
                    lambda: tail_probability(24, 6.0, 1.0, 0.7, TAIL_DRAWS,
                                             RngStream(seed, 1)))
    cp = ChainParams(64, 8.0, complex(1.0, 1.0))
    chain_us = 1e6 * _timed(tracer, "chain.chain_logdet", lambda: chain_logdet(cp), 200)
    return {
        "group_integrals.mc_hciz_sp2_kdraws_per_s": HCIZ_PROBE_DRAWS / sp2_s / 1e3,
        "group_integrals.mc_hciz_u2_kdraws_per_s": HCIZ_PROBE_DRAWS / u2_s / 1e3,
        "group_integrals.reduction_mdraws_per_s": draws / red_s / 1e6,
        "group_integrals.u2_quadrature_ms": quad_ms,
        "chain.tail_probability_kdraws_per_s": TAIL_DRAWS / tail_s / 1e3,
        "chain.chain_logdet_us": chain_us,
    }


def main() -> int:
    seed, out = int(sys.argv[1]), Path(sys.argv[2])
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    metrics = {}
    metrics.update(probe_goe(tracer, seed, out.parent))
    metrics.update(probe_accumulators(tracer, seed))
    metrics.update(probe_transfer(tracer))
    metrics.update(probe_identities(tracer, seed))
    tracer.dump(out.parent / "probe_spans.json")
    out.write_text(json.dumps(metrics, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
