"""Workload definitions: the inputs of each workload and the operations of one round.

A round is the unit the benchmark repeats in a fresh interpreter.  Every
round of a workload performs the same operations on the same inputs, which
are fixed by the benchmark seed.  ``build_ops`` imports the program and
builds the inputs (that is the set-up); the returned operations are the timed
work.  Each operation returns whether it succeeded and writes its outputs
under the round's directory, where the checks read them afterwards.

The statistical suites (``transfer-check``, ``verify-*``) assert 3-sigma
z-scores over many rows, so some seeds fail by chance: 40 such rows in
``verify-hciz`` alone give about a 10% false-alarm rate per seed.  Those
suites therefore run at the program's reference seed 0 whatever the
benchmark seed; the benchmark seed drives the GOE scan and the N=3 Monte
Carlo points, whose checks hold for every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("goe256-serial", "transfer", "identities")

SUITE_SEED = 0

# goe256-serial: scan-f2 on the GOE over the A6 grid, one process.
GOE_N = 256
GOE_SAMPLES = 512
GOE_XI_DIFFS = "0,0.5,1,1.5,2,2.5,3"
WORKER_CHECK_SAMPLES = 64      # budget of the --workers 1 vs 2 bit-identity check

# transfer: the transfer-check suite, the N=3 points against the
# Gauss-Hermite oracle, and one transfer-only point at N=33, W=4.
TRANSFER_CHECK_SAMPLES = 100_000
N3_POINTS = ((1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0))   # (W, lambda0)
N3_MC_SAMPLES = 100_000
N33_HALF_WIDTH = 16
N33_BANDWIDTH = 4.0

# identities: the three verify suites at reduced draws.
HCIZ_DRAWS = 200_000
REDUCTION_DRAWS = 2_000_000


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _cli_op(cli, argv: list[str]):
    def run() -> bool:
        return cli.main(argv) == 0
    return run


def _goe_ops(seed: int, out: Path):
    from bandmoments import cli

    argv = ["scan-f2", "--ensemble", "goe", "--size", str(GOE_N),
            "--samples", str(GOE_SAMPLES), "--xi-diffs", GOE_XI_DIFFS,
            "--workers", "1", "--seed", str(seed), "--out", str(out / "scan")]
    return [("scan-f2", _cli_op(cli, argv))]


def _transfer_ops(seed: int, out: Path):
    from bandmoments import (LatticeParams, ScanConfig, build_kernel, cli,
                             estimate_f2, transfer_evaluate)

    def transfer_point(params, lambda0, name):
        def run() -> bool:
            r = transfer_evaluate(build_kernel(params, lambda0, 0.0))
            _write_json(out / f"{name}.json", {
                "W": params.W, "n": params.n, "lambda0": lambda0,
                "f2": r.f2, "imag_ratio": r.imag_ratio,
                "error_estimate": r.quadrature_error_estimate,
                "converged": bool(r.converged)})
            return True
        return run

    def mc_point(config, lam, name):
        def run() -> bool:
            est = estimate_f2(config, lam, lam)
            _write_json(out / f"{name}.json", {
                "W": config.lattice.W, "lambda0": lam, "value": est.value,
                "stderr": abs(est.value) * est.relative_stderr,
                "samples": est.count})
            return True
        return run

    ops = [("transfer-check", _cli_op(cli, [
        "transfer-check", "--seed", str(SUITE_SEED),
        "--samples", str(TRANSFER_CHECK_SAMPLES), "--workers", "1",
        "--out", str(out / "transfer_check")]))]
    for W, lambda0 in N3_POINTS:
        params = LatticeParams(1, W)
        tag = f"w{W:g}_l{lambda0:g}"
        ops.append((f"transfer-n3-{tag}", transfer_point(params, lambda0, f"transfer_n3_{tag}")))
        config = ScanConfig(lambda0=lambda0, xi_pairs=((0.0, 0.0),),
                            num_samples=N3_MC_SAMPLES, master_seed=seed,
                            lattice=params)
        ops.append((f"mc-n3-{tag}", mc_point(config, lambda0, f"mc_n3_{tag}")))
    ops.append(("transfer-n33", transfer_point(
        LatticeParams(N33_HALF_WIDTH, N33_BANDWIDTH), 0.0, "transfer_n33")))
    return ops


def _identity_ops(seed: int, out: Path):
    from bandmoments import cli

    common = ["--seed", str(SUITE_SEED)]
    return [
        ("verify-hciz", _cli_op(cli, ["verify-hciz", *common, "--draws", str(HCIZ_DRAWS),
                                      "--out", str(out / "hciz")])),
        ("verify-chain", _cli_op(cli, ["verify-chain", *common, "--out", str(out / "chain")])),
        ("verify-reduction", _cli_op(cli, ["verify-reduction", *common,
                                           "--draws", str(REDUCTION_DRAWS),
                                           "--out", str(out / "reduction")])),
    ]


def build_ops(workload: str, seed: int, out: Path):
    """Import the program, build the workload's inputs, return its operations."""
    ops_for = {"goe256-serial": _goe_ops, "transfer": _transfer_ops,
               "identities": _identity_ops}
    return ops_for[workload](seed, out)
