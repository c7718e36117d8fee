"""Correctness checks on a run's outputs, made after the timed region.

Every check rests on an exact oracle (oracles.py) or on a property the
method must have; none compares against a stored copy of earlier output.
A check returns (name, passed, detail); passed is None for a line that
reports a figure without asserting it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import oracles
import workloads

# Relative bound of the transfer route against the Gauss-Hermite oracle at
# N=3, per bandwidth; measured 6e-16 at W=1 and up to 1.3e-7 at W=2.
TRANSFER_N3_REL_BOUND = {1.0: 1e-12, 2.0: 1e-6}
# |MC - exact| in standard errors; 5 sigma keeps false alarms below 1e-6
# per point for any seed.
MC_Z_BOUND = 5.0
IMAG_RATIO_BOUND = 1e-6
# Cauchy-Schwarz holds for sample means; allow for rounding in log space.
RATIO_SLACK = 1e-12

_VOLATILE = {"manifest.json"}   # carries a timestamp


def _output_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name not in _VOLATILE}


def check_rounds_identical(outs: list[Path]) -> list[tuple]:
    """Every round ran the same operations on the same inputs: same bytes out."""
    first = _output_files(outs[0])
    differing = [str(o) for o in outs[1:] if _output_files(o) != first]
    return [("outputs_identical_across_rounds", not differing and bool(first),
             f"{len(outs)} rounds, {len(first)} files" + (f", differ: {differing}" if differing else ""))]


def _read_scan(path: Path) -> list[dict]:
    with path.open() as fh:
        return [{k: (v if k == "flag" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_goe(outs: list[Path], seed: int, run_cli) -> list[tuple]:
    rows = _read_scan(outs[0] / "scan" / "scan_f2.csv")
    checks = []
    diag = [r for r in rows if r["xi1"] == r["xi2"]]
    checks.append(("goe_diagonal_row_exact",
                   len(diag) == 1 and diag[0]["ratio"] == 1.0 and diag[0]["stderr"] == 0.0,
                   f"{diag}"))
    finite = [r for r in rows if math.isfinite(r["ratio"])]
    worst = max(abs(r["ratio"]) for r in finite)
    checks.append(("goe_ratio_cauchy_schwarz", worst <= 1.0 + RATIO_SLACK,
                   f"max |ratio| = {worst!r} over {len(finite)} rows"))
    ok_rows = [r for r in rows if r["flag"] != "sign_unresolved"]
    checks.append(("goe_stderr_finite", all(math.isfinite(r["stderr"]) and r["stderr"] >= 0.0
                                            for r in ok_rows),
                   f"{len(ok_rows)} rows not sign_unresolved"))

    # rows must not depend on the worker count; a reduced budget suffices
    csvs = []
    for workers in (1, 2):
        out = outs[0].parent.parent / f"workers{workers}"
        code = run_cli(["scan-f2", "--ensemble", "goe", "--size", str(workloads.GOE_N),
                        "--samples", str(workloads.WORKER_CHECK_SAMPLES),
                        "--xi-diffs", workloads.GOE_XI_DIFFS, "--workers", str(workers),
                        "--seed", str(seed), "--out", str(out)])
        csvs.append((out / "scan_f2.csv").read_bytes() if code == 0 else None)
    checks.append(("goe_rows_independent_of_workers",
                   csvs[0] is not None and csvs[0] == csvs[1],
                   f"{workloads.WORKER_CHECK_SAMPLES} samples, workers 1 vs 2"))

    # exact GOE ratio per row; reported, not asserted: the delta-method error
    # bars at N=256 are known to undercover
    for r in rows:
        l1 = oracles.bulk_energy(0.0, r["xi1"], workloads.GOE_N)
        l2 = oracles.bulk_energy(0.0, r["xi2"], workloads.GOE_N)
        exact = oracles.goe_ratio(l1, l2, workloads.GOE_N)
        z = (r["ratio"] - exact) / r["stderr"] if r["stderr"] > 0 else math.nan
        checks.append((f"goe_exact_xi{r['xi1'] - r['xi2']:g}", None,
                       f"ratio={r['ratio']:.6g} stderr={r['stderr']:.3g} "
                       f"exact={exact:.6g} z={z:.3g} flag={r['flag']}"))
    return checks


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_transfer(outs: list[Path], seed: int, run_cli) -> list[tuple]:
    out = outs[0]
    checks = _check_verify_csv(out / "transfer_check" / "verify.csv", "transfer_check")
    for W, lambda0 in workloads.N3_POINTS:
        tag = f"w{W:g}_l{lambda0:g}"
        exact = oracles.gauss_hermite_f2(lambda0, lambda0, oracles.band_profile(1, W))
        tr = _load(out / f"transfer_n3_{tag}.json")
        rel = abs(tr["f2"] - exact) / abs(exact)
        checks.append((f"transfer_n3_{tag}_vs_gauss_hermite", rel <= TRANSFER_N3_REL_BOUND[W],
                       f"transfer={tr['f2']!r} exact={exact!r} rel={rel:.3g} "
                       f"bound={TRANSFER_N3_REL_BOUND[W]:g} "
                       f"(reported error estimate {tr['error_estimate']:.3g})"))
        mc = _load(out / f"mc_n3_{tag}.json")
        z = abs(mc["value"] - exact) / mc["stderr"]
        checks.append((f"mc_n3_{tag}_vs_gauss_hermite", z <= MC_Z_BOUND,
                       f"mc={mc['value']:.6g} stderr={mc['stderr']:.3g} exact={exact:.6g} "
                       f"|z|={z:.3g}"))
    n33 = _load(out / "transfer_n33.json")
    checks.append(("transfer_n33_sane",
                   n33["f2"] > 0 and n33["converged"] and n33["imag_ratio"] <= IMAG_RATIO_BOUND,
                   f"f2={n33['f2']:.6g} converged={n33['converged']} "
                   f"imag_ratio={n33['imag_ratio']:.3g}"))
    return checks


def _check_verify_csv(path: Path, name: str) -> list[tuple]:
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    failed = [r["check_id"] for r in rows if r["pass"] != "1"]
    return [(f"{name}_rows_pass", bool(rows) and not failed,
             f"{len(rows)} rows" + (f", failed: {failed}" if failed else ""))]


def check_identities(outs: list[Path], seed: int, run_cli) -> list[tuple]:
    checks = []
    for suite in ("hciz", "chain", "reduction"):
        checks += _check_verify_csv(outs[0] / suite / "verify.csv", f"verify_{suite}")
    return checks


CHECKS = {"goe256-serial": check_goe, "transfer": check_transfer,
          "identities": check_identities}


def oracle_self_checks() -> list[tuple]:
    """The two oracles agree where both apply; (b) has the N=1 closed form."""
    checks = []
    for N in (2, 3):
        for l1, l2 in ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0)):
            a = oracles.goe_f2(l1, l2, N)
            b = oracles.gauss_hermite_f2(l1, l2, oracles.goe_profile(N))
            checks.append((f"oracle_goe_n{N}_{l1:g}_{l2:g}", abs(a - b) <= 1e-12 * abs(b),
                           f"recurrence={a!r} gauss_hermite={b!r}"))
    b = oracles.gauss_hermite_f2(0.3, -0.7, oracles.band_profile(0, 2.0))
    checks.append(("oracle_n1_closed_form", abs(b - (0.3 * -0.7 + 2.0)) <= 1e-12,
                   f"gauss_hermite={b!r}"))
    return checks
