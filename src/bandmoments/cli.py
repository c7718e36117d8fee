"""Experiment runner: spectrum scans, moment scans, and identity suites.

Each command declares its config keys and defaults once, in _COMMANDS; the
parser derives one flag per key (half_width -> --half-width), so flags and
file keys are the same set.  Configuration is a flat key = value text file;
command-line flags override file values.  Every run writes a manifest.json
next to its CSVs.
Floats are emitted with 17 significant digits so reruns are byte-comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (ChainParams, chain_log_asymptotic, chain_log_partition,
                    chain_logdet, chain_operator, tail_probability)
from .ensemble import RngStream, sample_goe_tridiagonal, sample_symmetric
from .group_integrals import (TAYLOR_CUTOFF, HcizParams, _check_budget, _reduction_reports,
                              _reduction_sums, hciz_sp2, hciz_u2, mc_hciz_sp2, mc_hciz_u2,
                              u2_quadrature)
from .kernels import semicircle_cdf
from .lattice import LatticeParams, variance_profile
from .moments import (_OPENBLAS, ScanConfig, _f2_from_scan, _run_scan, _threaded_blas,
                      estimate_ratio, scaled_energies)
from .spectral import NcmHistogram, eigenvalues, ncm, semicircle_distance, tridiagonal_counts
from .transfer import build_kernel, transfer_evaluate

__all__ = ["main", "CheckRow"]

_SPECTRUM_SCHEMA = ("bin_left", "bin_right", "mass", "semicircle_mass")
_SCAN_SCHEMA = ("xi1", "xi2", "ratio", "stderr", "ds_ref", "flag")
_VERIFY_SCHEMA = ("check_id", "measured", "reference", "tolerance", "pass")
_ENSEMBLES = ("goe", "band")
# config keys that count something: every run needs at least one
_COUNT_KEYS = ("size", "samples", "bins", "workers", "sets", "draws", "tail_draws")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass(frozen=True)
class CheckRow:
    """One verification line: measured vs reference at a fixed tolerance."""

    check_id: str
    measured: float
    reference: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.reference) <= self.tolerance


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is repeated")
        out[key] = value
    return out


def _parse_int(key: str, raw: str) -> int:
    """An integer, also in float form such as 1e6; non-integral values fail."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ValueError(f"config key {key!r} needs an integer, got {raw!r}")
    return int(value)


def _xi_diffs(raw: str) -> list[float]:
    try:
        diffs = [float(x) for x in raw.split(",")]
        if all(math.isfinite(d) for d in diffs):
            return diffs
    except ValueError:
        pass
    raise ValueError(f"config key 'xi_diffs' needs comma-separated finite floats, got {raw!r}")


def _coerce(key: str, default, raw: str):
    """A file or flag value converted to the type of the key's default."""
    if isinstance(default, int):
        value = _parse_int(key, raw)
        least = 1 if key in _COUNT_KEYS else 0      # a seed or a half-width may be 0
        if value < least:
            raise ValueError(f"config key {key!r} must be at least {least}, got {value}")
        return value
    try:
        value = type(default)(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} needs a {type(default).__name__}, "
                         f"got {raw!r}") from None
    if key == "ensemble" and value not in _ENSEMBLES:
        raise ValueError(f"config key 'ensemble' must be one of {_ENSEMBLES}, got {raw!r}")
    if key == "xi_diffs":
        _xi_diffs(value)
    return value


def _merge(defaults: dict, file_cfg: dict[str, str], args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    flags = {key: getattr(args, key) for key in defaults
             if getattr(args, key) is not None}
    for source in (file_cfg, flags):
        for key, raw in source.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, defaults[key], raw)
    return cfg


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(outdir: Path, command: str, cfg: dict, summary: dict,
                    **environment) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "git": _git_describe(),
        "environment": {"numpy": np.__version__,
                        "openblas_threads": None if _OPENBLAS is None else _OPENBLAS.get(),
                        **environment},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.get("seed"),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "summary": summary,
    }
    # allow_nan=False: a NaN would make the file invalid JSON, so fail instead
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")


def _write_verify(outdir: Path, command: str, cfg: dict, rows: list[CheckRow],
                  summary: dict, environment: dict) -> int:
    _write_csv(outdir / "verify.csv", _VERIFY_SCHEMA,
               [(r.check_id, r.measured, r.reference, r.tolerance, int(r.passed))
                for r in rows])
    failed = [r.check_id for r in rows if not r.passed]
    _write_manifest(outdir, command, cfg,
                    {"checks": len(rows), "failed": failed, **summary}, **environment)
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check_id}: "
              f"measured={r.measured:.6g} reference={r.reference:.6g} "
              f"tol={r.tolerance:.3g}")
    return 1 if failed else 0


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

_SPECTRUM_DEFAULTS = dict(ensemble="goe", size=256, half_width=0, bandwidth=8.0,
                          samples=50, bins=100, seed=0, out="out")


def cmd_spectrum(cfg: dict) -> int:
    streams = [RngStream(cfg["seed"], k) for k in range(cfg["samples"])]
    edges = np.linspace(-2.5, 2.5, cfg["bins"] + 1)
    if cfg["ensemble"] == "goe":
        # Dumitriu-Edelman draws, the GOE eigenvalue law from O(N) entries
        # each, binned by the count of eigenvalues below each edge
        diag, offdiag_sq = (np.concatenate(parts) for parts in zip(
            *(sample_goe_tridiagonal(cfg["size"], 1, stream) for stream in streams)))
        below = tridiagonal_counts(diag, offdiag_sq, edges).sum(axis=0)
        hist = NcmHistogram(edges, np.diff(below) / diag.size, diag.size)
        environment = {}
    else:
        profile = variance_profile(LatticeParams(cfg["half_width"], cfg["bandwidth"]))
        with _threaded_blas(len(profile)) as threads:
            eigs = np.concatenate([eigenvalues(sample_symmetric(profile, 1, stream)[0])
                                   for stream in streams])
        hist = ncm(eigs, edges)
        environment = {"blas_block_threads": threads}
    outdir = _outdir(cfg)
    ks = semicircle_distance(hist)
    sc_mass = np.diff(semicircle_cdf(edges))
    _write_csv(outdir / "spectrum.csv", _SPECTRUM_SCHEMA,
               zip(edges[:-1], edges[1:], hist.masses, sc_mass))
    _write_manifest(outdir, "spectrum", cfg, {"ks_distance": ks}, **environment)
    print(f"ks_distance = {ks:.6f}")
    return 0


# ----------------------------------------------------------------------
# scan-f2
# ----------------------------------------------------------------------

_SCAN_DEFAULTS = dict(ensemble="goe", size=256, half_width=127, bandwidth=64.0,
                      lambda0=0.0, xi_diffs="0,0.5,1,1.5,2,2.5,3",
                      samples=20000, workers=1, seed=0, out="out")


def _scan_config(cfg: dict) -> ScanConfig:
    diffs = _xi_diffs(cfg["xi_diffs"])
    pairs = tuple((d / 2.0, -d / 2.0) for d in diffs)
    common = dict(lambda0=cfg["lambda0"], xi_pairs=pairs,
                  num_samples=cfg["samples"], master_seed=cfg["seed"], workers=cfg["workers"])
    if cfg["ensemble"] == "goe":
        config = ScanConfig(goe_size=cfg["size"], **common)
    else:
        config = ScanConfig(lattice=LatticeParams(cfg["half_width"], cfg["bandwidth"]), **common)
    # a finite but huge difference can still overflow an energy, or pi * d, the
    # argument of the DS reference (which is finite wherever its argument is)
    for d, (xi1, xi2) in zip(diffs, pairs):
        values = (math.pi * d, *scaled_energies(config.lambda0, xi1, xi2, config.N))
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"config key 'xi_diffs' gives a non-finite energy or DS "
                             f"reference at {d!r}")
    return config


def cmd_scan_f2(cfg: dict) -> int:
    config = _scan_config(cfg)
    outdir = _outdir(cfg)
    rows = estimate_ratio(config)
    _write_csv(outdir / "scan_f2.csv", _SCAN_SCHEMA,
               [(r.xi1, r.xi2, r.ratio, r.stderr, r.ds_ref, r.flag) for r in rows])
    # diagonal rows are exactly 1 = DS(0) by construction and say nothing
    devs = [abs(r.ratio - r.ds_ref) for r in rows if r.flag == "ok" and r.xi1 != r.xi2]
    dev = max(devs, default=None)
    _write_manifest(outdir, "scan-f2", cfg,
                    {"max_abs_deviation": dev, "ok_off_diagonal_rows": len(devs)},
                    sample_source=config.sample_source)
    shown = "n/a" if dev is None else f"{dev:.6f}"
    print(f"max |ratio - DS| = {shown} over {len(devs)} ok off-diagonal rows")
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _pool_size(count: int) -> int:
    """Threads for count independent points: one per CPU this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(count, cpus)


def _run_points(points: list) -> list:
    """[point() for point in points], run on _pool_size(len(points)) threads.

    numpy releases the GIL inside its generator fills and ufunc loops, so
    independent Monte Carlo points overlap on the threads.  Each point draws
    from its own stream and keeps its own sums, so the results, returned in
    input order, do not depend on the thread count.  An exception raised by
    a point propagates from here after the points already running finish; the
    points still queued never start.  The threads see the process-wide
    warnings filters, but not an np.errstate set by the caller, which holds
    in the caller's thread only.

    Scans keep their process pool: two threads running their blocks were no
    faster than one thread running them in turn, as numpy's batched slogdet
    keeps the GIL for 500 matrices or fewer (measurements in README.md).
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_pool_size(len(points))) as pool:
        return list(pool.map(lambda point: point(), points))


def _hciz_parameter_sets(seed: int, count: int) -> list[HcizParams]:
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        t, c1, c2, d1, d2 = (complex(*v) for v in rng.uniform(-2, 2, (5, 2)) / math.sqrt(2))
        if abs(c1 - c2) > 0.2 and abs(d1 - d2) > 0.2:
            sets.append(HcizParams(t, c1, c2, d1, d2))
    return sets


def hciz_suite(seed: int, sets: int, draws: int) -> tuple[list[CheckRow], dict, dict]:
    """Closed forms vs quadrature and vs Monte Carlo over both cosets.

    Returns the rows, no summary, and the threads of the 2 * sets Monte Carlo
    points, which run on threads (see _run_points).
    """
    rows = []
    params = _hciz_parameter_sets(seed, sets)
    for k, p in enumerate(params):
        exact = hciz_u2(p)
        rel = abs(u2_quadrature(p) - exact) / abs(exact)
        rows.append(CheckRow(f"hciz_u2_quad_{k:02d}", rel, 0.0, 1e-8))
    points = ([partial(mc_hciz_sp2, p, draws, RngStream(seed, 100 + k))
               for k, p in enumerate(params)]
              + [partial(mc_hciz_u2, p, draws, RngStream(seed, 200 + k))
                 for k, p in enumerate(params)])
    if draws > 0:
        # the 0.3% stderr budget is stated at 1e6 draws; scale for smaller runs
        stderr_tol = 3e-3 * math.sqrt(max(1_000_000 / draws, 1.0))
        results = _run_points(points)
        for k, (p, (mean, se)) in enumerate(zip(params, results[:sets])):
            exact = hciz_sp2(p)
            rows.append(CheckRow(f"hciz_sp2_mc_{k:02d}", abs(mean - exact) / se,
                                 0.0, 3.0))
            rows.append(CheckRow(f"hciz_sp2_mc_stderr_{k:02d}", se / abs(exact),
                                 0.0, stderr_tol))
        for k, (p, (mean, se)) in enumerate(zip(params, results[sets:])):
            rows.append(CheckRow(f"hciz_u2_mc_{k:02d}",
                                 abs(mean - hciz_u2(p)) / se, 0.0, 3.0))
    # Taylor/generic continuity: hciz_sp2 just below and just above the seam,
    # with E1 = e1 and tt = E1 - E2 fixed by t = d1 = 1, d2 = 0
    e1 = 0.3 + 0.1j
    for k, phase in enumerate(np.exp(1j * np.linspace(0.0, 2.0, 4))):
        series, generic = (hciz_sp2(HcizParams(1.0, e1, e1 - tt, 1.0, 0.0))
                           for tt in TAYLOR_CUTOFF * phase * np.array([1 - 1e-12, 1 + 1e-12]))
        rows.append(CheckRow(f"sp2_taylor_crossover_{k}",
                             abs(generic - series) / abs(np.exp(e1)), 0.0, 1e-9))
    # degenerate d1 -> d2 limit of the U(2) form
    base = HcizParams(1.1, 0.9, -0.4, 0.7, 0.7)
    limit = np.exp(base.t * (base.c1 + base.c2) * base.d1)
    for k, eps in enumerate((1e-4, 1e-5, 1e-6)):
        p = HcizParams(base.t, base.c1, base.c2, base.d1 + eps, base.d2)
        rows.append(CheckRow(f"hciz_u2_degenerate_{k}",
                             abs(hciz_u2(p) - limit), 0.0, 10.0 * eps))
    return rows, {}, {"pool_threads": _pool_size(len(points))}


_TAIL_WIDTHS = (4.0, 6.0, 9.0)
_TAIL_DELTAS = (0.5, 0.7, 0.9)


def chain_suite(seed: int, tail_draws: int) -> tuple[list[CheckRow], dict, dict]:
    """Determinant oracle, sinh asymptotics, and tail-decay regression.

    Returns the rows, no summary, and the threads of the tail regression,
    whose three W run on threads (see _run_points).
    """
    rows = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        for _ in range(4):
            gamma = complex(rng.uniform(0.05, 4.0), rng.uniform(-4.0, 4.0))
            p = ChainParams(m, rng.uniform(0.5, 16.0), gamma)
            eigs = np.linalg.eigvalsh(chain_operator(m).dense())
            oracle = complex(np.sum(np.log(eigs.astype(complex) + p.shift)))
            worst = max(worst, abs(chain_logdet(p) - oracle) / abs(oracle))
    rows.append(CheckRow("chain_logdet_dense_oracle", worst, 0.0, 1e-10))

    def rel_asym(m: int, w: float) -> float:
        p = ChainParams(m, w, 1.0)
        return abs(np.exp(chain_log_asymptotic(p) - chain_log_partition(p)) - 1.0)

    rows.append(CheckRow("chain_asymptotic_320_32", rel_asym(320, 32.0), 0.0, 0.05))
    errors = [rel_asym(10 * w, float(w)) for w in (8, 16, 32, 64)]
    shrinking = all(b < a for a, b in zip(errors, errors[1:]))
    rows.append(CheckRow("chain_asymptotic_shrinks_with_W", float(not shrinking), 0.0, 0.5))

    # tail frequencies: log-freq against delta^2 W must fit a negative slope.
    # The thresholds of one W share its chains; the W run on threads.
    tails = [partial(tail_probability, int(4 * w), w, 1.0, _TAIL_DELTAS, tail_draws,
                     RngStream(seed, int(w * 10 + 50))) for w in _TAIL_WIDTHS]
    points = [(delta**2 * w, math.log(freq))
              for w, freqs in zip(_TAIL_WIDTHS, _run_points(tails))
              for delta, freq in zip(_TAIL_DELTAS, freqs) if 0.0 < freq < 0.95]
    if len(points) < 2:  # nothing to fit: both tail rows fail
        slope = r2 = math.nan
    else:
        x, y = np.array(points).T
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)
    rows.append(CheckRow("chain_tail_slope_negative", float(slope < 0.0), 1.0, 0.5))
    rows.append(CheckRow("chain_tail_fit_r2", float(r2), 1.0, 0.1))
    return rows, {}, {"pool_threads": _pool_size(len(tails))}


_REDUCTION_SETTINGS = ((1.0, 1.5, 0.5), (2.0, 1.0, -0.3), (0.8, 2.0, 0.6))

_REDUCTION_PHIS = (
    ("one", lambda y1, y2: np.ones_like(y1)),
    ("sum_sq", lambda y1, y2: y1**2 + y2**2),
    ("gap_sq", lambda y1, y2: (y1 - y2) ** 2),
)


# substreams of verify-reduction: its draws are split over them whatever the
# thread count, so its rows do not depend on it
_REDUCTION_STREAMS = 4


def reduction_suite(seed: int, draws: int) -> tuple[list[CheckRow], dict, dict]:
    """6-dim MC vs 2-dim reduced quadrature for polynomial observables.

    Every setting and observable shares one set of draws, split over
    _REDUCTION_STREAMS substreams that run on threads (see _run_points).
    Returns the rows, a summary of the substreams and the truncation, and
    the threads.
    """
    _check_budget(draws)
    names, phis = zip(*_REDUCTION_PHIS)
    base, extra = divmod(draws, _REDUCTION_STREAMS)
    points = [partial(_reduction_sums, _REDUCTION_SETTINGS, phis, base + (k < extra),
                      RngStream(seed, k)) for k in range(min(draws, _REDUCTION_STREAMS))]
    # the substreams' sums, added in stream order
    totals, totals_sq, kept = (sum(part) for part in zip(*_run_points(points)))
    rows, truncation = [], []
    for si, (t, d1, d2) in enumerate(_REDUCTION_SETTINGS):
        reports = _reduction_reports(t, d1, d2, phis, totals[si].tolist(),
                                     totals_sq[si].tolist(), kept)
        for name, rep in zip(names, reports):
            rows.append(CheckRow(f"reduction_t{si}_{name}", rep.relative_difference,
                                 0.0, 0.01))
            rows.append(CheckRow(f"reduction_t{si}_{name}_stderr_ok",
                                 float(rep.stderr_ok), 1.0, 0.5))
        truncation.append({"setting": f"t{si}", "t": t, "d1": d1, "d2": d2,
                           "kept": kept, "dropped": draws - kept})
    return (rows, {"substreams": len(points), "truncation": truncation},
            {"pool_threads": _pool_size(len(points))})


_TRANSFER_POINTS = ((0, 1.0), (1, 1.0), (4, 2.0))


def transfer_suite(seed: int, samples: int, workers: int) -> tuple[list[CheckRow], dict, dict]:
    """Transfer evaluation vs Monte Carlo at small (N, W), both lambda0, at xi = 0.

    One Monte Carlo scan of each (n, W) point's draws serves both lambda0:
    at one or two energies a scan factors every draw by LU at each energy on
    its own, so each estimate is bit-identical to estimate_f2's at that
    energy alone.  z = (transfer - MC) / sigma, with sigma = hypot(MC
    stderr, quadrature error estimate); at N = 1 the transfer value is also
    held to the closed form lam^2 + 2 within 3 sigma.  Returns the rows, no
    summary and no environment: the grids are too small for a threaded
    block (see moments._threaded_blas).
    """
    rows = []
    lambda0s = (0.0, 1.0)   # at xi = 0 the energies are the lambda0 themselves
    for n, w in _TRANSFER_POINTS:
        params = LatticeParams(n, w)
        config = ScanConfig(lambda0=lambda0s[0], xi_pairs=((0.0, 0.0),), num_samples=samples,
                            master_seed=seed, lattice=params, workers=workers)
        mcs = _f2_from_scan(_run_scan(config, lambda0s), [(0, 0), (1, 1)])
        for lam, mc in zip(lambda0s, mcs):
            result = transfer_evaluate(build_kernel(params, lam, 0.0))
            sigma = math.hypot(abs(mc.value) * mc.relative_stderr,
                               result.quadrature_error_estimate)
            z = (result.f2 - mc.value) / sigma if sigma > 0 else math.inf
            tag = f"n{n}_w{w:g}_l{lam:g}"
            rows.append(CheckRow(f"transfer_mc_{tag}", z, 0.0, 3.0))
            rows.append(CheckRow(f"transfer_imag_{tag}", result.imag_ratio, 0.0, 1e-6))
            if n == 0:
                rows.append(CheckRow(f"transfer_n1_closed_form_l{lam:g}",
                                     abs(result.f2 - (lam**2 + 2.0)), 0.0, 3.0 * sigma))
    return rows, {}, {}


def _run_suite(command: str, cfg: dict) -> int:
    """Call the command's suite with its config keys, except out, as arguments."""
    suite = _SUITES[command][0]
    rows, summary, environment = suite(**{key: value for key, value in cfg.items()
                                          if key != "out"})
    return _write_verify(_outdir(cfg), command, cfg, rows, summary, environment)


def cmd_report(cfg: dict) -> int:
    """Run every suite plus a small spectrum and scan into one directory."""
    out = Path(cfg["out"])
    status = cmd_spectrum(dict(_SPECTRUM_DEFAULTS, seed=cfg["seed"], out=str(out / "spectrum")))
    status |= cmd_scan_f2(dict(_SCAN_DEFAULTS, size=64, samples=2000, workers=cfg["workers"],
                               seed=cfg["seed"], out=str(out / "scan_f2")))
    for command, (_, _, defaults) in _SUITES.items():
        sub = {key: cfg[key] for key in defaults}
        sub["out"] = str(out / command.replace("-", "_"))
        status |= _run_suite(command, sub)
    _write_manifest(_outdir(cfg), "report", cfg, {"status": status})
    return status


# ----------------------------------------------------------------------
# commands and argument parsing
# ----------------------------------------------------------------------

# name -> (function, help, defaults); the defaults declare each command's
# config keys, their types and the flags the parser offers.  A suite's
# function returns its check rows and two dicts for the manifest: extra
# summary and extra environment.
_SUITES = {
    "verify-hciz": (hciz_suite, "group integral identities",
                    dict(seed=0, sets=20, draws=1_000_000, out="out")),
    "verify-chain": (chain_suite, "chain determinant and tails",
                     dict(seed=0, tail_draws=40_000, out="out")),
    "verify-reduction": (reduction_suite, "6-dim vs 2-dim reduction",
                         dict(seed=0, draws=1_000_000, out="out")),
    "transfer-check": (transfer_suite, "transfer vs Monte Carlo",
                       dict(seed=0, samples=400_000, workers=1, out="out")),
}

_COMMANDS = {
    "spectrum": (cmd_spectrum, "aggregate NCM histogram vs semicircle", _SPECTRUM_DEFAULTS),
    "scan-f2": (cmd_scan_f2, "scan the normalized second moment vs DS", _SCAN_DEFAULTS),
    **_SUITES,
    "report": (cmd_report, "run every suite",
               {key: value for _, _, defaults in _SUITES.values()
                for key, value in defaults.items()}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandmoments",
        description="band-matrix characteristic-polynomial moment experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, defaults) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="key = value config file")
        for key, default in defaults.items():
            sub.add_argument("--" + key.replace("_", "-"), help=f"default: {default}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fn, _, defaults = _COMMANDS[args.command]
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = _merge(defaults, file_cfg, args)
    if args.command in _SUITES:
        return _run_suite(args.command, cfg)
    return fn(cfg)


if __name__ == "__main__":
    sys.exit(main())
