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
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .chain import (ChainParams, chain_log_asymptotic, chain_log_partition,
                    chain_logdet, chain_operator, tail_probability)
from .ensemble import RngStream, goe_profile, sample_symmetric
from .group_integrals import (TAYLOR_CUTOFF, HcizParams, hciz_sp2, hciz_u2,
                              mc_hciz_sp2, mc_hciz_u2, reduction_check,
                              u2_quadrature)
from .kernels import semicircle_cdf
from .lattice import LatticeParams, variance_profile
from .moments import (_SCAN_BLAS_THREADS, ScanConfig, _openblas_threads,
                      estimate_ratio)
from .spectral import eigenvalues, ncm, semicircle_distance
from .transfer import cross_validate

__all__ = ["main", "CheckRow"]

_SPECTRUM_SCHEMA = ("bin_left", "bin_right", "mass", "semicircle_mass")
_SCAN_SCHEMA = ("xi1", "xi2", "ratio", "stderr", "ds_ref", "flag")
_VERIFY_SCHEMA = ("check_id", "measured", "reference", "tolerance", "pass")
_ENSEMBLES = ("goe", "band")
# config keys that count something: every run needs at least one
_COUNT_KEYS = ("size", "samples", "bins", "streams", "workers", "sets", "draws", "tail_draws")


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
        return [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"config key 'xi_diffs' needs comma-separated floats, "
                         f"got {raw!r}") from None


def _coerce(key: str, default, raw: str):
    """A file or flag value converted to the type of the key's default."""
    if isinstance(default, int):
        value = _parse_int(key, raw)
        if key in _COUNT_KEYS and value < 1:
            raise ValueError(f"config key {key!r} must be at least 1, got {value}")
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
    threads = _openblas_threads()
    manifest = {
        "command": command,
        "version": __version__,
        "git": _git_describe(),
        "environment": {"numpy": np.__version__, "scipy": scipy.__version__,
                        "openblas_threads": None if threads is None else threads[0](),
                        **environment},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.get("seed"),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "summary": summary,
    }
    # allow_nan=False: a NaN would make the file invalid JSON, so fail instead
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")


def _write_verify(outdir: Path, command: str, cfg: dict, rows: list[CheckRow]) -> int:
    _write_csv(outdir / "verify.csv", _VERIFY_SCHEMA,
               [(r.check_id, r.measured, r.reference, r.tolerance, int(r.passed))
                for r in rows])
    failed = [r.check_id for r in rows if not r.passed]
    _write_manifest(outdir, command, cfg,
                    {"checks": len(rows), "failed": failed})
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
    outdir = _outdir(cfg)
    if cfg["ensemble"] == "goe":
        profile = goe_profile(cfg["size"])
    else:
        profile = variance_profile(LatticeParams(cfg["half_width"], cfg["bandwidth"]))
    eigs = np.concatenate([eigenvalues(sample_symmetric(profile, 1, RngStream(cfg["seed"], k))[0])
                           for k in range(cfg["samples"])])
    edges = np.linspace(-2.5, 2.5, cfg["bins"] + 1)
    hist = ncm(eigs, edges)
    ks = semicircle_distance(hist)
    sc_mass = np.diff(semicircle_cdf(edges))
    _write_csv(outdir / "spectrum.csv", _SPECTRUM_SCHEMA,
               [(edges[i], edges[i + 1], hist.masses[i], sc_mass[i])
                for i in range(len(hist.masses))])
    _write_manifest(outdir, "spectrum", cfg, {"ks_distance": ks})
    print(f"ks_distance = {ks:.6f}")
    return 0


# ----------------------------------------------------------------------
# scan-f2
# ----------------------------------------------------------------------

_SCAN_DEFAULTS = dict(ensemble="goe", size=256, half_width=127, bandwidth=64.0,
                      lambda0=0.0, xi_diffs="0,0.5,1,1.5,2,2.5,3",
                      samples=20000, streams=64, workers=1, seed=0, out="out")


def _scan_config(cfg: dict) -> ScanConfig:
    pairs = tuple((d / 2.0, -d / 2.0) for d in _xi_diffs(cfg["xi_diffs"]))
    common = dict(lambda0=cfg["lambda0"], xi_pairs=pairs,
                  num_samples=cfg["samples"], master_seed=cfg["seed"],
                  num_streams=cfg["streams"], workers=cfg["workers"])
    if cfg["ensemble"] == "goe":
        return ScanConfig(goe_size=cfg["size"], **common)
    return ScanConfig(lattice=LatticeParams(cfg["half_width"], cfg["bandwidth"]), **common)


def cmd_scan_f2(cfg: dict) -> int:
    outdir = _outdir(cfg)
    config = _scan_config(cfg)
    rows = estimate_ratio(config)
    _write_csv(outdir / "scan_f2.csv", _SCAN_SCHEMA,
               [(r.xi1, r.xi2, r.ratio, r.stderr, r.ds_ref, r.flag) for r in rows])
    # diagonal rows are exactly 1 = DS(0) by construction and say nothing
    devs = [abs(r.ratio - r.ds_ref) for r in rows if r.flag == "ok" and r.xi1 != r.xi2]
    dev = max(devs, default=None)
    environment = {"sample_source": config.sample_source}
    if config.sample_source == "dense":
        environment["scan_blas_threads"] = (None if _openblas_threads() is None
                                            else _SCAN_BLAS_THREADS)
    _write_manifest(outdir, "scan-f2", cfg,
                    {"max_abs_deviation": dev, "ok_off_diagonal_rows": len(devs)},
                    **environment)
    shown = "n/a" if dev is None else f"{dev:.6f}"
    print(f"max |ratio - DS| = {shown} over {len(devs)} ok off-diagonal rows")
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _hciz_parameter_sets(seed: int, count: int) -> list[HcizParams]:
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        t, c1, c2, d1, d2 = (complex(*v) for v in rng.uniform(-2, 2, (5, 2)) / math.sqrt(2))
        if abs(c1 - c2) > 0.2 and abs(d1 - d2) > 0.2:
            sets.append(HcizParams(t, c1, c2, d1, d2))
    return sets


def hciz_suite(seed: int, sets: int, draws: int) -> list[CheckRow]:
    """Closed forms vs quadrature and vs Monte Carlo over both cosets."""
    rows = []
    params = _hciz_parameter_sets(seed, sets)
    for k, p in enumerate(params):
        exact = hciz_u2(p)
        rel = abs(u2_quadrature(p) - exact) / abs(exact)
        rows.append(CheckRow(f"hciz_u2_quad_{k:02d}", rel, 0.0, 1e-8))
    if draws > 0:
        # the 0.3% stderr budget is stated at 1e6 draws; scale for smaller runs
        stderr_tol = 3e-3 * math.sqrt(max(1_000_000 / draws, 1.0))
        for k, p in enumerate(params):
            exact = hciz_sp2(p)
            mean, se = mc_hciz_sp2(p, draws, RngStream(seed, 100 + k))
            rows.append(CheckRow(f"hciz_sp2_mc_{k:02d}", abs(mean - exact) / se,
                                 0.0, 3.0))
            rows.append(CheckRow(f"hciz_sp2_mc_stderr_{k:02d}", se / abs(exact),
                                 0.0, stderr_tol))
        for k, p in enumerate(params):
            mean, se = mc_hciz_u2(p, draws, RngStream(seed, 200 + k))
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
    return rows


def chain_suite(seed: int, tail_draws: int) -> list[CheckRow]:
    """Determinant oracle, sinh asymptotics, and tail-decay regression."""
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

    # tail frequencies: log-freq against delta^2 W must fit a negative slope
    points = []
    for w in (4.0, 6.0, 9.0):
        for delta in (0.5, 0.7, 0.9):
            freq = tail_probability(int(4 * w), w, 1.0, delta, tail_draws,
                                    RngStream(seed, int(w * 10 + delta * 100)))
            if 0.0 < freq < 0.95:
                points.append((delta**2 * w, math.log(freq)))
    if len(points) < 2:  # nothing to fit: both tail rows fail
        slope = r2 = math.nan
    else:
        x, y = np.array(points).T
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)
    rows.append(CheckRow("chain_tail_slope_negative", float(slope < 0.0), 1.0, 0.5))
    rows.append(CheckRow("chain_tail_fit_r2", float(r2), 1.0, 0.1))
    return rows


_REDUCTION_SETTINGS = ((1.0, 1.5, 0.5), (2.0, 1.0, -0.3), (0.8, 2.0, 0.6))

_REDUCTION_PHIS = (
    ("one", lambda y1, y2: np.ones_like(y1)),
    ("trace", lambda y1, y2: y1 + y2),
    ("gap_sq", lambda y1, y2: (y1 - y2) ** 2),
)


def reduction_suite(seed: int, draws: int) -> list[CheckRow]:
    """6-dim MC vs 2-dim reduced quadrature for polynomial observables.

    The observables of a setting share one set of draws.
    """
    rows = []
    names, phis = zip(*_REDUCTION_PHIS)
    for si, (t, d1, d2) in enumerate(_REDUCTION_SETTINGS):
        reports = reduction_check(t, d1, d2, phis, draws=draws, rng=RngStream(seed, si))
        for name, rep in zip(names, reports):
            rows.append(CheckRow(f"reduction_t{si}_{name}", rep.relative_difference,
                                 0.0, 0.01))
            rows.append(CheckRow(f"reduction_t{si}_{name}_stderr_ok",
                                 float(rep.stderr_ok), 1.0, 0.5))
    return rows


_TRANSFER_POINTS = ((0, 1.0), (1, 1.0), (4, 2.0))


def transfer_suite(seed: int, samples: int, workers: int) -> list[CheckRow]:
    """Transfer evaluation vs Monte Carlo at small (N, W), both lambda0."""
    rows = []
    for n, w in _TRANSFER_POINTS:
        for lambda0 in (0.0, 1.0):
            cv = cross_validate(LatticeParams(n, w), lambda0, 0.0,
                                mc_samples=samples, master_seed=seed,
                                workers=workers)
            rows.append(CheckRow(f"transfer_mc_n{n}_w{w:g}_l{lambda0:g}", cv.z_score,
                                 0.0, 3.0))
            rows.append(CheckRow(f"transfer_imag_n{n}_w{w:g}_l{lambda0:g}",
                                 cv.transfer.imag_ratio, 0.0, 1e-6))
            if n == 0:
                exact = cv.lam**2 + 2.0
                sigma = math.hypot(cv.mc_stderr, cv.transfer.quadrature_error_estimate)
                rows.append(CheckRow(f"transfer_n1_closed_form_l{lambda0:g}",
                                     abs(cv.transfer.f2 - exact), 0.0, 3.0 * sigma))
    return rows


def _run_suite(command: str, cfg: dict) -> int:
    """Call the command's suite with its config keys, except out, as arguments."""
    suite = _SUITES[command][0]
    rows = suite(**{key: value for key, value in cfg.items() if key != "out"})
    return _write_verify(_outdir(cfg), command, cfg, rows)


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
# config keys, their types and the flags the parser offers.
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
