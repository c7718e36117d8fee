"""bandmoments benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  Each round of the workload runs in a fresh interpreter
(perfbench/round.py); rounds repeat until S seconds have passed, at least
one.  The end-to-end metrics are the medians over the rounds.  With
--trace 1 the run alternates untraced and traced rounds, then runs the layer
probes (perfbench/probes.py) and prints the per-layer metrics instead.
After the timed region the outputs of every round are checked against exact
oracles and method properties.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "RMT_THREADS")
# set-up is short and noisy: a run sets up at least this many times
SETUP_SAMPLES = 9
ROUND_TIMEOUT = 150


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def program_env(root: Path) -> dict:
    """The caller's environment without RMT_THREADS, which overrides `workers`."""
    env = {k: v for k, v in os.environ.items() if k != "RMT_THREADS"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_round(root: Path, workload: str, seed: int, rdir: Path, mode: str) -> dict:
    """One fresh interpreter; mode is "timed", "traced" or "setup-only"."""
    rdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "round.py"), workload, str(seed), str(rdir)]
    with open(rdir / "stdout.log", "wb") as out, open(rdir / "stderr.log", "wb") as err:
        t_spawn = time.monotonic()
        code = subprocess.run(argv + [repr(t_spawn), "--mode", mode], cwd=root,
                              env=program_env(root), stdout=out, stderr=err,
                              timeout=ROUND_TIMEOUT).returncode
    if code != 0:
        raise RuntimeError(f"round process exited {code}; see {rdir / 'stderr.log'}")
    result = json.loads((rdir / "round.json").read_text())
    result["out"] = rdir / "out"
    result["mode"] = mode
    return result


def make_run_cli(root: Path, log_dir: Path):
    def run_cli(args: list[str]) -> int:
        with open(log_dir / "check_cli.log", "ab") as log:
            return subprocess.run([sys.executable, "-m", "bandmoments.cli", *args],
                                  cwd=root, env=program_env(root), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=ROUND_TIMEOUT).returncode
    return run_cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bandmoments" / "__init__.py").is_file():
        print(f"error: no bandmoments source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # byte-compile once, as an install would, so no round pays for it
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = HERE / "runs" / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    (run_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")

    rounds: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        for mode in ("timed", "traced") if args.trace else ("timed",):
            rdir = run_dir / f"round{len(rounds):02d}-{mode}"
            rounds.append(run_round(root, args.workload, args.seed, rdir, mode))
        if time.monotonic() >= deadline:
            break
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        rdir = run_dir / f"setup{len(setups):02d}"
        setups.append(run_round(root, args.workload, args.seed, rdir, "setup-only")["setup_s"])

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(not op["ok"] for r in rounds for op in r["ops"])
    run_cli = make_run_cli(root, run_dir)
    results = checks.oracle_self_checks()
    results += checks.check_rounds_identical([r["out"] for r in rounds])
    try:
        results += checks.CHECKS[args.workload]([r["out"] for r in rounds], args.seed, run_cli)
    except (OSError, ValueError, KeyError) as exc:
        results.append((f"{args.workload}_outputs_readable", False, repr(exc)))
    for name, passed, detail in results:
        label = "INFO" if passed is None else ("PASS" if passed else "FAIL")
        print(f"{label} {name}: {detail}")
    correct = all(passed is not False for _, passed, _ in results)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    untraced = [r for r in rounds if r["mode"] == "timed"]
    if args.trace:
        probe_out = run_dir / "probes" / "probes.json"
        subprocess.run([sys.executable, str(HERE / "probes.py"), str(args.seed), str(probe_out)],
                       cwd=root, env=program_env(root), check=True, timeout=ROUND_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        values = json.loads(probe_out.read_text())
        traced = [r for r in rounds if r["mode"] == "traced"]
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in untraced))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("run_s", "cpu_s", "peak_rss_mib")}
        values["setup_s"] = statistics.median(setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for r in rounds:
        print("round " + json.dumps({k: r[k] for k in ("mode", "setup_s", "run_s", "cpu_s",
                                                        "peak_rss_mib")}))
        if r["mode"] == "traced":
            spans = json.loads((r["out"].parent / "spans.json").read_text())
            print("self_time_s " + json.dumps(spans["self_time_s"], sort_keys=True))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
