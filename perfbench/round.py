"""One round of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/round.py WORKLOAD SEED ROUND_DIR T_SPAWN --mode timed|traced|setup-only

T_SPAWN is the parent's time.monotonic() just before it started this
interpreter (CLOCK_MONOTONIC is system-wide), so set-up time covers
interpreter start, importing bandmoments and building the inputs.  The timed
region runs the workload's operations, through to their outputs being
written under ROUND_DIR/out.  Metrics and operation outcomes go to
ROUND_DIR/round.json.  A traced round wraps the program's public functions
in spans first; a setup-only round stops before the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("rdir", type=Path)
    parser.add_argument("t_spawn", type=float)
    parser.add_argument("--mode", choices=("timed", "traced", "setup-only"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    tracer = None
    if args.mode == "traced":
        # before the inputs are built, so the operations bind traced functions
        from spans import Tracer
        tracer = Tracer()
        tracer.instrument()
    out = args.rdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, out)

    outcomes = []
    cpu0 = _cpu_seconds()
    t_ready = time.monotonic()
    if args.mode == "setup-only":
        ops = []
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            ok = bool(op())
            error = None if ok else "nonzero exit status"
        except Exception:  # a failed operation is counted, the round goes on
            ok, error = False, traceback.format_exc()
            print(error, file=sys.stderr)
        outcomes.append({"name": name, "ok": ok, "error": error})
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    if tracer is not None:
        tracer.dump(args.rdir / "spans.json")
    # Children are left out: a forked child's ru_maxrss starts from its
    # parent's RSS at the fork, so adding it counts the parent twice.
    result = {
        "setup_s": t_ready - args.t_spawn,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB
        "ops": outcomes,
    }
    (args.rdir / "round.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
