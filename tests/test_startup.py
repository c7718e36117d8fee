"""Start-up cost and thread state: importing the CLI and running scans.

No module under src/ imports scipy at all: `import scipy.linalg` alone took
about 0.25 s and 20 MiB of a fresh interpreter's start-up, and the top-level
package about 10 ms and 1.3 MiB.  The process pool, which loads
multiprocessing, and the thread pool are imported where a pool starts.
numpy.random is imported eagerly, so its lazy load does not land in the
first timed call.

numpy's OpenBLAS is pinned to one thread at import, with its idle worker
threads stopped, and nothing raises the count again: scans, transfer
contractions on small and large grids, and GOE and band spectra all run on
the one BLAS thread, in a process that holds one OS thread.  The probe runs
with OPENBLAS_NUM_THREADS=2, so a block that raised the count to the library
default would show as two threads even on a one-core machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "concurrent.futures.process", "concurrent.futures.thread", "multiprocessing")

PROBE = f"""
import ctypes, json, sys
from pathlib import Path
import numpy
import bandmoments.cli
import bandmoments.transfer
from bandmoments import LatticeParams, build_kernel, transfer_evaluate

libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas64_*"))
blas_threads = (getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_")
                if libs else lambda: None)

def state():
    tasks = Path("/proc/self/task")
    return {{"heavy": [m for m in {HEAVY!r} if m in sys.modules],
             "numpy.random": "numpy.random" in sys.modules,
             "blas_threads": blas_threads(),
             "os_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None}}

def record_during(module, name, when):
    inner = getattr(module, name)
    def wrapper(*args):
        report[when] = state()
        return inner(*args)
    setattr(module, name, wrapper)
    return lambda: setattr(module, name, inner)

def scan(*argv):
    return bandmoments.cli.main(["scan-f2", "--samples", "20", *argv,
                                 "--out", sys.argv[1] + argv[1]])

report = {{"after_import": state()}}
report["goe_exit"] = scan("--ensemble", "goe", "--size", "8", "--xi-diffs", "0,1")
report["after_goe_scan"] = state()
# one xi pair is two energies: the LU route
report["band_exit"] = scan("--ensemble", "band", "--half-width", "4", "--bandwidth", "2",
                           "--xi-diffs", "1")
report["after_band_scan"] = state()
# N = 3, W = 1: grids of 27-35 nodes a side
restore = record_during(bandmoments.transfer, "_apply_bond", "during_transfer")
transfer_evaluate(build_kernel(LatticeParams(1, 1.0), 0.0, 0.0))
restore()
report["after_transfer"] = state()
# N = 33, W = 4: grids of 81-107 nodes a side, large enough for OpenBLAS to split a product
restore = record_during(bandmoments.transfer, "_apply_bond", "during_large_transfer")
transfer_evaluate(build_kernel(LatticeParams(16, 4.0), 0.0, 0.0))
restore()
report["after_large_transfer"] = state()
record_during(bandmoments.cli, "tridiagonal_counts", "during_goe_spectrum")
report["spectrum_exit"] = bandmoments.cli.main(["spectrum", "--size", "64", "--samples", "2",
                                                "--out", sys.argv[1] + "spectrum"])
report["after_goe_spectrum"] = state()
# N = 81: large enough for OpenBLAS to split a product
record_during(bandmoments.cli, "eigenvalues", "during_band_spectrum")
report["band_spectrum_exit"] = bandmoments.cli.main(
    ["spectrum", "--ensemble", "band", "--half-width", "40", "--samples", "2",
     "--out", sys.argv[1] + "band_spectrum"])
report["after_band_spectrum"] = state()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "2"  # a raised count reads 2 even on one core
    out = tmp_path_factory.mktemp("scan") / "scan"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    exits = ("goe_exit", "band_exit", "spectrum_exit", "band_spectrum_exit")
    assert [report[key] for key in exits] == [0, 0, 0, 0]
    return report


def test_cli_import_and_goe_scan_skip_heavy_scipy(report):
    states = {when: state for when, state in report.items() if isinstance(state, dict)}
    for when, state in states.items():
        assert "scipy" not in state["heavy"], when
    for when in ("after_import", "after_goe_scan", "after_goe_spectrum"):
        assert report[when]["heavy"] == [], when
        assert report[when]["numpy.random"], when


def test_one_blas_thread_and_no_worker_after_scans_and_transfer(report):
    for when in ("after_import", "after_goe_scan", "after_band_scan", "during_transfer",
                 "after_transfer", "during_large_transfer", "after_large_transfer",
                 "during_goe_spectrum", "after_goe_spectrum", "during_band_spectrum",
                 "after_band_spectrum"):
        threads = report[when]["blas_threads"], report[when]["os_threads"]
        if None in threads:  # no bundled OpenBLAS, or no /proc to count threads in
            pytest.skip(f"thread state not readable: {threads}")
        assert threads == (1, 1), when

