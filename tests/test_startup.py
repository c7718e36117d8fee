"""Start-up cost: importing the CLI and running a GOE scan load no heavy module.

`import scipy.linalg` alone took about 0.25 s and 20 MiB of a fresh
interpreter's start-up, so a module under src/ imports a scipy submodule only
inside the function that needs it.  The process pool, which loads
multiprocessing, and the thread pool are imported where a pool starts.
numpy.random is imported eagerly, so its lazy load does not land in the
first timed call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.linalg", "scipy.special", "scipy.sparse", "scipy._lib._array_api",
         "concurrent.futures.process", "concurrent.futures.thread", "multiprocessing")

PROBE = f"""
import json, sys
import bandmoments.cli

def state():
    return {{"heavy": [m for m in {HEAVY!r} if m in sys.modules],
             "numpy.random": "numpy.random" in sys.modules}}

after_import = state()
code = bandmoments.cli.main(["scan-f2", "--ensemble", "goe", "--size", "8", "--samples", "20",
                             "--xi-diffs", "0,1", "--out", sys.argv[1]])
print(json.dumps({{"after_import": after_import, "exit": code, "after_scan": state()}}))
"""


def test_cli_import_and_goe_scan_skip_heavy_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "scan")], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["exit"] == 0
    for when in ("after_import", "after_scan"):
        assert report[when] == {"heavy": [], "numpy.random": True}, when
