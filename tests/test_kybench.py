"""The benchmark harness still runs against the engine.

kybench/ drives the package through its public names; these tests run its
own checks and import its stage-by-stage replay, so a rename in the engine
that breaks the harness fails here rather than in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KYBENCH = ROOT / "kybench"


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(KYBENCH)]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_selftest_passes():
    proc = run_python(str(KYBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stderr


def test_traced_imports():
    proc = run_python("-c", "import traced")
    assert proc.returncode == 0, proc.stderr
