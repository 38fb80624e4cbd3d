"""The benchmark's own tests, run against the code in src/.

perfbench/selftest.py pins what the benchmark relies on in the program
(traced counters such as partial.check_axioms.words, span targets, CLI
output), so a change under src/ that breaks the benchmark fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
