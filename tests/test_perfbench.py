"""The benchmark's tracer wraps grng's functions by name, so renaming or
deleting one of them breaks `perfbench/run.py --trace 1`; this catches it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_wraps_every_name():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import traced; traced.install(traced.Tracer())"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
