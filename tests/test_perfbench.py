"""The benchmark's tracer wraps grng's functions by name, so renaming or
deleting one of them breaks `perfbench/run.py --trace 1`; this catches it."""

import json
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


HIST = r"""
import json, os, sys
import numpy as np
import traced
from grng import sampleio, transforms

work = sys.argv[1]
tracer = traced.Tracer()
cli = traced.install(tracer)
transforms._cores = lambda: 2  # 70000 bins are two chunks: one worker
forks, fork = [], os.fork
os.fork = lambda: forks.append(fork()) or forks[-1]
sampleio.write_samples(os.path.join(work, "x.bin"),
                       np.random.default_rng(1).standard_normal(10**5), "reference", "bin")
for on in (False, True):
    tracer.on = on
    code = cli.main(["hist", os.path.join(work, "x.bin"), "--bins", "70000",
                     "--out", os.path.join(work, f"{on}.csv")])
    assert code == 0, code
print(json.dumps({"forks": len(forks),
                  "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_tracer_sees_a_forked_hist(tmp_path):
    """`hist` under the tracer, with its bins encoded by a forked worker,
    writes the bytes it writes with the tracer off, and records its span."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", HIST, str(tmp_path)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["forks"] == 2 and "stats.hist" in seen["spans"], seen
    off, on = (tmp_path / "False.csv").read_bytes(), (tmp_path / "True.csv").read_bytes()
    assert off == on and off.count(b"\n") == 70001
