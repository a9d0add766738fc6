"""Self-test of the output gate: corrupted outputs must count as failures.

Run directly with `python3 perfbench/selftest.py`; run.py also runs it
before every measurement and refuses to report when it fails.
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

N = 100


def _write(path, payload, uniforms_consumed):
    path.write_bytes(payload)
    checks.sidecar(path).write_text(json.dumps(
        {"algorithm": "box-muller", "n": N, "uniforms_consumed": uniforms_consumed}))
    return path


def run(work):
    """Problems with the gate, as messages; empty when it works."""
    work = Path(work)
    values = np.random.default_rng(0).standard_normal(N)
    payload = checks.BIN_MAGIC + struct.pack("<IQ", 0, N) + values.astype("<f8").tobytes()
    cases = {
        "a correct file": (_write(work / "good.bin", payload, N), False),
        "a truncated .bin": (_write(work / "truncated.bin", payload[:-8], N), True),
        "a sidecar with the wrong uniforms_consumed":
            (_write(work / "count.bin", payload, N - 2), True),
    }
    problems = []
    for what, (path, corrupt) in cases.items():
        if bool(checks.check_gen(path, "box-muller", N, "reference")) != corrupt:
            problems.append(f"gate {'accepts' if corrupt else 'rejects'} {what}")
    return problems


def main():
    root = Path(__file__).resolve().parent.parent / ".perfbench_work"
    root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        problems = run(work)
    finally:
        shutil.rmtree(work)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("gate self-test:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
