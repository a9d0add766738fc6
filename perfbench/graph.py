"""Replay of a CLI output through the scalar architecture graph.

Usage (a child of run.py, with grng importable):

    python3 perfbench/graph.py FILE ALGO MODE

Prints one JSON object.  Rebuilds the LFSR streams a `gen` output came
from, runs its first passes through `fp_pipeline.run_graph` and compares
them with the file: bit for bit in pipeline mode (the batch path must
equal chained graph passes), within ATOL in reference mode.  Every pass's
trace counts must equal `expected_core_counts`.  Only the run_graph calls
are timed; the checks run after the timed loop.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import checks
import workloads
from grng import fp_pipeline, urng

REPLAY_PASSES = 4000
K = workloads.CLT_K
# Reference (float64) outputs differ from the binary32 graph by rounding
# only: about 1e-6 here, and at most ~5e-4 where a uniform rounds to 1.0.
ATOL = 1e-3
F32_ONE, F32_TWO = np.float32(1.0), np.float32(2.0)
MAX_MESSAGES = 10


def pass_failure(algo, xs, outputs, trace):
    """Why one graph pass is wrong, or None."""
    expected = fp_pipeline.expected_core_counts(algo, k=K, accepted=bool(outputs))
    if dict(trace.counts) != expected or len(trace.records) != sum(expected.values()):
        return (f"{algo} pass on {[float(x) for x in xs]}: trace counts "
                f"{dict(trace.counts)}, expected {expected}")
    if not np.isfinite(np.asarray(outputs, dtype=np.float64)).all():
        return f"{algo} pass on {[float(x) for x in xs]}: outputs {outputs}"
    return None


def replay(path, algo, mode, passes=REPLAY_PASSES):
    meta = json.loads(checks.sidecar(path).read_text())
    sources = [urng.new_lfsr(urng.LfsrConfig(order=meta["order"],
                                             taps=int(meta["taps"], 16), seed=s))
               for s in meta["lfsr_seeds"]]
    u = np.stack([s.words(passes) for s in sources], axis=1).astype(np.float64)
    u *= 2.0 ** -meta["order"]
    # binary32 graph inputs, as the pipeline forms them
    x = u.astype(np.float32)
    if algo == "polar":
        x = F32_TWO * x - F32_ONE
    in_file = None
    if algo == "polar" and mode == "reference":
        # float64 decides which proposals the file holds outputs for
        v = 2.0 * u - 1.0
        s = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
        in_file = (s > 0.0) & (s < 1.0)

    rows = [list(row) for row in x]
    run_graph = fp_pipeline.run_graph
    start = time.perf_counter()
    results = [run_graph(algo, row, k=K) for row in rows]
    seconds = time.perf_counter() - start

    failures, got, want = [], [], []
    values = checks.read_values(path)
    width = 1 if algo == "clt" else 2
    cursor = 0
    for i, (row, (outputs, trace)) in enumerate(zip(rows, results)):
        failure = pass_failure(algo, row, outputs, trace)
        if failure:
            failures.append(failure)
        if outputs if in_file is None else in_file[i]:
            if outputs:
                got.extend(outputs)
                want.extend(values[cursor:cursor + width])
            cursor += width
    failed = len(failures)

    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    if got.size != want.size:
        bad = abs(got.size - want.size)
    elif mode == "pipeline":
        bad = int(np.count_nonzero(got != want))
    else:
        bad = int(np.count_nonzero(~(np.abs(got - want) <= ATOL)))
    if bad:
        failed = passes
        failures.append(f"{path}: {bad} of the first {got.size} samples differ "
                        f"from their run_graph replay")
    return {"passes": passes, "seconds": seconds, "failed": failed,
            "failures": failures[-MAX_MESSAGES:]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    print(json.dumps(replay(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
