"""The benchmark's workloads: fixed sizes, the grng commands each one runs,
and the gate on each command's output.

Why each workload exists (the metric -> layer map is in NOTES.md):

* paper-eval -- the paper's evaluation: gen + chi2/AD/KS test at N = 10^6
  for box-muller and polar in both modes.  `stats` does most of the work;
  the pipeline configs exercise the batch binary32 transcendentals.
* clt-sum -- the same sequence for clt k = 12.  Twelve LFSR streams per
  sample make `urng` most of the wall time, and twelve primitivity checks
  per command show in set-up.
* text-io -- box-muller written as csv, json and quadrature csv, then read
  back by test and hist.  `sampleio` and `qkdmod` text encoding dominate.

Every `gen` and `quadrature` output is also replayed through the scalar
`fp_pipeline.run_graph` (graph.py), so the graph path is measured on every
workload.

The CLI receives only fixed options, `--seed` and the files of earlier
commands; every size is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

PAPER_CONFIGS = (("box-muller", "reference"), ("box-muller", "pipeline"),
                 ("polar", "reference"), ("polar", "pipeline"))
CLT_CONFIGS = (("clt", "reference"), ("clt", "pipeline"))
CLT_K = 12
HIST_BINS = 100
SIZES = {"paper-eval": 1_000_000, "clt-sum": 1_000_000, "text-io": 500_000}
NAMES = tuple(SIZES)
SETUP_PROBES = 12         # timed set-up probes per run, spread over configs and time


@dataclass
class Command:
    """One grng CLI invocation and the gate on what it wrote."""

    argv: list
    role: str             # "gen" writes samples, "test" reads and judges them
    samples: int
    outputs: list         # files hashed for the same-seed determinism gate
    check: Callable[[], tuple] = field(repr=False)  # -> (failures, verdicts)
    replay: tuple = None  # (algo, mode): replay the output through run_graph


@dataclass
class Workload:
    name: str
    n: int
    commands: list = field(default_factory=list)
    setup: list = field(default_factory=list)     # `gen --n 1` probes


def cli_seed(seed, index):
    """Distinct nonzero 63-bit CLI seed for config `index` of a workload seed."""
    return 1 + (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) % (2 ** 63 - 1)


def _gen(argv, out, algo, n, mode=None, extra=(), replay=None):
    def check():
        return checks.check_gen(out, algo, n, mode) + [
            f for c in extra for f in c()], None
    return Command(argv, "gen", n, [out, checks.sidecar(out)], check, replay)


def _gen_test(name, configs, seed, work):
    n = SIZES[name]
    wl = Workload(name, n)
    for i, (algo, mode) in enumerate(configs):
        opts = ["--algo", algo, "--mode", mode, "--k", str(CLT_K),
                "--seed", str(cli_seed(seed, i))]
        out = work / f"{algo}-{mode}.bin"
        report = work / f"{algo}-{mode}.report.json"
        wl.commands.append(_gen(["gen", *opts, "--n", str(n), "--out", str(out)],
                                out, algo, n, mode, replay=(algo, mode)))
        wl.commands.append(Command(
            ["test", str(out), "--suite", ",".join(checks.SUITE), "--out", str(report)],
            "test", n, [report],
            lambda report=report, algo=algo: checks.check_report(report, algo, n)))
        probe = work / f"setup-{algo}-{mode}.bin"
        wl.setup.append(_gen(["gen", *opts, "--n", "1", "--out", str(probe)],
                             probe, algo, 1, mode))
    return wl


def _text_io(seed, work):
    n = SIZES["text-io"]
    wl = Workload("text-io", n)
    opts = ["--algo", "box-muller", "--mode", "reference", "--seed", str(cli_seed(seed, 0))]
    csv, js, pairs = work / "bm.csv", work / "bm.json", work / "qp.csv"
    report, hist = work / "bm.report.json", work / "bm.hist.csv"
    bm = ("box-muller", "reference")
    wl.commands = [
        _gen(["gen", *opts, "--n", str(n), "--format", "csv", "--out", str(csv)],
             csv, "box-muller", n, replay=bm),
        # the same seed and config must give the same values in every format
        _gen(["gen", *opts, "--n", str(n), "--format", "json", "--out", str(js)],
             js, "box-muller", n, extra=[lambda: checks.check_same_values(js, csv)],
             replay=bm),
        _gen(["quadrature", *opts, "--n", str(n // 2), "--format", "csv", "--out", str(pairs)],
             pairs, "box-muller", n, extra=[lambda: checks.check_same_values(pairs, csv)],
             replay=bm),
        Command(["test", str(csv), "--suite", ",".join(checks.SUITE), "--out", str(report)],
                "test", n, [report], lambda: checks.check_report(report, "box-muller", n)),
        Command(["hist", str(js), "--bins", str(HIST_BINS), "--out", str(hist)],
                "test", n, [hist], lambda: (checks.check_hist(hist, HIST_BINS, n), None)),
    ]
    for fmt in ("csv", "json"):
        probe = work / f"setup.{fmt}"
        wl.setup.append(_gen(["gen", *opts, "--n", "1", "--format", fmt, "--out", str(probe)],
                             probe, "box-muller", 1))
    return wl


def build(name, seed, work):
    """The workload `name` for `seed`, writing its files under `work`."""
    work = Path(work)
    if name == "paper-eval":
        return _gen_test(name, PAPER_CONFIGS, seed, work)
    if name == "clt-sum":
        return _gen_test(name, CLT_CONFIGS, seed, work)
    if name == "text-io":
        return _text_io(seed, work)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
