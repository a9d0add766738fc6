"""Traced in-process run of one workload.

Usage (a child of run.py, with grng importable):

    python3 perfbench/traced.py WORKLOAD SEED WORKDIR

Wraps the public calls of every grng module from outside the package, then
drives the workload through `grng.cli.main(argv)` in this process: one
warm-up pass, then every command twice in a row, first with the wrappers
passing straight through and then recording spans, then the run_graph
replay, traced.  Spans (name, parent, start, end, counts) stay in memory
and are printed once, as one JSON object, at the end; layers.py reduces
them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

import checks
import graph
import workloads


class Tracer:
    """Span recorder; wrappers pass straight through while `on` is false."""

    def __init__(self):
        self.on = False
        self.spans = []      # [name, parent index or None, start, end, counts]
        self._open = []

    def wrap(self, owner, attr, name, counts=None):
        """Replace owner.attr with a recording wrapper.

        `name` is a string or a function of the call's (args, kwargs);
        `counts(args, kwargs, result)` gives the work counts kept on the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args, kwargs),
                    self._open[-1] if self._open else None, time.perf_counter(),
                    None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def install(tracer):
    from grng import cli, fp_pipeline, qkdmod, sampleio, stats, transforms, urng

    w = tracer.wrap
    w(urng.LfsrState, "words", "urng.words", lambda a, k, r: {"count": len(r)})
    w(urng.LfsrState, "uniforms", "urng.uniforms")
    w(urng, "new_lfsr", "urng.new_lfsr")
    w(urng, "derive_seeds", "urng.derive_seeds")
    w(transforms, "stream", "transforms.stream", lambda a, k, r: {
        "samples": r.values.size, "uniforms": r.uniforms_consumed,
        "proposed": r.pairs_proposed, "accepted": r.pairs_accepted})
    w(fp_pipeline, "pipeline_stream", "fp_pipeline.pipeline_stream",
      lambda a, k, r: {"cores": sum(r.core_counts.values())})
    w(fp_pipeline, "run_graph", "fp_pipeline.run_graph",
      lambda a, k, r: {"records": len(r[1].records)})
    judged = lambda a, k, r: {"samples": len(a[0])}  # noqa: E731
    w(stats, "run_suite", "stats.run_suite", judged)
    w(stats, "chi_square_gof", "stats.chi2")
    w(stats, "anderson_darling", "stats.ad")
    w(stats, "kolmogorov_smirnov", "stats.ks")
    w(stats, "build_histogram", "stats.hist", judged)
    w(stats.Histogram, "to_csv", "stats.hist")
    w(sampleio, "write_samples",
      lambda a, k: f"sampleio.write.{_arg(a, k, 3, 'fmt')}",
      lambda a, k, r: {"bytes": Path(r).stat().st_size})
    w(sampleio, "read_samples",
      lambda a, k: f"sampleio.read.{k.get('fmt') or Path(a[0]).suffix.lstrip('.')}",
      lambda a, k, r: {"bytes": Path(a[0]).stat().st_size})
    w(sampleio, "write_sidecar", "sampleio.sidecar")
    w(qkdmod, "quadrature_stream", "qkdmod.quadrature_stream")
    w(qkdmod, "pairs_to_csv", "qkdmod.format")
    w(qkdmod, "pairs_to_json", "qkdmod.format")
    w(cli, "main", "cli.main")
    return cli


def _cli_step(cli, cmd):
    def step():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in cmd.argv])
        return {"code": code, "hash": checks.sha256(cmd.outputs) if code == 0 else None}
    return step


def main(argv):
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    wl = workloads.build(name, seed, work)
    tracer = Tracer()
    cli = install(tracer)
    steps = [_cli_step(cli, cmd) for cmd in wl.commands]
    for step in steps:   # a fresh process pays page faults that later passes do not
        step()
    # each step runs untraced, then traced, so both timings see the same host load
    seconds = {False: 0.0, True: 0.0}
    results = {False: [], True: []}
    for step in steps:
        for on in (False, True):
            tracer.on = on
            start = time.perf_counter()
            results[on].append(step())
            seconds[on] += time.perf_counter() - start
    replay = [graph.replay(cmd.outputs[0], *cmd.replay)
              for cmd in wl.commands if cmd.replay]
    print(json.dumps({"untraced_s": seconds[False], "traced_s": seconds[True],
                      "untraced": results[False], "traced": results[True],
                      "replay": replay, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
