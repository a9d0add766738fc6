"""Command-line front end: generate, test, histogram, bench, quadrature.

Subcommands
-----------
gen         write n Gaussian samples (plus a .meta.json sidecar)
test        run the chi2/ad/ks battery on a sample file
hist        histogram a sample file as bin_lo,bin_hi,count CSV
bench       throughput comparison across algorithms, with core-invocation
            counts as the hardware resource proxy
quadrature  map generated Gaussians to (q, p) modulation pairs

Everything is reproducible from the command line: a 64-bit master seed
(--seed, whose default is the GRNG_SEED environment variable, then 1)
expands into per-stream LFSR seeds through splitmix64, and (subcommand,
full config) determines every output byte except bench timing fields.
A run draws one stream from `transforms.arity` LFSR sources, which
`transforms.evaluate` yields in rounds, each cut into blocks, one per
CPU, and which are written as they come.  `--shards` is recorded in the
sidecar and does not change the output.

Exit codes: 0 success, 1 usage error, 2 data error.  Every error is one
`error:` line on stderr.  Each bounded flag's domain is its argparse
`type`, so a value outside it is argparse's usage error, naming the flag,
before any work; GRNG_SEED meets --seed's rule.  A `hist --bins` whose
bins alone exceed the machine's physical memory is a usage error before
any work too.  Samples are drawn and written in rounds of bounded size,
so `gen`, `bench` and `quadrature` need no such check; `gen` and
`quadrature` refuse an output that cannot fit in the free space of its
file system instead.  A `gen` or `quadrature` that fails part way can
leave a partial file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

from . import fp_pipeline, qkdmod, sampleio, stats, transforms, urng

__all__ = ["main"]

_USAGE_EXIT = 1
_DATA_EXIT = 2
#: Largest --k.  A run derives k seeds one at a time in a Python splitmix64
#: loop, so a k of 10^9 would run for hours before the first sample.
_MAX_K = 1 << 16
#: Largest --shards.  The value only goes to the sidecar; the bound keeps
#: the flag's domain, so a command line it refused before is still refused.
_MAX_SHARDS = 1 << 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _check_memory(what, nbytes):
    """Refuse a request whose arrays alone exceed physical memory.

    Such a request can only end in an allocation error or the kernel's
    out-of-memory killer, so it is refused before any work.
    """
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    _refuse_beyond(what, nbytes, total, "of memory")


def _check_space(path, count):
    """Refuse an output file of `count` values that its file system's free
    space cannot hold.

    Every value takes at least 4 bytes in every format (a float32, or a
    repr of at least 3 characters and its separator), so such a run could
    only end in a disk-full error part way; it is refused before any work.
    An existing output is truncated before it is written, so the blocks it
    holds count as free.  An output that is no regular file, such as
    /dev/null, is not checked.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        return
    folder = os.path.dirname(os.path.abspath(path))
    try:
        fs = os.statvfs(folder)
    except (AttributeError, OSError):  # no statvfs here, or no such folder,
        return                         # which opening the file reports
    held = os.stat(path).st_blocks * 512 if os.path.isfile(path) else 0
    _refuse_beyond(f"{count} values", 4 * count,
                   fs.f_bavail * fs.f_frsize + held, f"free in {folder}")


def _refuse_beyond(what, nbytes, total, where):
    if nbytes > total:
        raise _UsageError(f"{what} need {nbytes / 2**30:.3g} GiB, more than "
                          f"the {total / 2**30:.3g} GiB {where}")


class _EnvSeed(str):
    """$GRNG_SEED as --seed's default; an error in it names GRNG_SEED."""

    def __repr__(self):
        return f"GRNG_SEED={str.__repr__(self)}"


def _domain(convert, ok, rule):
    """An argparse `type`: `convert` the text and keep it only if `ok`.

    Anything else is argparse's own one-line error, naming the flag and
    `rule`.  argparse converts a string default too, when the flag is
    absent, so a default from the environment meets the same rule.
    """
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


def _add_gen_args(p):
    p.add_argument("--algo", choices=transforms.ALGORITHMS, default="box-muller")
    p.add_argument("--n", type=_domain(int, lambda n: n >= 1, "an integer >= 1"),
                   default=1000, help="number of samples")
    # derive_seeds reads the seed modulo 2**64, so a wider value would write
    # the samples of another seed under its own name in the sidecar
    p.add_argument("--seed", type=_domain(lambda s: int(s, 0),
                                          lambda s: 0 <= s < 1 << 64,
                                          "an integer in [0, 2**64)"),
                   default=_EnvSeed(os.environ.get("GRNG_SEED") or "1"),
                   help="64-bit master seed (default: $GRNG_SEED or 1)")
    p.add_argument("--mode", choices=("reference", "pipeline"),
                   default="reference")
    p.add_argument("--k", type=_domain(int, lambda k: 2 <= k <= _MAX_K,
                                       f"an integer in [2, {_MAX_K}]"),
                   default=12, help="CLT summand count")
    p.add_argument("--shards", type=_domain(int, lambda s: 1 <= s <= _MAX_SHARDS,
                                            f"an integer in [1, {_MAX_SHARDS}]"),
                   default=1, help="recorded in the sidecar; does not change "
                   "the output")
    p.add_argument("--poly", default=None,
                   help="LFSR polynomial, as x^a+x^b+...+1 or a hex tap mask")


def _build_parser():
    parser = _Parser(prog="grng",
                     description="LFSR-driven Gaussian random number toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a Gaussian sample file")
    _add_gen_args(gen)
    gen.add_argument("--format", choices=sampleio.FORMATS, default="bin")
    gen.add_argument("--out", required=True)

    test = sub.add_parser("test", help="run normality tests on a sample file")
    test.add_argument("input")
    suite = ",".join(stats.TESTS)
    test.add_argument("--suite", default=suite, type=_domain(
        lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
        lambda t: t and set(t) <= stats.TESTS.keys(),
        f"a comma-separated subset of {suite}"))
    test.add_argument("--alpha", default=0.05,
                      type=_domain(float, lambda a: 0 < a < 1, "a number in (0, 1)"))
    test.add_argument("--bins", default=8,
                      type=_domain(int, lambda b: b >= 2, "an integer >= 2"),
                      help="equal-probability bins for the chi2 test")
    test.add_argument("--out", default=None, help="write the report as JSON")

    hist = sub.add_parser("hist", help="histogram a sample file to CSV")
    hist.add_argument("input")
    hist.add_argument("--bins", default=100,
                      type=_domain(int, lambda b: b >= 1, "an integer >= 1"))
    hist.add_argument("--out", default=None, help="CSV path (default stdout)")

    bench = sub.add_parser("bench", help="compare algorithm throughput")
    _add_gen_args(bench)
    bench.add_argument("--all-algos", action="store_true",
                       help="bench every algorithm, not just --algo")

    quad = sub.add_parser("quadrature",
                          help="emit (q, p) Gaussian-modulation pairs")
    _add_gen_args(quad)
    quad.add_argument("--format", choices=("csv", "json"), default="csv")
    quad.add_argument("--out", required=True)
    quad.add_argument("--variance", default=1.0, help="modulation variance V",
                      type=_domain(float, lambda v: 0 < v < math.inf,
                                   "a number in (0, inf)"))

    return parser


def _warn_past_period(sources):
    """One stderr line per stream that drew more words than its period.

    Word k starts at clock k * n, so the words repeat after p / gcd(p, n)
    of them, p being the register's period; past that the output repeats.
    """
    for i, src in enumerate(sources):
        n = src.config.order
        period = urng.lfsr_period(src.config)
        words = period // math.gcd(period, n)
        drawn = src.steps_taken // n
        if drawn > words:
            print(f"warning: stream {i} (seed {src.config.seed:#x}) drew "
                  f"{drawn} words, more than its period of {words}; "
                  f"its output repeats", file=sys.stderr)


class _Run:
    """One stream of `count` `algo` samples, drawn in rounds as it is read.

    Iterating yields each round's values, valid until the next round is
    drawn, and len() is `count`.  Once the last round is drawn the period
    warnings are printed and `meta`, the sidecar record, holds the
    accounting summed over the rounds.
    """

    def __init__(self, args, algo, count):
        # a bad polynomial is refused here, before any seed is derived for it
        poly = urng.DEFAULT_POLYNOMIAL if args.poly is None else args.poly
        lfsr = urng.LfsrConfig.from_polynomial(poly, seed=1)
        clt = transforms.CltConfig(k=args.k)
        try:
            lfsr_seeds = urng.derive_seeds(args.seed, transforms.arity(algo, clt.k),
                                           lfsr.order)
        except ValueError as exc:
            raise _UsageError(exc) from None
        self._sources = [urng.new_lfsr(dataclasses.replace(lfsr, seed=s))
                         for s in lfsr_seeds]
        self._rounds = transforms.evaluate(transforms.evaluator(args.mode), algo,
                                           self._sources, count, clt)
        self._count = count
        self.meta = {
            "algorithm": algo,
            "mode": args.mode,
            "n": count,
            "master_seed": args.seed,
            "shards": args.shards,
            **{key: v for key, v in lfsr.to_dict().items() if key != "seed"},
            "lfsr_seeds": lfsr_seeds,
        }
        if algo == "clt":
            self.meta["k"] = args.k

    def __len__(self):
        return self._count

    def __iter__(self):
        for result in self._rounds:
            yield result.values
        _warn_past_period(self._sources)
        self.meta["uniforms_consumed"] = result.uniforms_consumed
        if self.meta["algorithm"] == "polar":
            self.meta["pairs_proposed"] = result.pairs_proposed
            self.meta["pairs_accepted"] = result.pairs_accepted
        if result.core_counts:
            self.meta["core_counts"] = dict(sorted(result.core_counts.items()))


def _cmd_gen(args):
    _check_space(args.out, args.n)
    run = _Run(args, args.algo, args.n)
    path = sampleio.write_samples(args.out, run, args.mode, args.format)
    run.meta["format"] = args.format
    sampleio.write_sidecar(path, run.meta)
    print(f"wrote {args.n} samples to {path} "
          f"({run.meta['uniforms_consumed']} uniforms consumed)")
    return 0


def _render_report_table(reports):
    headers = ("Test", "Null Hypothesis", "P Value", "Test Statistic")
    rows = [(stats.TESTS[r.test_name], r.null_hypothesis, r.p_display,
             f"{r.statistic:.6g}") for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return "\n".join([fmt(headers), fmt(["-" * w for w in widths])]
                     + [fmt(row) for row in rows])


def _cmd_test(args):
    values, _mode = sampleio.read_samples(args.input)
    # `values` is this command's own array, so the battery may sort it in place
    reports = stats.run_suite(values, suite=args.suite, alpha=args.alpha,
                              bins=args.bins, overwrite_input=True)
    print(_render_report_table(reports))
    if args.out:
        doc = {"input": str(args.input), "n": int(values.size),
               "alpha": args.alpha,
               "reports": [r.to_dict() for r in reports]}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_hist(args):
    # float64 edges and int64 counts
    _check_memory(f"{args.bins} bins", 16 * args.bins)
    values, _mode = sampleio.read_samples(args.input)
    hist = stats.build_histogram(values, bins=args.bins)
    if args.out:
        with open(args.out, "w") as fh:
            hist.to_csv(fh)
    else:
        hist.to_csv(sys.stdout)
    return 0


def _cmd_bench(args):
    algos = transforms.ALGORITHMS if args.all_algos else (args.algo,)
    print(f"{'algorithm':<12} {'mode':<10} {'samples/s':>12} "
          f"{'uniforms/sample':>16}  core counts")
    for algo in algos:
        start = time.perf_counter()
        run = _Run(args, algo, args.n)
        for _values in run:
            pass
        elapsed = time.perf_counter() - start
        rate = args.n / elapsed if elapsed > 0 else float("inf")
        ratio = run.meta["uniforms_consumed"] / args.n
        counts = run.meta.get("core_counts")
        if counts is None:
            per_pass = fp_pipeline.expected_core_counts(
                algo, k=args.k, accepted=True)
            counts_str = "static/pass " + json.dumps(per_pass, sort_keys=True)
        else:
            counts_str = json.dumps(counts, sort_keys=True)
        print(f"{algo:<12} {args.mode:<10} {rate:>12.0f} {ratio:>16.3f}  "
              f"{counts_str}")
    return 0


def _quadrature_rounds(rounds, variance):
    """The (q, p) pairs of each round's values.  The run draws an even
    count, which `transforms.evaluate` cuts into rounds of whole pairs."""
    for values in rounds:
        config = qkdmod.ModulationConfig(variance=variance, count=values.size // 2)
        yield qkdmod.quadrature_stream(values, config)


def _cmd_quadrature(args):
    _check_space(args.out, 2 * args.n)
    run = _Run(args, args.algo, 2 * args.n)
    write = qkdmod.pairs_to_json if args.format == "json" else qkdmod.pairs_to_csv
    with open(args.out, "w") as fh:
        write(_quadrature_rounds(run, args.variance), fh)
    run.meta.update({"variance": args.variance, "pairs": args.n,
                     "format": args.format})
    sampleio.write_sidecar(args.out, run.meta)
    print(f"wrote {args.n} quadrature pairs to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "test": _cmd_test,
    "hist": _cmd_hist,
    "bench": _cmd_bench,
    "quadrature": _cmd_quadrature,
}

_DATA_ERRORS = (
    sampleio.ParseError,
    stats.EmptySampleError,
    stats.InsufficientSampleError,
    stats.NonFiniteSampleError,
    qkdmod.SourceExhaustedError,
    urng.BadPolynomialError,
    urng.ZeroSeedError,
    OSError,
)


def _one_line_warning(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    parser = _build_parser()
    # one `warning:` line per notice and stream; the warnings state is
    # restored on return, as tests and benchmarks call this in process
    with warnings.catch_warnings():
        warnings.simplefilter("always", urng.NonMaximalTapsWarning)
        fmt, warnings.formatwarning = warnings.formatwarning, _one_line_warning
        try:
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _USAGE_EXIT
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return _USAGE_EXIT
        except _DATA_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _DATA_EXIT
        finally:
            warnings.formatwarning = fmt


if __name__ == "__main__":
    sys.exit(main())
