"""Binary32 emulation of the FPGA Gaussian-generator datapath.

Every arithmetic block ("core") consumes IEEE-754 binary32 operands and
produces a binary32 result rounded to nearest-even exactly once, plus the
exception flags its hardware counterpart exposes:

* LOG    -- natural log; `zero` fires for input 1.0, `nan` for negative or
  NaN input.  log(+-0) follows IEEE and returns -inf with no flag.
* SIN/COS -- no exception ports; non-finite inputs simply produce NaN.
* DIV    -- `overflow` when a finite-operand quotient reaches infinity
  (division by zero propagates infinity without overflow), `underflow`
  when the result is zero or denormal although neither input is zero,
  `nan` for invalid divisions (0/0, inf/inf, NaN operands), `zero` when
  the result is zero.
* SQRT   -- `nan` for negative or NaN input, `zero` for a zero result,
  `overflow` only when the result reaches infinity (input +inf).
* MUL/ADD -- external multiplier/adder blocks; the vendor sheets the rest
  of this module follows do not document their ports, so they carry the
  generic IEEE-derived flags.  Subtraction is the ADD core fed a negated
  operand (a free sign flip in hardware).

DIV, SQRT, MUL and ADD are correctly rounded (native binary32 operations).
LOG, SIN and COS evaluate in double precision and round once to binary32,
which is faithful within 1 ulp of the correctly rounded result.  Each core
is two parts in one table, `_CORES`: its result operation, a `Binary32`
method, and its flag rule, (inputs, result) -> (zero, nan, overflow,
underflow).  Both are numpy operations only, so a core takes a binary32
scalar or array and returns a result and flags of the same shape.

The three published architectures are defined once, in
`transforms.ARCHITECTURES`, as functions of an evaluator.  This module
adds two evaluators to the float64 reference one:

* `Binary32` -- the core results on whole batches, without flags: the
  evaluator of pipeline mode, as `transforms.evaluator` maps it.
* `PipelineTrace`, the evaluator of `run_graph` -- a batch of one that
  runs `Binary32`'s operations and logs each invocation's core, result
  and raw operands flat in one list.  Its (core, inputs, result) records
  and their flags are formed only when they are read, the flags by the
  rule each public `core_*` applies to its own result.

The batch driver under `Binary32` is therefore bit-identical to chaining
`run_graph` calls by construction, and the per-pass invocation counts
(`expected_core_counts`) come from tracing one pass of
`transforms.arity(algo, k)` inputs: box-muller uses LOG,
SQRT, SIN, COS and four multipliers; polar uses LOG, SQRT, DIV, five
multipliers and one adder per accepted pair; clt uses SQRT, DIV, two
multipliers and one adder beyond the k-1 additions that accumulate the
uniform sum.  The polar graph takes disk coordinates v = 2u - 1 as its two
inputs: the affine conditioning, like the integer-to-float conversion,
happens upstream of the counted datapath.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import transforms

__all__ = [
    "Binary32",
    "CoreResult",
    "PipelineTrace",
    "core_add",
    "core_cos",
    "core_div",
    "core_log",
    "core_mul",
    "core_sin",
    "core_sincos",
    "core_sqrt",
    "expected_core_counts",
    "pipeline_stream",
    "run_graph",
    "uniform_to_f32",
]

_INF = np.float32(np.inf)
_SMALLEST_NORMAL = np.float32(2.0 ** -126)
_quiet = functools.partial(np.errstate, all="ignore")
_FLAGS = ("zero", "nan", "overflow", "underflow")


def _hex32(x):
    return f"{np.float32(x).view(np.uint32):08x}"


class CoreResult(NamedTuple):
    """Binary32 core output with its exception flags."""

    result: np.float32
    zero: bool = False
    nan: bool = False
    overflow: bool = False
    underflow: bool = False

    @property
    def flags(self):
        return dict(zip(_FLAGS, self[1:]))


def _in_double(op):
    """A LOG/SIN/COS result: `op` in double precision, rounded once to binary32."""
    return staticmethod(lambda x: np.float32(op(np.float64(x))))


class Binary32(transforms.Float64):
    """Pipeline evaluator: the core results on whole binary32 batches.

    No flags are formed here; `core_*` add them to the same results.
    """

    dtype = np.float32
    log, sin, cos = _in_double(np.log), _in_double(np.sin), _in_double(np.cos)

    @staticmethod
    def core_counts(algo, k, accepted, rejected):
        """Core invocation totals of `accepted` and `rejected` graph passes."""
        counts = Counter()
        for ok, passes in ((True, accepted), (False, rejected)):
            if passes:
                for core, n in expected_core_counts(algo, k=k, accepted=ok).items():
                    counts[core] += n * passes
        return dict(counts)


def _no_port(r):
    """Constant flag of a port the core lacks, shaped like r without allocating."""
    return np.broadcast_to(False, r.shape) if r.shape else False


def _log_flags(xs, r):
    (x,) = xs
    return (r == 0, (x != x) | (x < 0)) + (_no_port(r),) * 2


def _trig_flags(xs, r):
    return (_no_port(r),) * 4


def _div_flags(xs, q):
    a, b = xs
    return (q == 0, q != q,
            (abs(q) == _INF) & (abs(a) < _INF) & (abs(b) < _INF) & (b != 0),
            (abs(q) < _SMALLEST_NORMAL) & (a != 0) & (b != 0))


def _sqrt_flags(xs, r):
    return r == 0, r != r, r == _INF, _no_port(r)


def _arith_flags(xs, r):
    """MUL/ADD: the generic IEEE-derived flags."""
    a, b = xs
    return (r == 0, r != r,
            (abs(r) == _INF) & (abs(a) < _INF) & (abs(b) < _INF),
            (r != 0) & (abs(r) < _SMALLEST_NORMAL))


#: The seven cores by evaluator operation: (result operation, flag rule).  A
#: rule maps (inputs, result) to (zero, nan, overflow, underflow).
_CORES = {name: (getattr(Binary32, name), rule) for name, rule in (
    ("log", _log_flags), ("sin", _trig_flags), ("cos", _trig_flags),
    ("sqrt", _sqrt_flags), ("mul", _arith_flags), ("add", _arith_flags),
    ("div", _div_flags))}


def _flagged(core, xs, r):
    """The CoreResult of one invocation; call under `_quiet`."""
    return CoreResult(r, *_CORES[core][1](xs, r))


def _binary32(xs):
    """Operands `xs` as binary32 scalars; those that already are are kept."""
    return [x if type(x) is np.float32 else np.float32(x) for x in xs]


def _run_core(core, *xs):
    """A public core: its result and flags on binary32 operands, in one errstate."""
    with _quiet():
        xs = _binary32(xs)
        return _flagged(core, xs, _CORES[core][0](*xs))


def core_log(x):
    """Natural logarithm core (binary32 in, binary32 out)."""
    return _run_core("log", x)


def core_sin(x):
    """Sine core.  No exception ports."""
    return _run_core("sin", x)


def core_cos(x):
    """Cosine core.  No exception ports."""
    return _run_core("cos", x)


def core_sincos(x, mode):
    """Trigonometric core; `mode` is "sin" or "cos".  No exception ports."""
    if mode not in ("sin", "cos"):
        raise ValueError(f"mode must be 'sin' or 'cos', got {mode!r}")
    return core_sin(x) if mode == "sin" else core_cos(x)


def core_div(a, b):
    """Correctly rounded binary32 division with the documented flag set."""
    return _run_core("div", a, b)


def core_sqrt(x):
    """Correctly rounded binary32 square root with the documented flag set."""
    return _run_core("sqrt", x)


def core_mul(a, b):
    return _run_core("mul", a, b)


def core_add(a, b):
    return _run_core("add", a, b)


class _Rejected(Exception):
    """A traced polar proposal fell outside the unit disk."""


def _flag_counts(results):
    """How many of the CoreResults `results` raised each flag."""
    return Counter(n for r in results for n, on in r.flags.items() if on)


class PipelineTrace:
    """Per-invocation record of core activity, and the evaluator that makes it.

    As the evaluator of one `run_graph` pass, a trace runs `Binary32`'s
    operations and appends each invocation flat to one list, four entries
    per invocation: core, result, first operand, second operand (None for
    the one-operand cores).  However long, a retained trace is two
    GC-tracked objects, itself and that list.  The rest is formed when read:
    `records` rebuilds the (core, inputs, result) tuples, and `results`,
    `flag_counts` and `to_dict` apply each core's flag rule, the rule the
    public `core_*` functions apply.  `to_dict` renders the records with
    hex bit patterns and per-record flags.  Traces are plain per-call
    values and are never shared between graph invocations.
    """

    __slots__ = ("_log",)
    # the architectures' constants, made once per value (none is a signed
    # zero, which would share a cache key with its opposite)
    dtype = staticmethod(functools.cache(np.float32))

    def __init__(self):
        self._log = []

    @staticmethod
    def accept(keep, *xs):
        if not keep:
            raise _Rejected
        return xs

    @property
    def records(self):
        """The (core, inputs, result) of each invocation, in order."""
        return [(core, (a,) if b is None else (a, b), r)
                for core, r, a, b in zip(*[iter(self._log)] * 4)]

    def results(self):
        """The CoreResult of each record, its flags formed now."""
        with _quiet():
            return [_flagged(*rec) for rec in self.records]

    @property
    def counts(self):
        return Counter(self._log[::4])

    @property
    def flag_counts(self):
        return _flag_counts(self.results())

    def to_dict(self):
        results = self.results()
        return {
            "records": [{"core": core,
                         "input_bits_hex": [_hex32(v) for v in inputs],
                         "output_bits_hex": _hex32(r.result),
                         "flags": {n: bool(on) for n, on in r.flags.items()}}
                        for (core, inputs, _), r in zip(self.records, results)],
            "counts": dict(self.counts),
            "flag_counts": dict(_flag_counts(results)),
        }


def _recorded(core, op):
    """Evaluator operation `core`: `op`, logged flat in the trace."""
    def recorded(self, a, b=None):
        r = op(a) if b is None else op(a, b)
        self._log.extend((core, r, a, b))
        return r
    return recorded


def _scalar_in_double(op):
    """A traced LOG/SIN/COS result: `Binary32`'s float64 ufunc `op` on the
    operand as a Python float, which skips boxing it to np.float64."""
    return lambda x: np.float32(op(float(x)))


_SCALAR_OPS = {name: _scalar_in_double(getattr(np, name))
               for name in ("log", "sin", "cos")}
for _core, (_op, _) in _CORES.items():
    setattr(PipelineTrace, _core, _recorded(_core, _SCALAR_OPS.get(_core, _op)))


def uniform_to_f32(word, order):
    """Convert an n-bit LFSR word to the binary32 nearest word / 2**n."""
    return np.float32(float(word) * 2.0 ** -order)


#: Each architecture under one np.errstate(all="ignore"), made once: a
#: traced pass records floating-point errors as flags, not warnings.
_QUIET_ARCHITECTURES = {algo: _quiet()(graph)
                        for algo, graph in transforms.ARCHITECTURES.items()}


def run_graph(algo, inputs, *, k=None):
    """Evaluate one architecture graph on binary32 inputs.

    Returns (outputs, trace).  Inputs: (u1, u2) for box-muller, disk
    coordinates (v1, v2) for polar, k uniforms for clt (k defaults to their
    count); any other count raises `transforms.LengthMismatchError`.  A
    rejected polar proposal returns no outputs and a trace holding only the
    two squaring multipliers and the adder that computed s.
    """
    t = PipelineTrace()
    xs = _binary32(inputs)
    n = transforms.arity(algo, len(xs) if k is None else k)
    if len(xs) != n or n < 2:
        raise transforms.LengthMismatchError(
            f"{algo} graph takes {n} inputs, got {len(xs)}")
    try:
        outputs = _QUIET_ARCHITECTURES[algo](t, xs)
    except _Rejected:
        return [], t
    return list(outputs), t


@functools.lru_cache
def _traced_counts(algo, k, accepted):
    # (1, 1) lies outside the polar disk; the other graphs accept every input
    _, trace = run_graph(algo, [0.5 if accepted else 1.0] * transforms.arity(algo, k))
    return tuple(trace.counts.items())


def expected_core_counts(algo, *, k=12, accepted=True):
    """Invocation counts of one graph pass (one pair, or one value),
    traced from one pass of the architecture's definition."""
    return dict(_traced_counts(algo, k, accepted))


def pipeline_stream(algo, sources, count, *, clt):
    """`transforms.stream` in pipeline mode.  Nothing in the package calls
    it; it stays because `perfbench/traced.py` wraps it by name."""
    return transforms.stream(algo, sources, count, mode="pipeline", clt=clt)
