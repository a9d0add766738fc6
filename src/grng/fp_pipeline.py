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
is written with numpy operations only, so it takes a binary32 scalar or
array and returns a result and flags of the same shape.

The three published architectures are defined once, in
`transforms.ARCHITECTURES`, as functions of an evaluator.  This module
adds two evaluators to the float64 reference one:

* `Binary32` -- the core results on whole batches, without flags; the
  batch generator `pipeline_stream` runs it.
* the traced evaluator of `run_graph` -- a batch of one that goes through
  the cores and records every invocation in a `PipelineTrace`.

The batch generator is therefore bit-identical to chaining `run_graph`
calls by construction, and the per-pass invocation counts
(`expected_core_counts`) come from tracing one pass: box-muller uses LOG,
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
from dataclasses import dataclass, field

import numpy as np

from . import transforms

__all__ = [
    "ArityMismatchError",
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
    "f32",
    "f32_from_bits",
    "f32_to_bits",
    "pipeline_stream",
    "run_graph",
    "uniform_to_f32",
]

_INF = np.float32(np.inf)
_SMALLEST_NORMAL = np.float32(2.0 ** -126)
_quiet = functools.partial(np.errstate, all="ignore")


class ArityMismatchError(ValueError):
    """Input count does not match the architecture graph."""


def f32(x):
    """Round any real to binary32 (nearest even)."""
    return np.float32(x)


def f32_to_bits(x):
    """Bit pattern of a binary32 value as an int."""
    return int(np.float32(x).view(np.uint32))


def f32_from_bits(bits):
    """Binary32 value for a 32-bit pattern."""
    return np.uint32(bits).view(np.float32)


_BIG_ENDIAN = slice(None, None, -1 if np.little_endian else 1)


def _hex32(x):
    if type(x) is not np.float32:
        x = np.float32(x)
    return x.tobytes()[_BIG_ENDIAN].hex()


@dataclass(frozen=True)
class CoreResult:
    """Binary32 core output with its exception flags."""

    result: np.float32
    zero: bool = False
    nan: bool = False
    overflow: bool = False
    underflow: bool = False

    @property
    def flags(self):
        return {"zero": self.zero, "nan": self.nan,
                "overflow": self.overflow, "underflow": self.underflow}


@dataclass
class PipelineTrace:
    """Per-invocation record of core activity.

    Traces are plain per-call values and are never shared between graph
    invocations.  Latencies are metadata only: they contribute to
    total_cycles but never change any computed value.  Asynchronous-clear
    events (`aclr`) are likewise recorded as sentinel entries only.
    """

    latencies: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    flag_counts: Counter = field(default_factory=Counter)
    total_cycles: int = 0

    def record(self, core, inputs, result):
        cycles = self.latencies.get(core, 1)
        flags = {name: bool(on) for name, on in result.flags.items()}
        self.counts[core] += 1
        self.total_cycles += cycles
        self.flag_counts.update(name for name, on in flags.items() if on)
        self.records.append({
            "core": core,
            "input_bits_hex": [_hex32(v) for v in inputs],
            "output_bits_hex": _hex32(result.result),
            "flags": flags,
            "cycles": cycles,
        })
        return result

    def clear_event(self, core):
        """Record an asynchronous clear: a sentinel entry, no datapath effect."""
        self.records.append({"core": core, "event": "aclr"})

    def to_dict(self):
        return {
            "records": self.records,
            "counts": dict(self.counts),
            "flag_counts": dict(self.flag_counts),
            "total_cycles": self.total_cycles,
        }


class Binary32(transforms.Float64):
    """Pipeline evaluator: the core results on whole binary32 batches.

    No flags are formed here; `core_*` add them to the same results.
    """

    mode = "pipeline"
    dtype = np.float32

    @staticmethod
    def log(x):
        return np.float32(np.log(np.float64(x)))

    @staticmethod
    def sin(x):
        return np.float32(np.sin(np.float64(x)))

    @staticmethod
    def cos(x):
        return np.float32(np.cos(np.float64(x)))

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


def _finite(x):
    return abs(x) < _INF


def _arith(op, a, b):
    """A MUL/ADD core: op's result with the generic IEEE-derived flags."""
    a, b = np.float32(a), np.float32(b)
    with _quiet():
        r = op(a, b)
    return CoreResult(result=r, zero=r == 0, nan=r != r,
                      overflow=(abs(r) == _INF) & _finite(a) & _finite(b),
                      underflow=(r != 0) & (abs(r) < _SMALLEST_NORMAL))


def core_log(x):
    """Natural logarithm core (binary32 in, binary32 out)."""
    x = np.float32(x)
    with _quiet():
        r = Binary32.log(x)
    return CoreResult(result=r, zero=r == 0, nan=(x != x) | (x < 0),
                      overflow=_no_port(r), underflow=_no_port(r))


def core_sincos(x, mode):
    """Trigonometric core; `mode` is "sin" or "cos".  No exception ports."""
    if mode not in ("sin", "cos"):
        raise ValueError(f"mode must be 'sin' or 'cos', got {mode!r}")
    x = np.float32(x)
    with _quiet():
        r = getattr(Binary32, mode)(x)
    none = _no_port(r)
    return CoreResult(result=r, zero=none, nan=none, overflow=none, underflow=none)


def core_sin(x):
    return core_sincos(x, "sin")


def core_cos(x):
    return core_sincos(x, "cos")


def core_div(a, b):
    """Correctly rounded binary32 division with the documented flag set."""
    a, b = np.float32(a), np.float32(b)
    with _quiet():
        q = Binary32.div(a, b)
    nonzero_inputs = (a != 0) & (b != 0)
    return CoreResult(
        result=q, zero=q == 0, nan=q != q,
        overflow=(abs(q) == _INF) & _finite(a) & _finite(b) & (b != 0),
        underflow=(abs(q) < _SMALLEST_NORMAL) & nonzero_inputs,
    )


def core_sqrt(x):
    """Correctly rounded binary32 square root with the documented flag set."""
    x = np.float32(x)
    with _quiet():
        r = Binary32.sqrt(x)
    return CoreResult(result=r, zero=r == 0, nan=r != r, overflow=r == _INF,
                      underflow=_no_port(r))


def core_mul(a, b):
    return _arith(Binary32.mul, a, b)


def core_add(a, b):
    return _arith(Binary32.add, a, b)


def uniform_to_f32(word, order):
    """Convert an n-bit LFSR word to the binary32 nearest word / 2**n."""
    return np.float32(float(word) * 2.0 ** -order)


class _Rejected(Exception):
    """A traced polar proposal fell outside the unit disk."""


class _Traced:
    """Batch-of-one evaluator: every operation runs its core and is recorded."""

    dtype = np.float32

    def __init__(self, trace):
        self.trace = trace

    def _run(self, name, core, *xs):
        return self.trace.record(name, xs, core(*xs)).result

    def log(self, x):
        return self._run("log", core_log, x)

    def sin(self, x):
        return self._run("sin", core_sin, x)

    def cos(self, x):
        return self._run("cos", core_cos, x)

    def sqrt(self, x):
        return self._run("sqrt", core_sqrt, x)

    def mul(self, a, b):
        return self._run("mul", core_mul, a, b)

    def add(self, a, b):
        return self._run("add", core_add, a, b)

    def div(self, a, b):
        return self._run("div", core_div, a, b)

    @staticmethod
    def accept(keep, *xs):
        if not keep:
            raise _Rejected
        return xs


def run_graph(algo, inputs, *, k=None, latencies=None, trace=None):
    """Evaluate one architecture graph on binary32 inputs.

    Returns (outputs, trace).  Inputs: (u1, u2) for box-muller, disk
    coordinates (v1, v2) for polar, k uniforms for clt.  A rejected polar
    proposal returns no outputs and a trace holding only the two squaring
    multipliers and the adder that computed s.
    """
    t = trace if trace is not None else PipelineTrace(latencies=latencies or {})
    xs = [np.float32(v) for v in inputs]
    if algo not in transforms.ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "clt":
        kk = k if k is not None else len(xs)
        if len(xs) != kk or kk < 2:
            raise ArityMismatchError(f"clt graph takes k={kk} inputs, got {len(xs)}")
    elif len(xs) != 2:
        raise ArityMismatchError(f"{algo} graph takes 2 inputs")
    try:
        outputs = transforms.ARCHITECTURES[algo](_Traced(t), xs)
    except _Rejected:
        return [], t
    return list(outputs), t


@functools.lru_cache
def _traced_counts(algo, k, accepted):
    if algo == "clt":
        inputs = [0.5] * k
    else:  # (1, 1) lies outside the polar disk
        inputs = [0.5, 0.5] if accepted else [1.0, 1.0]
    _, trace = run_graph(algo, inputs)
    return tuple(trace.counts.items())


def expected_core_counts(algo, *, k=12, accepted=True):
    """Invocation counts of one graph pass (one pair, or one value),
    traced from one pass of the architecture's definition."""
    return dict(_traced_counts(algo, k if algo == "clt" else 0,
                               accepted or algo != "polar"))


def pipeline_stream(algo, sources, count, *, clt=None):
    """Batch pipeline-mode generation; see transforms.stream for the contract."""
    return transforms.evaluate(Binary32, algo, sources, count,
                               clt or transforms.CltConfig())
