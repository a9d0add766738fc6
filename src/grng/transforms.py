"""The three uniform-to-Gaussian transform algorithms.

Each algorithm turns uniforms into standard-normal values.  The uniforms
lie in the open interval (0, 1) in float64 and in (0, 1] in binary32,
whose rounding can reach 1.0f: every order-32 word >= 2^32 - 2^7 does.

* ``box-muller`` -- radius sqrt(-2 ln u1) and angle 2*pi*u2 give an exact
  pair per two uniforms.
* ``polar`` -- rejection sampling of the unit disk; the canonical mapping
  v = 2u - 1 makes the output bilateral directly, so no extra sign streams
  are needed.  Proposals landing outside the disk (or exactly on the
  origin) are rejected, which is a normal outcome rather than an error.
* ``clt`` -- the standardized sum of k uniforms, z = (S - k/2)/sqrt(k/12);
  the exact law is the Irwin-Hall distribution, so the output support is
  bounded by |z| <= sqrt(3k).

Scalar operations are the per-sample contract surface, evaluated with
math.* in double precision; they stay independent of the batch path, which
tests compare against them.  The batch datapath of each algorithm is
written once, in `ARCHITECTURES`, as a function of an evaluator that
supplies log, sin, cos, sqrt, mul, add and div: `Float64` here (reference
mode), and the binary32 and traced binary32 evaluators of `fp_pipeline`.
`evaluator` maps a mode to its evaluator.  `evaluate`, the one batch
driver of both modes, yields the values in rounds of bounded size and
whole pairs, each drawn into one round buffer that it reuses and cut into
blocks that run on every core, and closes the gaps polar's rejections
leave in place.  `stream` joins the rounds into one array; the CLI writes
them as they come.
`arity` owns the number of uniforms one pass reads, which sizes the sources
here, the traced passes of `fp_pipeline` and the LFSR streams of `cli`.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = [
    "ALGORITHMS",
    "ARCHITECTURES",
    "CltConfig",
    "DomainError",
    "Float64",
    "GaussianPair",
    "LengthMismatchError",
    "MODES",
    "PolarDraw",
    "StreamResult",
    "arity",
    "box_muller",
    "central_limit",
    "evaluate",
    "evaluator",
    "polar",
    "polar_draw",
    "stream",
]

_TWO_PI = 2.0 * math.pi
# mean and variance of U(0, 1)
_HALF = 0.5
_TWELFTH = 1.0 / 12.0


class DomainError(ValueError):
    """Uniform input outside the open interval (0, 1)."""


class LengthMismatchError(ValueError):
    """Uniform count does not match what one pass of the algorithm reads."""


@dataclass(frozen=True)
class GaussianPair:
    alpha: float
    beta: float


@dataclass(frozen=True)
class CltConfig:
    """Sum-of-uniforms setup: k summands of U(0, 1).

    Each summand has mean 1/2 and variance 1/12, so with k = 12 the
    standardizing divisor sqrt(k/12) is exactly 1.
    """

    k: int = 12

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")

    @property
    def support_bound(self):
        """Largest possible |z|: (k/2) / sqrt(k/12) = sqrt(3k)."""
        return math.sqrt(3 * self.k)


@dataclass(frozen=True)
class PolarDraw:
    """One polar proposal: disk coordinates, squared radius, accept flag."""

    v1: float
    v2: float
    s: float
    accepted: bool


def _value(u):
    """Accept either a UniformSample or a bare float."""
    return u.value if hasattr(u, "value") else float(u)


def _check_open_unit(name, x):
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie strictly in (0, 1), got {x!r}")


def box_muller(u1, u2):
    """Exact transform: alpha = r sin(theta), beta = r cos(theta).

    r = sqrt(-2 ln u1), theta = 2 pi u2.  Both outputs are marginally
    standard normal for i.i.d. uniform inputs, and alpha^2 + beta^2 equals
    -2 ln u1 up to rounding.
    """
    x1, x2 = _value(u1), _value(u2)
    _check_open_unit("u1", x1)
    _check_open_unit("u2", x2)
    r = math.sqrt(-2.0 * math.log(x1))
    theta = _TWO_PI * x2
    return GaussianPair(alpha=r * math.sin(theta), beta=r * math.cos(theta))


def polar_draw(u1, u2):
    """Map two uniforms onto the square (-1,1)^2 and test the unit disk.

    s = 0 (both coordinates exactly zero) is rejected like s >= 1 because
    ln(0) is undefined; it is unreachable from the LFSR uniforms in double
    precision but reachable in the binary32 pipeline.
    """
    x1, x2 = _value(u1), _value(u2)
    _check_open_unit("u1", x1)
    _check_open_unit("u2", x2)
    v1 = 2.0 * x1 - 1.0
    v2 = 2.0 * x2 - 1.0
    s = v1 * v1 + v2 * v2
    return PolarDraw(v1=v1, v2=v2, s=s, accepted=0.0 < s < 1.0)


def polar(u1, u2):
    """One polar proposal; returns the Gaussian pair or None on rejection."""
    d = polar_draw(u1, u2)
    if not d.accepted:
        return None
    factor = math.sqrt(-2.0 * math.log(d.s) / d.s)
    return GaussianPair(alpha=d.v1 * factor, beta=d.v2 * factor)


def central_limit(us, config=CltConfig()):
    """Standardized sum of config.k uniforms: (S - k/2) / sqrt(k/12)."""
    values = [_value(u) for u in us]
    if len(values) != config.k:
        raise LengthMismatchError(
            f"expected {config.k} uniforms, got {len(values)}"
        )
    for v in values:
        _check_open_unit("u", v)
    total = math.fsum(values)
    return (total - config.k * _HALF) / math.sqrt(config.k * _TWELFTH)


# -- architectures ------------------------------------------------------------
#
# One definition per datapath.  `ev` supplies the seven cores (log, sin,
# cos, sqrt, mul, add, div), the number type `dtype` its constants are
# built in, and `accept(keep, *xs)`, which keeps the proposals a mask
# selects.  The order of operations is the order of the hardware cores:
# the traced evaluator records them in this order.


def _box_muller(ev, inputs):
    """u1 then u2 in (an iterable, each drawn when it is first used)."""
    inputs = iter(inputs)
    r = ev.sqrt(ev.mul(ev.dtype(-2.0), ev.log(next(inputs))))
    theta = ev.mul(ev.dtype(_TWO_PI), next(inputs))
    s, c = ev.sin(theta), ev.cos(theta)
    return ev.mul(r, s), ev.mul(r, c)


def _polar(ev, inputs):
    """Disk coordinates in; proposals with s outside (0, 1) drop out."""
    v1, v2 = inputs
    s = ev.add(ev.mul(v1, v1), ev.mul(v2, v2))
    v1, v2, s = ev.accept((s > 0) & (s < 1), v1, v2, s)
    r = ev.sqrt(ev.div(ev.mul(ev.dtype(-2.0), ev.log(s)), s))
    return ev.mul(v1, r), ev.mul(v2, r)


def _clt(ev, inputs):
    """k uniforms in (an iterable, summed as it is drawn)."""
    inputs = iter(inputs)
    acc, k = next(inputs), 1
    try:
        while True:
            # a summand bound to no name: numpy may sum a batch into its buffer
            acc = ev.add(acc, next(inputs))
            k += 1
    except StopIteration:
        pass
    kf = ev.dtype(k)
    acc = ev.add(acc, -ev.mul(kf, ev.dtype(_HALF)))  # the sum freed: S - k/2
    den = ev.sqrt(ev.mul(kf, ev.dtype(_TWELFTH)))
    return (ev.div(acc, den),)


#: Datapath of each algorithm, as a function of (evaluator, graph inputs).
ARCHITECTURES = {"box-muller": _box_muller, "polar": _polar, "clt": _clt}

#: Algorithm identifiers shared with the CLI.
ALGORITHMS = tuple(ARCHITECTURES)
MODES = ("reference", "pipeline")  # index = bin header mode code; keep order


def arity(algo, k):
    """Uniforms one pass of `algo` reads: k for clt, 2 otherwise."""
    if algo not in ARCHITECTURES:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    return k if algo == "clt" else 2


class Float64:
    """Reference evaluator: numpy float64 operations on whole batches."""

    dtype = np.float64
    log, sin, cos, sqrt = np.log, np.sin, np.cos, np.sqrt
    # the operators run numpy's ufuncs on arrays and its scalar fast path
    # on the scalars of a traced pass
    mul, add, div = operator.mul, operator.add, operator.truediv

    @staticmethod
    def accept(keep, *xs):
        return [x[keep] for x in xs]

    @staticmethod
    def core_counts(algo, k, accepted, rejected):
        """Core invocation totals; the reference datapath has no cores."""
        return None


# -- batch driver -------------------------------------------------------------


@dataclass
class StreamResult:
    """Batch output plus consumption accounting.

    values is float64 in reference mode and float32 in pipeline mode.
    pairs_proposed / pairs_accepted are populated by the polar algorithm;
    core_counts is populated in pipeline mode (core invocation totals).
    """

    values: np.ndarray
    uniforms_consumed: int
    pairs_proposed: int = 0
    pairs_accepted: int = 0
    core_counts: Optional[dict] = None


#: Fewest passes worth a block of their own.  A round shorter than twice
#: this runs as one block in the calling thread; each further block costs
#: a thread and one `LfsrState.jump` per source.  Below it, a second
#: thread did not pay on a 2-vCPU host: 2^16-pass blocks made clt slower.
_MIN_BLOCK = 1 << 17

#: Most values a round draws per core, so that the round buffer and each
#: block's uniforms and temporaries stay bounded whatever the count.
#: These are 2^17 passes per core for box-muller and polar, 2^18 for clt.
_ROUND = 1 << 18


def _cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _block_starts(passes):
    """First pass of each block a round of `passes` passes is cut into:
    one block per core, in equal parts of at least `_MIN_BLOCK` passes."""
    blocks = max(1, min(passes // _MIN_BLOCK, _cores()))
    return [passes * b // blocks for b in range(blocks)]


def _in_threads(calls):
    """Results of the zero-argument `calls`, in order.

    Each call runs in a copy of this thread's context, so it sees the
    caller's `np.errstate`: the first in this thread, each other in a
    thread of its own.  The first exception of a call, in call order, is
    raised here as it was raised.
    """
    results = [None] * len(calls)

    def run(i, context):
        try:
            results[i] = False, context.run(calls[i])
        except BaseException as exc:  # raised again in the calling thread
            results[i] = True, exc

    started = []
    try:
        for i in range(1, len(calls)):
            t = threading.Thread(target=run, args=(i, contextvars.copy_context()))
            t.start()
            started.append(t)
        run(0, contextvars.copy_context())
    finally:  # no block outlives the call, even if a thread fails to start
        for t in started:
            t.join()
    for failed, value in results:
        if failed:
            raise value
    return [value for _, value in results]


def evaluate(ev, algo, sources, count, clt):
    """Run `algo`'s architecture over `sources` under evaluator `ev`, in rounds.

    The batch driver of both modes; see `stream` for the contract.  Yields
    one `StreamResult` per round: `values` holds the round's values, a view
    of one round buffer that the next round overwrites, and the counts are
    the run's totals through that round.  A run of no values yields one
    empty round.  A round draws at most `_cores()` * `_ROUND` values,
    rounded down to an even number, so every round but the last holds an
    even number of values, whole pairs.  It is cut into contiguous blocks
    (`_block_starts`): block b draws from every source jumped ahead to its
    first word, the blocks run on as many threads as there are blocks, and
    each writes into the round buffer from the row of its first pass on;
    the gaps polar's rejections leave are closed before the round is
    yielded.  Polar plans its proposal rounds from the values still needed
    and draws each planned round to its end, in as many rounds as the
    bound needs.  As `words(a)` then `words(b)` is `words(a + b)`, the
    bytes, the accounting and the sources' final state do not depend on
    how the passes are cut.
    """
    n = arity(algo, clt.k)
    if count < 0:
        raise ValueError("count must be >= 0")
    if len(sources) != n:
        raise LengthMismatchError(
            f"{algo} needs {n} uniform sources, got {len(sources)}")
    polar = algo == "polar"
    width = 1 if algo == "clt" else 2
    graph = ARCHITECTURES[algo]

    def block(srcs, a, b, out):
        """Passes a to b of the round from `srcs`, which stand at its first
        word, stacked into `out` from row 0; returns the rows written."""
        if a:
            for src in srcs:
                src.jump(a)
        inputs = (src.uniforms(b - a, ev.dtype) for src in srcs)
        if polar:
            inputs = (ev.dtype(2.0) * u - ev.dtype(1.0) for u in inputs)
        outs = graph(ev, inputs)
        np.stack(outs, axis=1, out=out[:len(outs[0])])
        return len(outs[0])

    def plan(have):
        # polar under-proposes slightly (acceptance rate is pi/4 ~ 0.785) so
        # the final top-up rounds stay small and consumption stays near 4/pi
        return max(256, int((need - have) / 0.80) + 1) if polar else need - have

    need = -(-count // width)
    most = max(1, _cores() * _ROUND // 2) * 2 // width  # passes of an even round
    rows = np.empty((min(plan(0), most) if need else 0, width), ev.dtype)
    values = rows.reshape(-1)
    have = proposed = done = 0
    while have < need:
        planned = plan(have)
        for lo in range(0, planned, most):
            passes = min(most, planned - lo)
            starts = _block_starts(passes)
            # every block but the last draws from copies; the last from
            # `sources` themselves, so the round leaves them where one block would
            srcs = [[copy.copy(src) for src in sources] for _ in starts[1:]] + [sources]
            ends = _in_threads([
                functools.partial(block, s, a, b, rows[a:])
                for s, a, b in zip(srcs, starts, starts[1:] + [passes])])
            at = 0
            for a, rows_written in zip(starts, ends):
                if a > at:  # close the gap polar's rejections left
                    rows[at:at + rows_written] = rows[a:a + rows_written]
                at += rows_written
            have += at
            proposed += passes
            take = min(width * at, count - done)
            done += take
            yield StreamResult(
                values=values[:take], uniforms_consumed=n * proposed,
                pairs_proposed=proposed if polar else 0,
                pairs_accepted=have if polar else 0,
                core_counts=ev.core_counts(algo, clt.k, have, proposed - have))
    if not proposed:
        yield StreamResult(values=values, uniforms_consumed=0,
                           core_counts=ev.core_counts(algo, clt.k, 0, 0))


def evaluator(mode):
    """The evaluator of `mode` in `MODES`, whose `dtype` is its sample type:
    `Float64` or `fp_pipeline.Binary32`; any other mode is a ValueError."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "pipeline":
        from . import fp_pipeline  # it imports this module

        return fp_pipeline.Binary32
    return Float64


def stream(algo, sources, count, *, mode="reference", clt=CltConfig()):
    """Draw exactly `count` Gaussian values from the given uniform sources.

    sources is a list of LfsrState instances owned by this call: two for
    box-muller and polar (feeding u1 and u2), k for clt (one per summand).
    Pair algorithms emit alpha then beta per draw; for odd counts the final
    beta is discarded but its uniforms are still consumed.  Polar advances
    its sources in proposal rounds, so uniforms_consumed can slightly
    exceed the minimum needed to reach `count` outputs.

    `evaluate` draws the run under `evaluator(mode)` in rounds, cut into
    blocks that run on every CPU this process may run on, and `stream`
    copies each round into `values` as it comes.  The output, the
    accounting and the sources' final `register` and `steps_taken` do not
    depend on the thread count or the round bound; an exception in a block
    is raised here.
    """
    out, at = None, 0
    for result in evaluate(evaluator(mode), algo, sources, count, clt):
        if out is None:  # the first round has passed `evaluate`'s checks
            out = np.empty(count, result.values.dtype)
        out[at:at + result.values.size] = result.values
        at += result.values.size
    return replace(result, values=out)
