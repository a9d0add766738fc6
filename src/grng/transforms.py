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
`evaluate` is the one batch driver of both modes, and `stream` its entry;
it cuts each round of passes into blocks that run on every core, and each
block writes its passes in steps of bounded size into one output buffer,
whose gaps (polar's rejections) are closed in place.
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
from dataclasses import dataclass
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
    "PolarDraw",
    "StreamResult",
    "arity",
    "box_muller",
    "central_limit",
    "evaluate",
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
    u1, u2 = inputs
    r = ev.sqrt(ev.mul(ev.dtype(-2.0), ev.log(u1)))
    theta = ev.mul(ev.dtype(_TWO_PI), u2)
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
    for u in inputs:
        acc, k = ev.add(acc, u), k + 1
        del u  # a batch summand is freed before the next one is drawn
    kf = ev.dtype(k)
    num = ev.add(acc, -ev.mul(kf, ev.dtype(_HALF)))
    den = ev.sqrt(ev.mul(kf, ev.dtype(_TWELFTH)))
    return (ev.div(num, den),)


#: Datapath of each algorithm, as a function of (evaluator, graph inputs).
ARCHITECTURES = {"box-muller": _box_muller, "polar": _polar, "clt": _clt}

#: Algorithm identifiers shared with the CLI.
ALGORITHMS = tuple(ARCHITECTURES)


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

#: Most passes a block draws at once, so that its uniforms and the
#: architecture's temporaries stay bounded whatever the block's length.
#: Smaller steps cost clt time: each step makes k `words` calls that hold
#: the GIL, and on a 2-vCPU host 4x10^6 clt samples on two threads took
#: 0.48 s in 2^16-pass steps against 0.32 s in 2^18-pass steps.
_STEP = 1 << 18


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
    """Run `algo`'s architecture over `sources` under evaluator `ev`.

    The batch driver of both modes; see `stream` for the contract.  Each
    round of passes is cut into contiguous blocks (`_block_starts`): block
    b draws from every source jumped ahead to its first word, the blocks
    run on as many threads as there are blocks, and each stacks its steps
    of at most `_STEP` passes into one buffer from the row of its first
    pass on; the gaps polar's rejections leave are closed after the round.
    As `words(a)` then `words(b)` is `words(a + b)`, the bytes, the
    accounting and the sources' final state are those of one unsplit step.
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

    def block(srcs, a, b, at):
        """Passes a to b of the round from `srcs`, which stand at its first
        word, stacked into `rows` from row `at` on; returns the row after."""
        if a:
            for src in srcs:
                src.jump(a)
        for lo in range(a, b, _STEP):
            hi = min(lo + _STEP, b)
            inputs = (src.uniforms(hi - lo, ev.dtype) for src in srcs)
            if polar:
                inputs = (ev.dtype(2.0) * u - ev.dtype(1.0) for u in inputs)
            outs = graph(ev, inputs)
            np.stack(outs, axis=1, out=rows[at:at + len(outs[0])])
            at += len(outs[0])
            del outs  # freed before the next step is drawn
        return at

    need = -(-count // width)
    # polar under-proposes slightly (acceptance rate is pi/4 ~ 0.785) so the
    # final top-up rounds stay small and consumption stays near 4/pi.  As
    # have + int((need - have) / 0.80) + 1 <= int(need / 0.80) + 1, and the
    # 256-pass floor adds at most 255 rows, no round writes past `rows`.
    rows = np.empty((int(need / 0.80) + 256 if polar else need, width), ev.dtype)
    have = proposed = 0
    while have < need:
        passes = max(256, int((need - have) / 0.80) + 1) if polar else need - have
        starts = _block_starts(passes)
        # every block but the last draws from copies; the last from
        # `sources` themselves, so the round leaves them where one block would
        srcs = [[copy.copy(src) for src in sources] for _ in starts[1:]] + [sources]
        ends = _in_threads([
            functools.partial(block, s, a, b, have + a)
            for s, a, b in zip(srcs, starts, starts[1:] + [passes])])
        for at, end in zip([have + a for a in starts], ends):
            # move the block's rows down to `have` in ascending `_STEP`-row
            # chunks, which never overwrite rows still to move
            for lo in range(at, end, _STEP) if at > have else ():
                hi = min(lo + _STEP, end)
                rows[have + lo - at:have + hi - at] = rows[lo:hi]
            have += end - at
        proposed += passes
    return StreamResult(
        values=rows.reshape(-1)[:count], uniforms_consumed=n * proposed,
        pairs_proposed=proposed if polar else 0,
        pairs_accepted=have if polar else 0,
        core_counts=ev.core_counts(algo, clt.k, have, proposed - have),
    )


def stream(algo, sources, count, *, mode="reference", clt=CltConfig()):
    """Draw exactly `count` Gaussian values from the given uniform sources.

    sources is a list of LfsrState instances owned by this call: two for
    box-muller and polar (feeding u1 and u2), k for clt (one per summand).
    Pair algorithms emit alpha then beta per draw; for odd counts the final
    beta is discarded but its uniforms are still consumed.  Polar advances
    its sources in proposal rounds, so uniforms_consumed can slightly
    exceed the minimum needed to reach `count` outputs.

    A round of at least 2 * `_MIN_BLOCK` passes is cut into equal blocks,
    one per CPU this process may run on (`os.sched_getaffinity`), each
    drawing from the sources jumped to its first word and run on a thread
    of its own in a copy of the caller's context.  Blocks write `_STEP`
    passes at a time into one buffer, so the memory beyond it stays bounded
    per block.  Polar's buffer fits its largest rounds, about 1.25 * `count`
    values: `values` is a view of its start, and its tail is never touched.
    The output, the accounting and the sources' final `register` and
    `steps_taken` do not depend on the thread count or the step; an
    exception in a block is raised here.
    """
    if mode == "pipeline":
        from . import fp_pipeline

        return fp_pipeline.pipeline_stream(algo, sources, count, clt=clt)
    if mode != "reference":
        raise ValueError(f"unknown mode {mode!r}")
    return evaluate(Float64, algo, sources, count, clt)
