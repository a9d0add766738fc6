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
`evaluate` is the one batch driver of both modes, and `stream` its entry.
"""

from __future__ import annotations

import math
import operator
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
    """Uniform vector length does not match the configured k."""


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


class Float64:
    """Reference evaluator: numpy float64 operations on whole batches."""

    mode = "reference"
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
    algorithm: str
    mode: str = "reference"
    pairs_proposed: int = 0
    pairs_accepted: int = 0
    core_counts: Optional[dict] = None


def evaluate(ev, algo, sources, count, clt):
    """Run `algo`'s architecture over `sources` under evaluator `ev`.

    The batch driver of both modes; see `stream` for the contract.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if count < 0:
        raise ValueError("count must be >= 0")
    arity = clt.k if algo == "clt" else 2
    if len(sources) != arity:
        raise LengthMismatchError(
            f"{algo} needs {arity} uniform sources, got {len(sources)}")
    width = 1 if algo == "clt" else 2
    graph = ARCHITECTURES[algo]
    one, two = ev.dtype(1.0), ev.dtype(2.0)
    chunks = [np.empty(0, dtype=ev.dtype)]  # all there is when count == 0
    have = proposed = 0
    while have < count:
        passes = -(-(count - have) // width)
        if algo == "polar":
            # under-propose slightly (acceptance rate is pi/4 ~ 0.785) so the
            # final top-up blocks stay small and consumption stays near 4/pi
            passes = max(256, int(passes / 0.80) + 1)
        inputs = (src.uniforms(passes, ev.dtype) for src in sources)
        if algo == "polar":
            inputs = [two * u - one for u in inputs]
        chunks.append(np.stack(graph(ev, inputs), axis=1).reshape(-1))
        have += chunks[-1].size
        proposed += passes
    accepted = have // width
    values = np.concatenate(chunks) if len(chunks) > 2 else chunks[-1]
    polar = algo == "polar"
    return StreamResult(
        values=values[:count], uniforms_consumed=arity * proposed,
        algorithm=algo, mode=ev.mode,
        pairs_proposed=proposed if polar else 0,
        pairs_accepted=accepted if polar else 0,
        core_counts=ev.core_counts(algo, clt.k, accepted, proposed - accepted),
    )


def stream(algo, sources, count, *, mode="reference", clt=CltConfig()):
    """Draw exactly `count` Gaussian values from the given uniform sources.

    sources is a list of LfsrState instances owned by this call: two for
    box-muller and polar (feeding u1 and u2), k for clt (one per summand).
    Pair algorithms emit alpha then beta per draw; for odd counts the final
    beta is discarded but its uniforms are still consumed.  Polar advances
    its sources in proposal blocks, so uniforms_consumed can slightly
    exceed the minimum needed to reach `count` outputs.
    """
    if mode == "pipeline":
        from . import fp_pipeline

        return fp_pipeline.pipeline_stream(algo, sources, count, clt=clt)
    if mode != "reference":
        raise ValueError(f"unknown mode {mode!r}")
    return evaluate(Float64, algo, sources, count, clt)
