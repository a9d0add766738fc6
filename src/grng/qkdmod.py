"""Gaussian quadrature modulation for coherent-state key distribution.

Maps a standard-normal stream onto (q, p) quadrature pairs in shot-noise
units with configurable modulation variance V: both quadratures are
independent zero-mean normals of variance V.  Even-indexed source values
feed q and odd-indexed values feed p, so the two quadrature streams are
disjoint subsequences of the source and no value is reused.

Channel transmission, detection and reconciliation are out of scope; this
module only prepares the modulation values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .sampleio import _arrays, _write_chunks

__all__ = [
    "ModulationConfig",
    "SourceExhaustedError",
    "pairs_to_csv",
    "pairs_to_json",
    "quadrature_stream",
]


class SourceExhaustedError(RuntimeError):
    """The Gaussian source yielded fewer values than the pairing needs."""


@dataclass(frozen=True)
class ModulationConfig:
    """Finite modulation variance V > 0 and the number of pairs to prepare."""

    variance: float
    count: int

    def __post_init__(self):
        if not 0 < self.variance < math.inf:
            raise ValueError(
                f"variance must be positive and finite, got {self.variance}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


def quadrature_stream(source, config):
    """Scale and pair a standard-normal stream into quadrature components.

    q_j = sqrt(V) * g_(2j), p_j = sqrt(V) * g_(2j+1).  `source` is any
    iterable of standard-normal values; it must supply at least 2 * count
    values or SourceExhaustedError is raised.  Returns an array of shape
    (count, 2) with columns (q, p).
    """
    g = np.fromiter(source, dtype=np.float64, count=-1) \
        if not isinstance(source, np.ndarray) else np.asarray(source, dtype=np.float64)
    needed = 2 * config.count
    if g.size < needed:
        raise SourceExhaustedError(
            f"need {needed} source values for {config.count} pairs, got {g.size}"
        )
    return math.sqrt(config.variance) * g[:needed].reshape(-1, 2)


def pairs_to_csv(pairs, out):
    """Write "q,p" then one q,p line per pair to the open text file `out`.

    `pairs` is one (count, 2) array, list or tuple, or any other iterable
    of such arrays (the rounds of a run), written as they come.
    """
    _write_chunks(out, _arrays(pairs, (2,)),
                  lambda c: "".join(f"{q!r},{p!r}\n" for q, p in c), head="q,p\n")


def pairs_to_json(pairs, out):
    """Write the text of one json.dumps of [{"q": q, "p": p}, ...] to `out`;
    `pairs` as for `pairs_to_csv`."""
    _write_chunks(out, _arrays(pairs, (2,)),
                  lambda c: json.dumps([{"q": q, "p": p} for q, p in c])[1:-1],
                  ", ", "[", "]")
