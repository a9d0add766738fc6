import functools
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from _fixtures import make_sources
from grng import qkdmod, sampleio, stats, transforms
from grng.qkdmod import (
    ModulationConfig,
    SourceExhaustedError,
    pairs_to_csv,
    pairs_to_json,
    quadrature_stream,
)


class TestConfig:
    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            ModulationConfig(variance=0.0, count=1)
        with pytest.raises(ValueError):
            ModulationConfig(variance=-2.0, count=1)
        for v in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ModulationConfig(variance=v, count=1)

    def test_count_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ModulationConfig(variance=1.0, count=-1)


class TestQuadratureStream:
    def test_unit_variance_is_pass_through(self):
        g = np.array([0.3, -1.2, 0.9, 2.2])
        pairs = quadrature_stream(g, ModulationConfig(variance=1.0, count=2))
        assert np.array_equal(pairs, [[0.3, -1.2], [0.9, 2.2]])

    def test_scaling_by_sqrt_variance(self):
        pairs = quadrature_stream(np.array([1.0, -0.5]),
                                  ModulationConfig(variance=4.0, count=1))
        assert pairs[0, 0] == 2.0
        assert pairs[0, 1] == -1.0

    def test_streams_are_disjoint_subsequences(self):
        g = np.arange(20, dtype=np.float64)
        pairs = quadrature_stream(g, ModulationConfig(variance=1.0, count=10))
        assert np.array_equal(pairs[:, 0], g[0::2])
        assert np.array_equal(pairs[:, 1], g[1::2])

    def test_source_exhausted(self):
        with pytest.raises(SourceExhaustedError):
            quadrature_stream(np.zeros(5), ModulationConfig(variance=1.0,
                                                            count=3))

    def test_accepts_iterables(self):
        pairs = quadrature_stream(iter([1.0, 2.0, 3.0, 4.0]),
                                  ModulationConfig(variance=1.0, count=2))
        assert pairs.shape == (2, 2)

    def test_empirical_variance_tracks_v(self):
        n = 100_000
        v = 2.5
        res = transforms.stream("box-muller", make_sources(71, 2), 2 * n)
        pairs = quadrature_stream(res.values, ModulationConfig(variance=v,
                                                               count=n))
        band = 5.0 * v * math.sqrt(2.0 / n)
        assert abs(pairs[:, 0].var() - v) < band
        assert abs(pairs[:, 1].var() - v) < band

    def test_quadratures_uncorrelated(self):
        n = 100_000
        res = transforms.stream("polar", make_sources(73, 2), 2 * n)
        pairs = quadrature_stream(res.values, ModulationConfig(variance=1.0,
                                                               count=n))
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(n)


def _text(write, pairs):
    out = io.StringIO()
    write(pairs, out)
    return out.getvalue()


class TestExports:
    def test_csv(self):
        pairs = [[0.5, -1.5], [2.0, 0.25]]
        text = _text(pairs_to_csv, pairs)
        assert text.splitlines()[0] == "q,p"
        assert text.splitlines()[1] == "0.5,-1.5"

    def test_json_round_trip(self):
        pairs = [[0.5, -1.5], [2.0, 0.25]]
        doc = json.loads(_text(pairs_to_json, pairs))
        assert doc == [{"q": 0.5, "p": -1.5}, {"q": 2.0, "p": 0.25}]

    @pytest.mark.parametrize("size", [0, 1, sampleio._TEXT_CHUNK - 1,
                                      sampleio._TEXT_CHUNK,
                                      sampleio._TEXT_CHUNK + 1,
                                      3 * sampleio._TEXT_CHUNK + 5])
    def test_json_writer_matches_one_dumps(self, size):
        pairs = np.random.default_rng(size).standard_normal((size, 2))
        # NaN and +-inf, two of them on either side of the chunk boundary
        chunk = sampleio._TEXT_CHUNK
        for i, v in zip((0, chunk - 1, chunk), (np.nan, np.inf, -np.inf)):
            if i < size:
                pairs[i, i % 2] = v
        want = json.dumps([{"q": q, "p": p} for q, p in pairs.tolist()])
        assert _text(pairs_to_json, pairs) == want


@pytest.mark.parametrize("writer", ["pairs_to_csv", "pairs_to_json",
                                    "Histogram.to_csv"])
def test_text_writers_hold_one_chunk(monkeypatch, writer):
    """Writing into a file, a text writer's memory peak does not grow with
    the output: four chunks' worth of rows peak as one chunk's do."""
    chunk = 1 << 12  # smaller chunks, as tracing slows every allocation
    monkeypatch.setattr(sampleio, "_TEXT_CHUNK", chunk)
    peaks = []
    with open(os.devnull, "w") as sink:
        for rows in (chunk, 4 * chunk):
            pairs = np.random.default_rng(rows).standard_normal((rows, 2))
            if writer == "Histogram.to_csv":
                write = stats.build_histogram(pairs[:, 0], bins=rows).to_csv
            else:
                write = functools.partial(getattr(qkdmod, writer), pairs)
            tracemalloc.start()
            try:
                write(sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks
