"""Text output encoded on every CPU: `sampleio._write_chunks` cuts its
chunks into one part per CPU and forks a worker for each part after the
first.  The bytes must not depend on the part count, and no worker may
outlive a write, whether it succeeds or fails."""

import functools
import io
import json
import os
import signal
import time

import numpy as np
import pytest

from _fixtures import cut_rounds
from grng import cli, qkdmod, sampleio
from grng.sampleio import write_samples

CHUNK = sampleio._TEXT_CHUNK
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


def _rows(size, width):
    """Gaussian rows with -inf, NaN and +inf in the two rows before and
    the row after every chunk boundary, and so every part boundary."""
    rows = np.random.default_rng(size).standard_normal((size, width))
    for c in range(CHUNK, size, CHUNK):
        rows[c - 2, -1], rows[c - 1, 0], rows[c, 0] = -np.inf, np.nan, np.inf
    return rows if width > 1 else rows.ravel()


#: One serial encoding of the whole input per writer: (row width, text).
REFERENCES = {
    "csv": (1, lambda v: "\n".join(map(repr, v.tolist())) + "\n"),
    "json": (1, lambda v: json.dumps({"magic": "GRNG", "mode": "reference",
                                      "count": v.size, "values": v.tolist()})),
    "pairs_to_csv": (2, lambda rows: "q,p\n" + "".join(f"{q!r},{p!r}\n"
                                                       for q, p in rows.tolist())),
    "pairs_to_json": (2, lambda rows: json.dumps([{"q": q, "p": p}
                                                  for q, p in rows.tolist()])),
}


@functools.lru_cache(maxsize=len(SIZES))  # tests run size-fastest per writer
def _case(writer, size):
    width, encode = REFERENCES[writer]
    rows = _rows(size, width)
    return rows, encode(rows)


def _forks(monkeypatch):
    """Count the processes `os.fork` starts from here on."""
    pids = []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    real = os.fork
    monkeypatch.setattr(os, "fork", fork)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("parts", [1, 2, 3])
class TestPartsAreInvisible:
    """Each text writer's bytes equal one serial encoding of the whole
    input, for 1, 2 and 3 parts, with one worker per part after the first."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_samples(self, monkeypatch, tmp_path, parts, size, fmt):
        cut_rounds(monkeypatch, parts)
        forks = _forks(monkeypatch)
        values, want = _case(fmt, size)
        path = write_samples(tmp_path / "x", values, "reference", fmt)
        assert path.read_text() == want
        assert len(forks) == min(parts, -(-size // CHUNK)) - 1
        _no_child_left()

    @pytest.mark.parametrize("writer", ["pairs_to_csv", "pairs_to_json"])
    def test_pairs(self, monkeypatch, tmp_path, parts, size, writer):
        cut_rounds(monkeypatch, parts)
        forks = _forks(monkeypatch)
        pairs, want = _case(writer, size)
        with open(tmp_path / "x", "w") as out:
            getattr(qkdmod, writer)(pairs, out)
        memory = io.StringIO()
        getattr(qkdmod, writer)(pairs, memory)
        assert (tmp_path / "x").read_text() == want
        assert memory.getvalue() == want
        assert len(forks) == 2 * (min(parts, -(-size // CHUNK)) - 1)
        _no_child_left()


def test_no_fork_means_one_serial_pass(monkeypatch, tmp_path):
    cut_rounds(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    values, want = _case("csv", 3 * CHUNK + 5)
    path = write_samples(tmp_path / "x", values, "reference", "csv")
    assert path.read_text() == want


def _raise_on(bad, die=None):
    """A csv encoder that fails on a chunk holding the value `bad`: it
    raises, or with `die` the process kills itself with that signal."""
    def encode(chunk):
        if bad in chunk:
            if die:
                os.kill(os.getpid(), die)
            raise ValueError("bad row")
        return "\n".join(map(repr, chunk)) + "\n"
    return encode


@pytest.mark.parametrize("parts", [2, 3])
class TestFailureLeavesNoProcess:
    def test_worker_raises(self, monkeypatch, parts):
        cut_rounds(monkeypatch, parts)
        rows = np.arange(3.0 * CHUNK)
        with pytest.raises(OSError, match="exit status 1$"):
            sampleio._write_chunks(io.StringIO(), rows, _raise_on(rows[-1]))
        _no_child_left()

    def test_worker_killed(self, monkeypatch, parts):
        cut_rounds(monkeypatch, parts)
        rows = np.arange(3.0 * CHUNK)
        with pytest.raises(OSError, match=f"exit status -{int(signal.SIGKILL)}$"):
            sampleio._write_chunks(io.StringIO(), rows,
                                   _raise_on(rows[-1], signal.SIGKILL))
        _no_child_left()

    def test_parent_raises(self, monkeypatch, parts):
        """The caller's own part fails while every worker still runs:
        each is killed and reaped before the exception propagates."""
        cut_rounds(monkeypatch, parts)
        rows = np.ones(3 * CHUNK)
        rows[:CHUNK] = 0.0

        def encode(chunk):
            if 0.0 in chunk:
                raise ValueError("bad row")
            time.sleep(60)  # a worker's part: only a kill ends it in time

        start = time.monotonic()
        with pytest.raises(ValueError, match="bad row"):
            sampleio._write_chunks(io.StringIO(), rows, encode)
        assert time.monotonic() - start < 30
        _no_child_left()


def test_cli_reports_a_failed_worker(monkeypatch, tmp_path, capsys):
    """gen exits 2 with one error line naming the worker's exit status."""
    cut_rounds(monkeypatch, 2)
    monkeypatch.setattr(sampleio, "_TEXT_CHUNK", 1000)
    encode_part = sampleio._encode_part

    def worker_dies(out, rows, start, *rest):
        if start:  # only a worker's part starts past row 0
            os._exit(3)
        encode_part(out, rows, start, *rest)

    monkeypatch.setattr(sampleio, "_encode_part", worker_dies)
    out = tmp_path / "x.csv"
    code = cli.main(["gen", "--n", "2000", "--format", "csv", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: text worker")
    assert err[0].endswith("exit status 3")
    _no_child_left()
