"""Sample-file formats shared by the CLI subcommands.

Three interchangeable formats, all byte-deterministic for a given value
sequence:

* bin  -- 16-byte header (magic "GRNG", uint32 mode code, uint64 count,
  little-endian) followed by little-endian IEEE-754 payload: float64 in
  reference mode, float32 in pipeline mode.  Bit-exact interchange.
* csv  -- one value per line, printed with repr (shortest round-trip
  decimal), no header.
* json -- {"magic": "GRNG", "mode": ..., "count": ..., "values": [...]};
  "values" must be a flat list of numbers, "count", when present, an
  integer equal to its length, and "mode", when present and not null, a
  known mode.

Text (csv and json samples, and `qkdmod`'s quadrature pairs) is encoded
on every CPU the process may use: `_write_chunks` forks one worker per
extra CPU, each encoding a contiguous run of chunks, and appends their
text in order, so the bytes do not depend on the CPU count.

`read_samples` takes the format from the bytes alone, never the name: the
"GRNG" magic is bin, a leading "{" is json, and anything else is csv.

Every generated sample file gets a sidecar metadata record at
"<path>.meta.json" describing the full generation config and the uniform
consumption, so runs are reproducible from the artifact alone.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from . import transforms

__all__ = [
    "FORMATS",
    "MAGIC",
    "ParseError",
    "read_samples",
    "read_sidecar",
    "sidecar_path",
    "write_samples",
    "write_sidecar",
]

MAGIC = b"GRNG"
FORMATS = ("csv", "json", "bin")

_MODE_CODES = {"reference": 0, "pipeline": 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
_DTYPES = {"reference": "<f8", "pipeline": "<f4"}
_TEXT_CHUNK = 1 << 16  # rows formatted per write: bounds the Python floats alive


class ParseError(ValueError):
    """Sample file is malformed or has an unknown format."""


def _dtype_for(mode):
    try:
        return np.dtype(_DTYPES[mode])
    except KeyError:
        raise ParseError(f"unknown mode {mode!r}") from None


def _write_chunks(out, rows, encode, sep=""):
    """Write encode(chunk) to `out` per _TEXT_CHUNK rows, `sep` between;
    a chunk is float64 Python floats, as lists of rows for 2-d `rows`.

    The chunks are cut into one contiguous part per CPU: forked workers
    (`_fork_part`) encode the parts after the first while this process
    writes the first, then their text is appended in order, `_TEXT_CHUNK`
    characters (at most one chunk's text) at a time.  A failed worker
    raises OSError here; no worker outlives the call.
    """
    rows = np.asarray(rows)
    chunks = -(-len(rows) // _TEXT_CHUNK)
    cores = transforms._cores() if hasattr(os, "fork") else 1
    parts = max(1, min(cores, chunks))  # no rows: one empty part
    cuts = [chunks * p // parts * _TEXT_CHUNK for p in range(parts)] + [len(rows)]
    workers = []  # (pid, text file) of each part after the first, unreaped
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork_part(rows, start, stop, encode, sep))
        _encode_part(out, rows, 0, cuts[1], encode, sep)
        while workers:
            pid, text = workers[0]
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            with text:
                if status:
                    raise OSError(f"text worker {pid} ended with exit status "
                                  f"{os.waitstatus_to_exitcode(status)}")
                text.seek(0)
                while block := text.read(_TEXT_CHUNK):
                    out.write(block)
    finally:
        if workers:  # failed: kill and reap every worker not yet reaped
            import signal

            for pid, text in workers:
                text.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _encode_part(out, rows, start, stop, encode, sep):
    """Write the chunks of rows[start:stop] to `out`, each but row 0's
    after `sep`."""
    for i in range(start, stop, _TEXT_CHUNK):
        chunk = rows[i:i + _TEXT_CHUNK].astype(np.float64, copy=False)
        out.write((sep if i else "") + encode(chunk.tolist()))


def _fork_part(rows, start, stop, encode, sep):
    """Fork a worker that encodes rows[start:stop] into an unnamed
    temporary file and exits; returns (its pid, the file).

    The worker only runs `encode` and writes its own file, so it needs no
    lock another thread of the caller may hold at the fork.  It leaves by
    `os._exit`: it never returns into the caller's stack and never flushes
    the caller's inherited buffers.
    """
    import tempfile  # only where a worker is forked

    text = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        pid = os.fork()
    except BaseException:
        text.close()
        raise
    if pid == 0:
        status = 1
        try:
            _encode_part(text, rows, start, stop, encode, sep)
            text.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, text


def write_samples(path, values, mode, fmt):
    """Write a value sequence in the requested format; returns the Path."""
    path = Path(path)
    values = np.asarray(values)
    dtype = _dtype_for(mode)  # every format names a known mode
    if fmt == "bin":
        # the samples' own buffer when they already have the file's dtype
        payload = np.ascontiguousarray(values, dtype=dtype)
        header = MAGIC + struct.pack("<IQ", _MODE_CODES[mode], values.size)
        with path.open("wb") as out:
            out.write(header)
            out.write(payload.data)
    elif fmt == "csv":
        with path.open("w") as out:
            _write_chunks(out, values, lambda c: "\n".join(map(repr, c)) + "\n")
    elif fmt == "json":
        head = json.dumps({"magic": MAGIC.decode(), "mode": mode,
                           "count": int(values.size)})
        with path.open("w") as out:
            out.write(head[:-1] + ', "values": [')
            _write_chunks(out, values, lambda c: json.dumps(c)[1:-1], sep=", ")
            out.write("]}")
    else:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return path


def read_samples(path):
    """Read a sample file of any format; returns (values, mode or None).

    csv files carry no mode, so mode comes back None for them.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if data[:4] == MAGIC:
        if len(data) < 16:
            raise ParseError(f"{path} is not a GRNG binary sample file")
        mode_code, count = struct.unpack("<IQ", data[4:16])
        if mode_code not in _MODE_NAMES:
            raise ParseError(f"unknown mode code {mode_code} in {path}")
        mode = _MODE_NAMES[mode_code]
        dtype = _dtype_for(mode)
        if len(data) - 16 != count * dtype.itemsize:
            raise ParseError(f"{path}: header claims {count} values, payload "
                             f"has {len(data) - 16} bytes")
        values = np.frombuffer(data, dtype, offset=16)
        return values.astype(np.float64, copy=False), mode
    if data[:64].lstrip()[:1] == b"{":
        try:
            doc = json.loads(data)  # RecursionError past its nesting limit
            raw = doc["values"]
            # exact types: a bool, null, string or list is not a sample
            if not isinstance(raw, list) or not {*map(type, raw)} <= {int, float}:
                raise ValueError('"values" is not a flat list of numbers')
            values = np.asarray(raw, dtype=np.float64)
        except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
            raise ParseError(f"{path} is not a GRNG json sample file: {exc}") from exc
        count, mode = doc.get("count", values.size), doc.get("mode")
        if type(count) is not int or count != values.size:  # not True, not 1.0
            raise ParseError(f"{path}: header claims {count!r} values, found {values.size}")
        if mode not in (None, *_MODE_CODES):
            raise ParseError(f"unknown mode {mode!r} in {path}")
        return values, mode
    try:
        values = np.fromiter(map(float, data.decode().split()), np.float64)
    except ValueError as exc:
        raise ParseError(f"{path} is not a sample csv: {exc}") from exc
    return values, None


def sidecar_path(path):
    return Path(str(path) + ".meta.json")


def write_sidecar(path, meta):
    """Write deterministic JSON metadata next to a sample file."""
    out = sidecar_path(path)
    out.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return out


def read_sidecar(path):
    return json.loads(sidecar_path(path).read_text())
