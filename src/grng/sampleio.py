"""Sample-file formats shared by the CLI subcommands.

Three interchangeable formats, all byte-deterministic for a given value
sequence:

* bin  -- 16-byte header (magic "GRNG", uint32 mode code: the mode's index
  in `transforms.MODES`, uint64 count, little-endian) followed by the
  little-endian payload of the mode's evaluator `dtype`: float64 in
  reference mode, float32 in pipeline mode.  Bit-exact interchange.
* csv  -- one value per line, printed with repr (shortest round-trip
  decimal), no header.
* json -- {"magic": "GRNG", "mode": ..., "count": ..., "values": [...]};
  "values" must be a flat list of numbers, "count", when present, an
  integer equal to its length, and "mode", when present and not null, a
  known mode.

`write_samples` and `qkdmod`'s pair writers take one array, list or tuple,
or any other iterable of arrays, such as the rounds of a `gen` run, each
written as it comes: the file is that of their concatenation, and no writer
holds more than one of them.  Every text output (csv and json samples, the
quadrature pairs and `stats.Histogram.to_csv`) is encoded on every CPU the
process may use by one loop, `_write_round`: it forks one worker per extra
CPU, each encoding a contiguous run of the rows' chunks, and appends their
text in order, so the bytes do not depend on the CPU count.

`read_samples` takes the format from the bytes alone, never the name: the
"GRNG" magic is bin, a leading "{" is json, and anything else is csv.  It
returns a float64 array of the caller's own; a bin payload is read
straight into it.

Every generated sample file gets a sidecar metadata record at
"<path>.meta.json" describing the full generation config and the uniform
consumption, so runs are reproducible from the artifact alone.
"""

from __future__ import annotations

import contextlib
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

_TEXT_CHUNK = 1 << 16  # rows formatted per write: bounds the Python floats alive
#: Exit status of a text worker that ran out of memory (ENOMEM's number), so
#: the caller raises MemoryError as a serial encoding would.
_NO_MEMORY = 12


class ParseError(ValueError):
    """Sample file is malformed or has an unknown format."""


def _dtype_for(mode):
    try:
        return np.dtype(transforms.evaluator(mode).dtype).newbyteorder("<")
    except ValueError:
        raise ParseError(f"unknown mode {mode!r}") from None


def _arrays(values, row=()):
    """The arrays of `values`, in an iterable that `_arrays` passes on: one
    (m, *row) array, list or tuple, or any other iterable of arrays, such as
    a run's rounds.  An array-like of another shape is a ValueError."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        return values
    with contextlib.suppress(ValueError):  # numpy refuses ragged rows
        if (array := np.asarray(values)).ndim and array.shape[1:] == row:
            return iter((array,))
    shape = ", ".join(["m", *map(str, row)])
    raise ValueError(f"expected one array of shape ({shape}), or rounds as an iterable")


def _write_chunks(out, rows, encode, sep="", head="", tail=""):
    """`head`, `_write_round` of each array of `rows` (`_arrays`), `sep`
    between, then `tail`: the text of their concatenation; `encode` gets
    each chunk as float64 Python floats, as lists of rows for 2-d rows."""
    rows, lead = _arrays(rows), ""
    out.write(head)
    floats = lambda c: encode(c.astype(np.float64, copy=False).tolist())  # noqa: E731
    for part in rows:
        if len(part):
            out.write(lead)
            _write_round(out, part, floats, sep)
            lead = sep
    out.write(tail)


def _write_round(out, rows, encode, sep):
    """Write encode(rows[i:i + _TEXT_CHUNK]) per chunk to `out`, `sep`
    between; `rows` is any sliceable with a len(), such as a range.

    The chunks are cut into one contiguous part per CPU: forked workers
    (`_fork_part`) encode the parts after the first while this process
    writes the first, then their text is appended in order, `_TEXT_CHUNK`
    characters (at most one chunk's text) at a time.  A worker that ran
    out of memory raises MemoryError here, any other failed worker
    OSError; no worker outlives the call.
    """
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
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            with text:
                if code == _NO_MEMORY:
                    raise MemoryError(f"in text worker {pid}")
                if code:
                    raise OSError(f"text worker {pid} ended with exit status "
                                  f"{code}")
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
    """Write encode(chunk) of each chunk of rows[start:stop] to `out`, each
    but row 0's after `sep`; `encode` gets the rows' own slice."""
    for i in range(start, stop, _TEXT_CHUNK):
        out.write((sep if i else "") + encode(rows[i:i + _TEXT_CHUNK]))


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
        except MemoryError:
            status = _NO_MEMORY
        finally:
            os._exit(status)
    return pid, text


def write_samples(path, values, mode, fmt):
    """Write a value sequence in the requested format; returns the Path.

    `values` is one 1-d array, list or tuple, or any other iterable of
    arrays with a len(), their total size, such as the rounds of a `gen`
    run: each is written as it comes, and the file holds their concatenation.
    """
    path, parts, count = Path(path), _arrays(values), len(values)
    dtype = _dtype_for(mode)  # every format names a known mode
    if fmt == "bin":
        header = MAGIC + struct.pack("<IQ", transforms.MODES.index(mode), count)
        with path.open("wb") as out:
            out.write(header)
            for part in parts:
                # the samples' own buffer when they already have the file's dtype
                out.write(np.ascontiguousarray(part, dtype=dtype).data)
    elif fmt == "csv":
        with path.open("w") as out:
            _write_chunks(out, parts, lambda c: "\n".join(map(repr, c)) + "\n")
    elif fmt == "json":
        head = json.dumps({"magic": MAGIC.decode(), "mode": mode,
                           "count": int(count)})
        with path.open("w") as out:
            _write_chunks(out, parts, lambda c: json.dumps(c)[1:-1], ", ",
                          head[:-1] + ', "values": [', "]}")
    else:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return path


def read_samples(path):
    """Read a sample file of any format; returns (values, mode or None).

    The values are a float64 array of their own, which the caller may
    write.  A bin payload is read straight into it, with no copy of the
    file kept.  csv files carry no mode, so mode comes back None for them.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            data = fh.read(64)
            if data[:4] == MAGIC:
                return _read_bin(path, fh, data)
            fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
        if mode not in (None, *transforms.MODES):
            raise ParseError(f"unknown mode {mode!r} in {path}")
        return values, mode
    try:
        values = np.fromiter(map(float, data.decode().split()), np.float64)
    except ValueError as exc:
        raise ParseError(f"{path} is not a sample csv: {exc}") from exc
    return values, None


def _read_bin(path, fh, head):
    """The (values, mode) of the bin file `fh`, whose first bytes are `head`."""
    if len(head) < 16:
        raise ParseError(f"{path} is not a GRNG binary sample file")
    mode_code, count = struct.unpack("<IQ", head[4:16])
    if mode_code >= len(transforms.MODES):
        raise ParseError(f"unknown mode code {mode_code} in {path}")
    mode = transforms.MODES[mode_code]
    dtype = _dtype_for(mode)
    payload = os.fstat(fh.fileno()).st_size - 16
    if payload != count * dtype.itemsize:
        raise ParseError(f"{path}: header claims {count} values, payload "
                         f"has {payload} bytes")
    fh.seek(16)
    values = np.fromfile(fh, dtype, count)
    if values.size != count:  # the file shrank since its size was read
        raise ParseError(f"{path}: payload ended before {count} values")
    return values.astype(np.float64, copy=False), mode


def sidecar_path(path):
    return Path(str(path) + ".meta.json")


def write_sidecar(path, meta):
    """Write deterministic JSON metadata next to a sample file."""
    out = sidecar_path(path)
    out.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return out


def read_sidecar(path):
    return json.loads(sidecar_path(path).read_text())
