"""Sample-file formats shared by the CLI subcommands.

Three interchangeable formats, all byte-deterministic for a given value
sequence:

* bin  -- 16-byte header (magic "GRNG", uint32 mode code, uint64 count,
  little-endian) followed by little-endian IEEE-754 payload: float64 in
  reference mode, float32 in pipeline mode.  Bit-exact interchange.
* csv  -- one value per line, printed with repr (shortest round-trip
  decimal), no header.
* json -- {"magic": "GRNG", "mode": ..., "count": ..., "values": [...]};
  "values" must be a flat list of numbers, and "count", when present,
  must equal its length.

`read_samples` takes the format from the bytes alone, never the name: the
"GRNG" magic is bin, a leading "{" is json, and anything else is csv.

Every generated sample file gets a sidecar metadata record at
"<path>.meta.json" describing the full generation config and the uniform
consumption, so runs are reproducible from the artifact alone.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

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
_TEXT_CHUNK = 1 << 16  # values formatted per write: bounds the Python floats alive


class ParseError(ValueError):
    """Sample file is malformed or has an unknown format."""


def _dtype_for(mode):
    try:
        return np.dtype(_DTYPES[mode])
    except KeyError:
        raise ParseError(f"unknown mode {mode!r}") from None


def write_samples(path, values, mode, fmt):
    """Write a value sequence in the requested format; returns the Path."""
    path = Path(path)
    values = np.asarray(values)
    if fmt == "bin":
        # the samples' own buffer when they already have the file's dtype
        payload = np.ascontiguousarray(values, dtype=_dtype_for(mode))
        header = MAGIC + struct.pack("<IQ", _MODE_CODES[mode], values.size)
        with path.open("wb") as out:
            out.write(header)
            out.write(payload.data)
    elif fmt == "csv":
        with path.open("w") as out:
            for i in range(0, values.size, _TEXT_CHUNK):
                chunk = values[i:i + _TEXT_CHUNK].astype(np.float64, copy=False)
                out.write("\n".join(map(repr, chunk.tolist())) + "\n")
    elif fmt == "json":
        head = json.dumps({"magic": MAGIC.decode(), "mode": mode,
                           "count": int(values.size)})
        with path.open("w") as out:
            out.write(head[:-1] + ', "values": [')
            for i in range(0, values.size, _TEXT_CHUNK):
                chunk = values[i:i + _TEXT_CHUNK].astype(np.float64, copy=False)
                out.write((", " if i else "") + json.dumps(chunk.tolist())[1:-1])
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
            doc = json.loads(data)
            raw = doc["values"]
            # exact types: a bool, null, string or list is not a sample
            if not isinstance(raw, list) or not {*map(type, raw)} <= {int, float}:
                raise ValueError('"values" is not a flat list of numbers')
            values = np.asarray(raw, dtype=np.float64)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"{path} is not a GRNG json sample file: {exc}") from exc
        count = doc.get("count", values.size)
        if count != values.size:
            raise ParseError(f"{path}: header claims {count} values, found {values.size}")
        return values, doc.get("mode")
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
