"""Output gates of the grng benchmark.

Each check_* function returns a list of failure messages, empty when the
output is correct.  Files are read with the standard library and numpy
only, so a defect in grng's own sample readers cannot hide a defect in
what grng wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

BIN_MAGIC = b"GRNG"
BIN_HEADER = 16
BIN_DTYPES = {0: ("reference", np.dtype("<f8")), 1: ("pipeline", np.dtype("<f4"))}
SUITE = ("chi2", "ad", "ks")


class CheckError(ValueError):
    """An output file cannot be read as the format it claims."""


def sidecar(path):
    return Path(str(path) + ".meta.json")


def sha256(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def read_bin(path):
    """Values and mode of a GRNG binary sample file."""
    data = Path(path).read_bytes()
    if len(data) < BIN_HEADER or data[:4] != BIN_MAGIC:
        raise CheckError(f"{path}: no GRNG header")
    code, count = struct.unpack("<IQ", data[4:BIN_HEADER])
    if code not in BIN_DTYPES:
        raise CheckError(f"{path}: unknown mode code {code}")
    mode, dtype = BIN_DTYPES[code]
    payload = len(data) - BIN_HEADER
    if payload != count * dtype.itemsize:
        raise CheckError(f"{path}: header claims {count} values, "
                         f"payload holds {payload / dtype.itemsize:g}")
    return np.frombuffer(data, dtype=dtype, offset=BIN_HEADER), mode


def read_values(path):
    """Sample values of a bin, csv or json sample file, or a q,p pair csv."""
    path = Path(path)
    suffix = path.suffix.lstrip(".")
    try:
        if suffix == "bin":
            return read_bin(path)[0]
        text = path.read_text()
        if suffix == "json":
            return np.asarray(json.loads(text)["values"], dtype=np.float64)
        if text.startswith("q,p\n"):
            text = text[4:].replace(",", "\n")
        return np.array(text.split(), dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from exc


def uniforms_expected(meta):
    """Uniform count a correct generator consumes for the sidecar's config."""
    n = meta["n"]
    if meta["algorithm"] == "box-muller":
        return 2 * math.ceil(n / 2)
    if meta["algorithm"] == "clt":
        return meta["k"] * n
    return 2 * meta["pairs_proposed"]


def check_sidecar(path, algo, n):
    try:
        meta = json.loads(sidecar(path).read_text())
        failures = []
        if meta["algorithm"] != algo or meta["n"] != n:
            failures.append(f"{path}: sidecar describes {meta['algorithm']} "
                            f"n={meta['n']}, expected {algo} n={n}")
        elif meta["uniforms_consumed"] != uniforms_expected(meta):
            failures.append(f"{path}: sidecar uniforms_consumed="
                            f"{meta['uniforms_consumed']}, expected "
                            f"{uniforms_expected(meta)}")
        elif algo == "polar" and 2 * meta["pairs_accepted"] < n:
            failures.append(f"{path}: {meta['pairs_accepted']} accepted pairs "
                            f"cannot supply {n} samples")
        return failures
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{path}: unreadable sidecar: {exc}"]


def check_samples(path, n):
    """Count and finiteness of a sample file; returns (values, failures)."""
    try:
        values = read_values(path)
    except (OSError, CheckError) as exc:
        return None, [str(exc)]
    if values.size != n:
        return values, [f"{path}: {values.size} samples, expected {n}"]
    if not np.isfinite(values).all():
        return values, [f"{path}: non-finite samples"]
    return values, []


def check_gen(path, algo, n, mode=None):
    """Gate on one `grng gen` output: samples, mode and sidecar."""
    _values, failures = check_samples(path, n)
    if not failures and mode is not None:
        stored = read_bin(path)[1]
        if stored != mode:
            failures.append(f"{path}: stored as {stored}, expected {mode}")
    return failures + check_sidecar(path, algo, n)


def check_report(path, algo, n):
    """Gate on a `grng test --out` report; returns (failures, verdicts).

    Box-Muller and polar verdicts are recorded but not gated: each test
    rejects a correct stream with probability alpha.  The central-limit
    sum with k = 12 must be rejected by Anderson-Darling at this size, as
    in the paper.
    """
    try:
        doc = json.loads(Path(path).read_text())
        verdicts = {r["test"]: bool(r["rejected"]) for r in doc["reports"]}
        p_values = [r["p_value"] for r in doc["reports"]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{path}: unreadable report: {exc}"], {}
    if tuple(verdicts) != SUITE or doc["n"] != n:
        return [f"{path}: report covers {tuple(verdicts)} on "
                f"n={doc['n']}, expected {SUITE} on n={n}"], verdicts
    if not all(0.0 <= p <= 1.0 for p in p_values):
        return [f"{path}: p-values outside [0, 1]: {p_values}"], verdicts
    if algo == "clt" and not verdicts["ad"]:
        return [f"{path}: clt k=12 not rejected by Anderson-Darling"], verdicts
    return [], verdicts


def check_hist(path, bins, n):
    try:
        header, *rows = Path(path).read_text().splitlines()
        counts = [int(row.rsplit(",", 1)[1]) for row in rows]
    except (OSError, IndexError, ValueError) as exc:
        return [f"{path}: unreadable histogram: {exc}"]
    if header != "bin_lo,bin_hi,count" or len(counts) != bins or sum(counts) != n:
        return [f"{path}: {len(counts)} bins holding {sum(counts)} samples, "
                f"expected {bins} bins holding {n}"]
    return []


def check_same_values(path, reference):
    """Two files written from one seed and config must hold equal values."""
    try:
        a, b = read_values(path), read_values(reference)
    except (OSError, CheckError) as exc:
        return [str(exc)]
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"{path}: values differ from {reference}"]
    return []
