import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import grng
from _fixtures import cut_rounds, make_sources
from grng import cli, sampleio, stats, transforms, urng
from grng.cli import main
from grng.sampleio import ParseError, read_samples, read_sidecar, write_samples


def run(*argv):
    return main(list(argv))


def run_child(*argv):
    """Run the CLI in a child process, so that a hang fails by timeout."""
    src = str(Path(grng.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "grng.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def assert_one_line_error(stderr):
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


# inputs that `test` and `hist` must refuse with a one-line error
BAD_INPUTS = {
    # a header for one float64 value, then 5 of its 8 bytes
    "truncated.bin": sampleio.MAGIC + struct.pack("<IQ", 0, 1) + b"\x00" * 5,
    "nan.csv": b"0.5\n" * 60 + b"nan\n",
    "garbage.json": b'{"values": [1.0, 2',
    # json whose "values" is not a flat list of numbers, or whose count lies
    "scalar.json": b'{"values": 5}',
    "null.json": b'{"values": null}',
    "nested.json": b'{"values": [[1.0, 2.0]]}',
    "null-item.json": b'{"values": [1.0, null]}',
    "string-item.json": b'{"values": [1.0, "2.0"]}',
    "bool-item.json": b'{"values": [1.0, true]}',
    "count.json": b'{"count": 10, "values": [1.0, 2.0]}',
    # a header count that is not an exact int, or a mode no writer names
    "bool-count.json": b'{"count": true, "values": [0.5]}',
    "float-count.json": b'{"count": 1.0, "values": [0.5]}',
    "list-mode.json": b'{"count": 1, "mode": [1, 2], "values": [0.5]}',
    "unknown-mode.json": b'{"mode": "turbo", "values": [0.5]}',
    "number-mode.json": b'{"count": 1, "mode": 0, "values": [0.5]}',
    # nested past json.loads' recursion limit
    "deep.json": b'{"values": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "empty.bin": b"",
    "empty.csv": b"",
    "empty.json": b"",
}


def sample_lists(mode):
    """Finite and infinite values a file in `mode` stores exactly."""
    width = 64 if mode == "reference" else 32
    return st_.lists(st_.floats(allow_nan=False, width=width), max_size=40)


class TestSampleIo:
    @pytest.mark.parametrize("fmt", ["bin", "csv", "json"])
    def test_round_trip_reference(self, tmp_path, fmt):
        values = np.array([0.5, -1.25, 3.0e-300, 7.1])
        path = tmp_path / f"x.{fmt}"
        write_samples(path, values, "reference", fmt)
        got, mode = read_samples(path)
        assert np.array_equal(got, values)
        if fmt != "csv":
            assert mode == "reference"

    @pytest.mark.parametrize("fmt", ["bin", "csv", "json"])
    def test_round_trip_pipeline(self, tmp_path, fmt):
        values = np.array([0.5, -1.25, 0.1], dtype=np.float32)
        path = tmp_path / f"x.{fmt}"
        write_samples(path, values, "pipeline", fmt)
        got, _ = read_samples(path)
        assert np.array_equal(got.astype(np.float32), values)

    def test_bin_header_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        write_samples(path, np.array([1.0]), "reference", "bin")
        raw = path.read_bytes()
        assert raw[:4] == b"GRNG"
        assert len(raw) == 16 + 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError):
            read_samples(path)
        # an unknown mode, in every format, or format name is refused the
        # same way, before the file is opened
        for fmt in ("bin", "csv", "json"):
            with pytest.raises(ParseError):
                write_samples(tmp_path / f"y.{fmt}", [1.0], "bogus", fmt)
            assert not (tmp_path / f"y.{fmt}").exists()
        with pytest.raises(ParseError):
            write_samples(path, [1.0], "reference", "xml")

    def test_truncated_bin_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_samples(path, np.arange(4.0), "reference", "bin")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            read_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_samples(tmp_path / "absent.bin")

    def test_json_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"values": [1%s]}' % ("0" * 400))
        with pytest.raises(ParseError):
            read_samples(path)

    # json by content: an empty file, whatever its name, is a csv of no values
    @pytest.mark.parametrize("name", sorted(n for n, data in BAD_INPUTS.items()
                                            if data[:1] == b"{"))
    def test_malformed_json_rejected(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(BAD_INPUTS[name])
        with pytest.raises(ParseError):
            read_samples(path)
        assert run("hist", str(path)) == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_json_count_header_is_optional(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"values": [1, 2.5]}')
        values, mode = read_samples(path)
        assert values.tolist() == [1.0, 2.5] and mode is None

    @pytest.mark.parametrize("mode, dtype", [("reference", np.float64),
                                             ("pipeline", np.float32)])
    @pytest.mark.parametrize("size", [0, 1, 2 ** 16, 2 ** 16 + 1])
    def test_json_writer_matches_one_dumps(self, tmp_path, size, mode, dtype):
        values = np.random.default_rng(size).standard_normal(size).astype(dtype)
        # NaN and +-inf, two of them on either side of the chunk boundary
        for i, v in zip((0, 2 ** 16 - 1, 2 ** 16), (np.nan, np.inf, -np.inf)):
            if i < size:
                values[i] = v
        path = write_samples(tmp_path / "x.json", values, mode, "json")
        doc = {"magic": "GRNG", "mode": mode, "count": size,
               "values": [float(v) for v in values]}
        assert path.read_text() == json.dumps(doc)

    def test_reference_bin_read_does_not_copy(self, tmp_path):
        path = write_samples(tmp_path / "x.bin", np.arange(5.0), "reference",
                             "bin")
        values, _ = read_samples(path)
        assert values.flags.owndata and values.flags.writeable
        assert values.dtype == np.float64 and values.tolist() == [0, 1, 2, 3, 4]
        # the payload is read straight into that array: no copy of the file
        big = write_samples(tmp_path / "y.bin", np.arange(1 << 18, dtype=float),
                            "reference", "bin")
        tracemalloc.start()
        try:
            values, _ = read_samples(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * values.nbytes, peak / values.nbytes

    @settings(max_examples=60, deadline=None)
    @given(fmt=st_.sampled_from(sampleio.FORMATS),
           mode=st_.sampled_from(["reference", "pipeline"]), data=st_.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, fmt, mode, data):
        values = np.array(data.draw(sample_lists(mode)), dtype=np.float64)
        path = tmp_path_factory.getbasetemp() / f"round_trip.{fmt}"
        write_samples(path, values, mode, fmt)
        got, got_mode = read_samples(path)
        assert got.dtype == np.float64
        assert got.tobytes() == values.tobytes()
        assert got_mode == (None if fmt == "csv" else mode)

    @settings(max_examples=200, deadline=None)
    @given(suffix=st_.sampled_from(["bin", "csv", "json", "dat"]),
           payload=st_.one_of(st_.binary(max_size=64),
                              st_.binary(max_size=48).map(
                                  lambda b: sampleio.MAGIC + b)))
    def test_garbage_raises_only_parse_error(self, tmp_path_factory, suffix,
                                             payload):
        path = tmp_path_factory.getbasetemp() / f"garbage.{suffix}"
        path.write_bytes(payload)
        try:
            read_samples(path)
        except ParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(fmt=st_.sampled_from(sampleio.FORMATS),
           mode=st_.sampled_from(["reference", "pipeline"]), data=st_.data())
    def test_truncation_raises_only_parse_error(self, tmp_path_factory, fmt,
                                                mode, data):
        values = data.draw(sample_lists(mode).filter(bool))
        path = tmp_path_factory.getbasetemp() / f"truncated.{fmt}"
        write_samples(path, np.array(values), mode, fmt)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st_.integers(0, len(raw) - 1))])
        try:
            read_samples(path)
        except ParseError:
            pass


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run("gen", "--algo", "box-muller", "--n", "500", "--seed", "9",
                   "--out", str(a)) == 0
        assert run("gen", "--algo", "box-muller", "--n", "500", "--seed", "9",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.bin.meta.json").read_bytes() == \
               (tmp_path / "b.bin.meta.json").read_bytes()

    def test_sidecar_contents(self, tmp_path):
        out = tmp_path / "s.bin"
        run("gen", "--algo", "polar", "--n", "1000", "--seed", "4",
            "--out", str(out))
        meta = read_sidecar(out)
        assert meta["algorithm"] == "polar"
        assert meta["n"] == 1000
        assert meta["master_seed"] == 4
        assert meta["polynomial"] == "x^32+x^8+x^5+x^2+1"
        assert meta["uniforms_consumed"] == 2 * meta["pairs_proposed"]

    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_sidecar_rebuilds_every_stream_config(self, tmp_path, monkeypatch,
                                                  algo):
        # the sidecar's LFSR entries with each of its lfsr_seeds give back
        # the config that stream ran on
        ran = []
        new_lfsr = urng.new_lfsr
        monkeypatch.setattr(urng, "new_lfsr",
                            lambda cfg: ran.append(cfg) or new_lfsr(cfg))
        out = tmp_path / "x.bin"
        assert run("gen", "--algo", algo, "--k", "3", "--n", "50",
                   "--shards", "2", "--poly", "x^16+x^15+x^13+x^4+1",
                   "--seed", "8", "--out", str(out)) == 0
        meta = read_sidecar(out)
        assert len(meta["lfsr_seeds"]) == transforms.arity(algo, 3)
        assert [urng.LfsrConfig.from_dict({**meta, "seed": s})
                for s in meta["lfsr_seeds"]] == ran

    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_sidecar_holds_arity_seeds_per_shard(self, tmp_path, algo):
        # one stream of arity sources, whatever --shards says
        out = tmp_path / "x.bin"
        assert run("gen", "--algo", algo, "--k", "5", "--n", "30",
                   "--shards", "3", "--seed", "4", "--out", str(out)) == 0
        assert read_sidecar(out)["lfsr_seeds"] == urng.derive_seeds(
            4, transforms.arity(algo, 5), 32)

    def test_gen_matches_library_stream(self, tmp_path):
        out = tmp_path / "lib.bin"
        run("gen", "--algo", "clt", "--n", "300", "--seed", "11", "--k", "12",
            "--out", str(out))
        values, mode = read_samples(out)
        seeds = urng.derive_seeds(11, 12, 32)
        sources = [urng.new_lfsr(urng.LfsrConfig(order=32,
                                                 taps=urng.DEFAULT_POLYNOMIAL,
                                                 seed=s)) for s in seeds]
        want = transforms.stream("clt", sources, 300)
        assert mode == "reference"
        assert np.array_equal(values, want.values)

    def test_pipeline_mode_writes_float32(self, tmp_path):
        out = tmp_path / "p.bin"
        run("gen", "--algo", "box-muller", "--n", "64", "--seed", "2",
            "--mode", "pipeline", "--out", str(out))
        raw = out.read_bytes()
        assert len(raw) == 16 + 4 * 64
        _, mode = read_samples(out)
        assert mode == "pipeline"

    @pytest.mark.parametrize("shards", [2, 7, 1 << 16])
    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_shards_do_not_change_the_output(self, tmp_path, algo, mode,
                                             shards):
        """--shards s writes the --shards 1 bytes in every format and for
        quadrature; only the sidecar's "shards" differs.  --n 1001 is below
        2^16, so that case asks for more shards than samples."""
        runs = [("gen", fmt) for fmt in sampleio.FORMATS]
        runs += [("quadrature", fmt) for fmt in ("csv", "json")]
        for command, fmt in runs:
            outs = []
            for s in (1, shards):
                out = tmp_path / f"{command}-{fmt}-{s}"
                assert run(command, "--algo", algo, "--mode", mode, "--k", "5",
                           "--n", "1001", "--seed", "5", "--shards", str(s),
                           "--format", fmt, "--out", str(out)) == 0
                outs.append((out.read_bytes(), read_sidecar(out)))
            (one, meta_one), (many, meta) = outs
            assert many == one, (command, fmt)
            assert meta == {**meta_one, "shards": shards}
            assert meta["lfsr_seeds"] == urng.derive_seeds(
                5, transforms.arity(algo, 5), 32)

    @pytest.mark.parametrize("fmt", ["bin", "csv", "json"])
    def test_gen_round_trips_all_formats(self, tmp_path, fmt):
        out = tmp_path / f"r.{fmt}"
        run("gen", "--algo", "box-muller", "--n", "400", "--seed", "21",
            "--format", fmt, "--out", str(out))
        values, _ = read_samples(out)
        seeds = urng.derive_seeds(21, 2, 32)
        srcs = [urng.new_lfsr(urng.LfsrConfig(order=32,
                                              taps=urng.DEFAULT_POLYNOMIAL,
                                              seed=s)) for s in seeds]
        want = transforms.stream("box-muller", srcs, 400)
        assert np.array_equal(values, want.values)
        assert read_sidecar(out)["uniforms_consumed"] == 400

    def test_pipeline_and_reference_files_differ_but_stay_close(self, tmp_path):
        """Same seed, both precision modes: the files must differ, and the
        per-sample deltas must respect the pipeline convergence bound
        (64 ulps at the binary32 spacing of the pair radius) outside the
        documented ill-conditioned regions of u1."""
        ref, pipe = tmp_path / "r.bin", tmp_path / "p.bin"
        n = 20_000
        for mode, path in (("reference", ref), ("pipeline", pipe)):
            assert run("gen", "--algo", "box-muller", "--n", str(n),
                       "--seed", "18", "--mode", mode, "--out", str(path)) == 0
        r_vals, _ = read_samples(ref)
        p_vals, _ = read_samples(pipe)
        assert not np.array_equal(r_vals, p_vals)

        seeds = urng.derive_seeds(18, 2, 32)
        src = urng.new_lfsr(urng.LfsrConfig(order=32,
                                            taps=urng.DEFAULT_POLYNOMIAL,
                                            seed=seeds[0]))
        u1 = src.uniforms(n // 2)
        lo, hi = 2.0 ** -20, 1.0 - 2.0 ** -14
        checked = 0
        for i, u in enumerate(u1):
            if not lo <= u <= hi:
                continue
            radius = math.sqrt(-2.0 * math.log(u))
            tol = 64.0 * float(np.spacing(np.float32(max(radius, 1.0))))
            assert abs(r_vals[2 * i] - p_vals[2 * i]) <= tol
            assert abs(r_vals[2 * i + 1] - p_vals[2 * i + 1]) <= tol
            checked += 1
        assert checked > n // 2 - 10

    def test_custom_polynomial_flag(self, tmp_path):
        out = tmp_path / "c.bin"
        assert run("gen", "--n", "32", "--seed", "3",
                   "--poly", "x^16+x^15+x^13+x^4+1", "--out", str(out)) == 0
        assert read_sidecar(out)["order"] == 16

    def test_nonprimitive_polynomial_warns_but_generates(self, tmp_path):
        out = tmp_path / "w.bin"
        with pytest.warns(urng.NonMaximalTapsWarning):
            assert run("gen", "--n", "16", "--seed", "3",
                       "--poly", "x^4+x^2+1", "--out", str(out)) == 0

    def test_nonprimitive_notices_are_one_line_each(self, tmp_path):
        proc = run_child("gen", "--poly", "x^4+x^2+1", "--n", "16",
                         "--out", str(tmp_path / "w.bin"))
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        # one notice per stream: box-muller draws from two
        assert sum("not primitive" in line for line in lines) == 2

    def test_main_restores_warnings_state(self, tmp_path):
        filters, fmt = list(warnings.filters), warnings.formatwarning
        with pytest.warns(urng.NonMaximalTapsWarning):
            assert run("gen", "--n", "16", "--poly", "x^4+x^2+1",
                       "--out", str(tmp_path / "w.bin")) == 0
        assert warnings.filters == filters
        assert warnings.formatwarning is fmt

    def test_reducible_polynomial_warns_exact_period(self, tmp_path):
        proc = run_child("gen", "--algo", "clt", "--poly",
                         "x^32+x^8+x^5+x^2+x+1", "--n", "1", "--out",
                         str(tmp_path / "x.bin"))
        assert proc.returncode == 0
        assert "actual state period" in proc.stderr
        assert "not determined" not in proc.stderr

    def test_stream_past_its_period_warns(self, tmp_path, capsys):
        """x^8+x^6+x^5+x^4+1 is primitive: each stream repeats after 255 words.

        1000 box-muller samples draw 500 words from each of the two streams,
        so both warn, the file still holds 1000 values and only 510 of them
        differ; 100 samples draw 50 words and stay quiet.
        """
        out = tmp_path / "p.bin"
        args = ("gen", "--algo", "box-muller", "--poly", "x^8+x^6+x^5+x^4+1",
                "--seed", "3", "--out", str(out))
        assert run(*args, "--n", "1000") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("warning: stream ") and "period of 255"
                   in line for line in err)
        values, _mode = read_samples(out)
        assert values.size == 1000 and np.unique(values).size == 510
        assert run(*args, "--n", "100") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    def test_blocks_keep_bytes_and_sidecars(self, tmp_path, monkeypatch, algo,
                                            mode):
        """gen at 10^6, and at an odd n with --shards 3, writes the bytes and
        sidecar of one block per round at 1-4 threads, drawn in steps."""
        def gen(threads, *argv):
            cut_rounds(monkeypatch, threads, 1 << 12, bound=(1 << 15) + 1)
            out = tmp_path / f"{threads}.bin"
            assert run("gen", "--algo", algo, "--mode", mode, "--seed", "19",
                       *argv, "--out", str(out)) == 0
            return out.read_bytes(), Path(f"{out}.meta.json").read_bytes()

        for argv in (("--n", "1000000"), ("--n", "200001", "--shards", "3")):
            one = gen(0, *argv)
            for threads in (1, 2, 3, 4):
                assert gen(threads, *argv) == one, (argv, threads)

    def test_past_period_warning_is_the_same_in_blocks(self, tmp_path,
                                                        monkeypatch, capsys):
        args = ("gen", "--algo", "box-muller", "--poly", "x^8+x^6+x^5+x^4+1",
                "--seed", "3", "--n", "100000")
        assert run(*args, "--out", str(tmp_path / "one.bin")) == 0
        want = capsys.readouterr().err
        assert want.count("warning: stream ") == 2
        for threads in (2, 3, 4):
            cut_rounds(monkeypatch, threads, 64)
            out = tmp_path / f"{threads}.bin"
            assert run(*args, "--out", str(out)) == 0
            assert capsys.readouterr().err == want
            assert out.read_bytes() == (tmp_path / "one.bin").read_bytes()

    def test_memory_error_in_a_block_is_one_line(self, tmp_path, capsys,
                                                 monkeypatch):
        main_thread = threading.main_thread()

        def log(x):
            if threading.current_thread() is not main_thread:
                raise MemoryError("Unable to allocate 4.00 EiB")
            return np.log(x)

        monkeypatch.setattr(transforms.Float64, "log", staticmethod(log))
        cut_rounds(monkeypatch, 2)
        assert run("gen", "--n", "10000", "--out", str(tmp_path / "x.bin")) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "out of memory" in err

    def test_short_gen_starts_no_thread_and_imports_no_pool(self, tmp_path):
        src = str(Path(grng.__file__).resolve().parents[1])
        code = ("import sys, threading\n"
                "def refuse(self):\n"
                "    raise AssertionError('a thread was started')\n"
                "threading.Thread.start = refuse\n"
                "from grng.cli import main\n"
                "assert main(['gen', '--algo', 'clt', '--n', '10000',\n"
                "             '--out', sys.argv[1]]) == 0\n"
                "assert 'concurrent.futures' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.bin")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        monkeypatch.setenv("GRNG_SEED", "77")
        run("gen", "--n", "100", "--out", str(a))
        monkeypatch.delenv("GRNG_SEED")
        run("gen", "--n", "100", "--seed", "77", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        # --seed overrides even a malformed GRNG_SEED; an empty one means 1
        monkeypatch.setenv("GRNG_SEED", "abc")
        assert run("gen", "--n", "100", "--seed", "77", "--out", str(a)) == 0
        assert a.read_bytes() == b.read_bytes()
        monkeypatch.setenv("GRNG_SEED", "")
        assert run("gen", "--n", "100", "--out", str(a)) == 0
        assert read_sidecar(a)["master_seed"] == 1

    def test_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        bounds = [
            ("--n", "0"),
            ("--n", "10", "--k", "1"),
            ("--n", "10", "--shards", "0"),
        ]
        for argv in [
            *bounds,
            # argparse's own errors, without its usage block
            ("--algo", "ziggurat", "--n", "10"),
            ("--n", "abc"),
            ("--seed", "-0x1", "--n", "10"),
            # refused before any allocation
            ("--n", str(1 << 60)),
            # more streams than an order-2 register has nonzero seeds (3)
            ("--algo", "clt", "--poly", "x^2+x+1", "--n", "1"),
        ]:
            assert run("gen", *argv, "--out", str(out)) == 1, argv
            assert_one_line_error(capsys.readouterr().err)
            assert not out.exists()
            assert not sampleio.sidecar_path(out).exists()
        # the other generating commands parse the same flags
        for command, files in (("bench", ()), ("quadrature", ("--out", str(out)))):
            for argv in bounds:
                assert run(command, *argv, *files) == 1, (command, argv)
                captured = capsys.readouterr()
                assert_one_line_error(captured.err)
                assert f"argument {argv[-2]}:" in captured.err
                assert captured.out == ""
                assert not out.exists()

    def test_k_bound_is_refused_before_any_seed(self, tmp_path):
        # 10^9 summands would be 10^9 derived seeds: a hang, not an error
        out = tmp_path / "x.bin"
        proc = run_child("gen", "--algo", "clt", "--k", "1000000000",
                         "--n", "10", "--out", str(out))
        assert proc.returncode == 1
        assert_one_line_error(proc.stderr)
        assert "--k" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "bench", "quadrature"])
    def test_shards_bound_is_refused_before_any_seed(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # a --shards outside its domain is refused before any set-up work
        def derive_seeds(*args):
            raise AssertionError("seeds derived for a refused --shards")

        monkeypatch.setattr(urng, "derive_seeds", derive_seeds)
        out = tmp_path / "x.out"
        argv = [command, "--n", "200000", "--shards", str(cli._MAX_SHARDS + 1)]
        if command != "bench":
            argv += ["--out", str(out)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "--shards" in err
        assert not out.exists()

    def test_shards_bound_accepted(self, tmp_path):
        out = tmp_path / "x.bin"
        assert run("gen", "--n", "2", "--shards", str(cli._MAX_SHARDS),
                   "--out", str(out)) == 0
        assert read_samples(out)[0].size == 2

    def test_k_bound_accepted(self, tmp_path):
        out = tmp_path / "x.bin"
        assert run("gen", "--algo", "clt", "--k", str(cli._MAX_K), "--n", "2",
                   "--out", str(out)) == 0
        assert read_samples(out)[0].size == 2

    @pytest.mark.parametrize("bound", [1000, 4097])
    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_rounds_change_nothing(self, tmp_path, monkeypatch, algo, mode,
                                   bound):
        """Rounds of `bound` values give the bytes, sidecars and accounting
        of one round: gen in every format, quadrature csv and json (whose
        pairs an odd clt bound must not split) and stream."""
        k = 5

        def outputs():
            got = []
            jobs = [("gen", f, 10_001) for f in sampleio.FORMATS]
            jobs += [("quadrature", f, 5_001) for f in ("csv", "json")]
            for command, fmt, n in jobs:
                out = tmp_path / f"{command}.{fmt}"
                assert run(command, "--algo", algo, "--mode", mode, "--k", str(k),
                           "--n", str(n), "--seed", "23", "--format", fmt,
                           "--out", str(out)) == 0
                got.append((out.read_bytes(), sampleio.sidecar_path(out).read_bytes()))
            sources = make_sources(23, transforms.arity(algo, k))
            res = transforms.stream(algo, sources, 10_001, mode=mode,
                                    clt=transforms.CltConfig(k=k))
            got.append((res.values.tobytes(), res.uniforms_consumed,
                        res.pairs_proposed, res.pairs_accepted, res.core_counts,
                        [(s.register, s.steps_taken) for s in sources]))
            return got

        cut_rounds(monkeypatch, 0)
        want = outputs()
        cut_rounds(monkeypatch, 1, bound=bound)
        rounds = transforms.evaluate(transforms.Float64, algo,
                                     make_sources(23, transforms.arity(algo, k)),
                                     10_001, transforms.CltConfig(k=k))
        sizes = [r.values.size for r in rounds]
        assert len(sizes) > 2 and max(sizes) <= bound
        assert outputs() == want

    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_gen_memory_is_flat_in_n(self, tmp_path, monkeypatch, algo, mode):
        """gen --format bin holds one round, not its samples: 16 rounds
        peak within 1.25 times 2 rounds."""
        cut_rounds(monkeypatch, 1, bound=1 << 15)
        argv = ("gen", "--algo", algo, "--mode", mode, "--out", str(tmp_path / "x.bin"))
        assert run(*argv, "--n", "10") == 0  # table caches built before tracing
        peaks = []
        for rounds in (2, 16):
            tracemalloc.start()
            try:
                assert run(*argv, "--n", str(rounds << 15)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_gen_needs_no_memory_for_its_samples(self, tmp_path, monkeypatch):
        """With 8 MB of physical memory, 2 * 10^6 samples (16 MB) are still
        drawn and written; hist --bins keeps its refusal."""
        real = os.sysconf
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
        out = tmp_path / "x.bin"
        assert run("gen", "--n", "2000000", "--out", str(out)) == 0
        assert read_samples(out)[0].size == 2_000_000
        assert run("hist", str(out), "--bins", str(1 << 20)) == 1

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "100000"),
        ("quadrature", "--n", "50000"),
    ])
    def test_rewrite_counts_the_space_it_frees(self, tmp_path, monkeypatch, argv):
        """With 64 KiB free, an output of 4 * 10^5 bytes or more is refused at
        a fresh path and written over an existing output that holds more."""
        out = tmp_path / "x.out"
        assert run(*argv, "--out", str(out)) == 0
        before = out.read_bytes()
        out.write_bytes(b"\0" * len(before))
        free = os.statvfs_result((4096, 4096, 0, 0, 16, 0, 0, 0, 0, 255))
        monkeypatch.setattr(os, "statvfs", lambda path: free)
        assert run(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == before
        assert run(*argv, "--out", str(tmp_path / "fresh.out")) == 1
        assert not (tmp_path / "fresh.out").exists()

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "1000"),
        ("quadrature", "--n", "100"),
    ])
    def test_fifo_output_is_not_checked(self, tmp_path, monkeypatch, argv):
        """An output that is no regular file skips the space check: with no
        space free, a FIFO still gets the bytes of a regular-file run (each
        under the 64 KiB a pipe buffers, so nothing blocks)."""
        assert run(*argv, "--out", str(tmp_path / "x.out")) == 0
        want = (tmp_path / "x.out").read_bytes()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            none = os.statvfs_result((4096, 4096, 0, 0, 0, 0, 0, 0, 0, 255))
            monkeypatch.setattr(os, "statvfs", lambda path: none)
            assert run(*argv, "--out", str(fifo)) == 0
            got = os.read(reader, 1 << 17)
        finally:
            os.close(reader)
        assert got == want

    @pytest.mark.parametrize("command", ["gen", "quadrature"])
    def test_missing_folder_is_one_line_error(self, tmp_path, capsys, command):
        """statvfs fails on a folder that does not exist; opening the
        output then reports it, naming the output."""
        out = tmp_path / "missing" / "x.out"
        assert run(command, "--n", "10", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert f"'{out}'" in err
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 EiB")

        monkeypatch.setattr(transforms, "evaluate", exhausted)
        assert run("gen", "--n", "10", "--out", str(tmp_path / "x.bin")) == 1
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("argv, code", [
        # 16 clt summands need 16 seeds; an order-4 register has only 15
        (("--algo", "clt", "--k", "16", "--poly", "x^4+x^3+1"), 1),
        (("--poly", "1"), 2),
        (("--poly", "x"), 2),
        (("--poly=-7",), 2),
    ])
    def test_seed_space_edges_exit_without_hanging(self, tmp_path, argv, code):
        proc = run_child("gen", *argv, "--n", "10", "--out",
                         str(tmp_path / "x.bin"))
        assert proc.returncode == code
        assert_one_line_error(proc.stderr)

    @pytest.mark.parametrize("poly", [
        # an empty --poly is not the default polynomial
        "", "zz", "0xzz", "x^a+1", "x^+1", "x^4+x^3",
        # above the largest order: refused before 1 << e is formed
        "x^99999999999999999999+1",
        pytest.param("x^" + "9" * 5000 + "+1", id="x^(5000 digits)+1"),
        # a repeated term would cancel over GF(2)
        "x^3+x^2+x^2+1", "x^4+x^1+x+1"])
    def test_malformed_polynomial_is_data_error(self, tmp_path, capsys,
                                                monkeypatch, poly):
        # refused before any seed is derived for it
        def derive_seeds(*args):
            raise AssertionError("seeds derived for a refused --poly")

        monkeypatch.setattr(urng, "derive_seeds", derive_seeds)
        assert run("gen", "--poly", poly, "--n", "10",
                   "--out", str(tmp_path / "x.bin")) == 2
        assert_one_line_error(capsys.readouterr().err)
        assert not (tmp_path / "x.bin").exists()

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("GRNG_SEED", "abc")
        assert run("gen", "--n", "10", "--out", str(tmp_path / "x.bin")) == 1
        assert_one_line_error(capsys.readouterr().err)
        # test and hist take no seed, so they ignore it
        path = tmp_path / "y.bin"
        assert run("gen", "--n", "100", "--seed", "1", "--out", str(path)) == 0
        assert run("test", str(path), "--suite", "ad,ks") == 0
        assert run("hist", str(path), "--bins", "4") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seed", ["0x10000000000000005", str(1 << 64),
                                      "-3", "-0x1"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, monkeypatch,
                                                 capsys, seed, source):
        # derive_seeds reads the seed modulo 2^64: 2^64 + 5 would write the
        # samples of seed 5 under its own name
        out = tmp_path / "x.bin"
        argv = ["gen", "--n", "10", "--out", str(out)]
        if source == "flag":
            argv.append(f"--seed={seed}")
        else:
            monkeypatch.setenv("GRNG_SEED", seed)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert ("--seed" if source == "flag" else "GRNG_SEED") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["quadrature", "bench"])
    def test_every_generating_command_checks_the_seed(self, tmp_path, capsys,
                                                      command):
        argv = [command, "--n", "10", "--seed", str(1 << 64)]
        if command == "quadrature":
            argv += ["--out", str(tmp_path / "q.csv")]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert_one_line_error(captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        out = tmp_path / "x.bin"
        assert run("gen", "--n", "10", "--seed", hex(seed),
                   "--out", str(out)) == 0
        assert read_sidecar(out)["master_seed"] == seed


class TestTestCommand:
    @pytest.fixture()
    def sample_file(self, tmp_path):
        out = tmp_path / "bm.bin"
        run("gen", "--algo", "box-muller", "--n", "20000", "--seed", "1",
            "--out", str(out))
        return out

    def test_reports_table_and_json(self, tmp_path, sample_file, capsys):
        report = tmp_path / "rep.json"
        assert run("test", str(sample_file), "--out", str(report)) == 0
        table = capsys.readouterr().out
        assert "Null Hypothesis" in table and "Test Statistic" in table
        assert "Chi-Square" in table and "Kolmogorov-Smirnov" in table
        doc = json.loads(report.read_text())
        assert doc["n"] == 20000
        assert [r["test"] for r in doc["reports"]] == ["chi2", "ad", "ks"]
        for r in doc["reports"]:
            assert r["rejected"] == (r["p_value"] < r["alpha"])

    def test_report_matches_library(self, sample_file):
        values, _ = read_samples(sample_file)
        want = stats.run_suite(values)
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run("test", str(sample_file)) == 0
        for rep in want:
            assert f"{rep.statistic:.6g}" in buf.getvalue()

    def test_suite_subset(self, sample_file, capsys):
        assert run("test", str(sample_file), "--suite", "ks") == 0
        out = capsys.readouterr().out
        assert "Kolmogorov" in out and "Chi-Square" not in out

    def test_empty_suite_is_usage_error(self, sample_file):
        assert run("test", str(sample_file), "--suite", "") == 1
        assert run("test", str(sample_file), "--suite", " , ") == 1

    def test_unknown_suite_is_usage_error(self, sample_file):
        assert run("test", str(sample_file), "--suite", "chi2,cvm") == 1

    @pytest.mark.parametrize("flag", [
        ("--bins", "1"), ("--bins", "-2"), ("--alpha", "7"), ("--alpha", "1"),
        ("--alpha", "0"), ("--alpha", "-0.5"), ("--alpha", "nan"),
    ])
    def test_bad_bins_or_alpha_is_one_line_usage_error(self, sample_file,
                                                        capsys, flag):
        capsys.readouterr()
        assert run("test", str(sample_file), *flag) == 1
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("bins", ["20001", "10000000000"])
    def test_more_bins_than_samples_is_one_line_data_error(self, sample_file,
                                                           bins):
        # in a child, so that a loop over 5 x 10^9 quantiles fails by timeout
        proc = run_child("test", str(sample_file), "--bins", bins)
        assert proc.returncode == 2
        assert_one_line_error(proc.stderr)
        assert proc.stdout == ""

    def test_bins_up_to_sample_count_accepted(self, sample_file, capsys):
        assert run("test", str(sample_file), "--bins", "20000") == 0
        assert run("test", str(sample_file), "--suite", "ad,ks",
                   "--bins", "10000000000") == 0

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("test", str(tmp_path / "nope.bin")) == 2

    def test_corrupt_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"GARBAGE!" * 4)
        assert run("test", str(bad)) == 2

    def test_too_small_sample_is_data_error(self, tmp_path):
        out = tmp_path / "tiny.bin"
        run("gen", "--n", "10", "--seed", "1", "--out", str(out))
        assert run("test", str(out), "--suite", "chi2") == 2

    def test_determinism_of_report(self, tmp_path, sample_file):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run("test", str(sample_file), "--out", str(r1))
        run("test", str(sample_file), "--out", str(r2))
        assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("command", ["test", "hist"])
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_gives_one_line_error(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(BAD_INPUTS[name])
    assert run(command, str(path)) in (1, 2)
    assert_one_line_error(capsys.readouterr().err)


def _read_back(tmp_path, capsys, path):
    """`read_samples`, `test`'s table and report and `hist`'s csv of path."""
    report, hist = tmp_path / "report.json", tmp_path / "hist.csv"
    capsys.readouterr()
    assert run("test", str(path), "--out", str(report)) == 0
    assert run("hist", str(path), "--out", str(hist)) == 0
    doc = json.loads(report.read_text())
    # the report names its input; all else must not depend on the name
    assert doc.pop("input") == str(path)
    values, mode = read_samples(path)
    return values.tobytes(), mode, capsys.readouterr().out, doc, hist.read_bytes()


@pytest.mark.parametrize("fmt, name", [
    (fmt, f"y.{suffix}" if suffix else "y")
    for fmt in sampleio.FORMATS for suffix in (*sampleio.FORMATS, "")
    if suffix != fmt])
def test_format_is_read_from_bytes_not_name(tmp_path, capsys, fmt, name):
    """A `gen --format fmt` file reads back the same under any name."""
    own, other = tmp_path / f"x.{fmt}", tmp_path / name
    for out in (own, other):
        assert run("gen", "--n", "200", "--seed", "4", "--format", fmt,
                   "--out", str(out)) == 0
    assert other.read_bytes() == own.read_bytes()
    assert (_read_back(tmp_path, capsys, other)
            == _read_back(tmp_path, capsys, own))


class TestHistCommand:
    def test_matches_library_histogram(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_samples(src, np.array([-1.0, 0.0, 1.0]), "reference", "csv")
        assert run("hist", str(src), "--bins", "2") == 0
        got = capsys.readouterr().out
        want = io.StringIO()
        stats.build_histogram([-1.0, 0.0, 1.0], bins=2).to_csv(want)
        assert got == want.getvalue()

    def test_bell_shape_mode_near_zero(self, tmp_path):
        src = tmp_path / "bm.bin"
        run("gen", "--algo", "box-muller", "--n", "100000", "--seed", "1",
            "--out", str(src))
        out = tmp_path / "h.csv"
        assert run("hist", str(src), "--bins", "100", "--out", str(out)) == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        best = max(rows, key=lambda r: int(r[2]))
        assert -0.25 < float(best[0]) < 0.25 or -0.25 < float(best[1]) < 0.25

    def test_zero_bins_is_usage_error(self, tmp_path):
        src = tmp_path / "s.csv"
        write_samples(src, np.array([1.0]), "reference", "csv")
        assert run("hist", str(src), "--bins", "0") == 1

    def test_bins_beyond_memory_is_one_line_error(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_samples(src, np.array([1.0]), "reference", "csv")
        assert run("hist", str(src), "--bins", str(1 << 60)) == 1
        captured = capsys.readouterr()
        assert_one_line_error(captured.err)
        assert captured.out == ""

    def test_determinism(self, tmp_path):
        src = tmp_path / "s.bin"
        run("gen", "--n", "5000", "--seed", "3", "--out", str(src))
        h1, h2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        run("hist", str(src), "--out", str(h1))
        run("hist", str(src), "--out", str(h2))
        assert h1.read_bytes() == h2.read_bytes()


class TestBenchCommand:
    def test_runs_all_algorithms(self, capsys):
        assert run("bench", "--all-algos", "--n", "2000", "--seed", "1") == 0
        out = capsys.readouterr().out
        for algo in transforms.ALGORITHMS:
            assert algo in out
        assert "uniforms/sample" in out

    def test_pipeline_mode_reports_core_counts(self, capsys):
        assert run("bench", "--algo", "polar", "--n", "2000", "--seed", "1",
                   "--mode", "pipeline") == 0
        out = capsys.readouterr().out
        assert '"log"' in out and '"div"' in out

    def test_zero_n_is_usage_error(self):
        assert run("bench", "--n", "0") == 1

    @pytest.mark.parametrize("flag", [["--out", "x.bin"], ["--format", "csv"]])
    def test_output_flags_are_usage_errors(self, flag):
        assert run("bench", "--n", "10", *flag) == 1


@pytest.mark.parametrize("argv", [["test", "--format", "csv"],
                                  ["hist", "--format", "bin"]])
def test_format_flag_of_readers_is_usage_error(tmp_path, capsys, argv):
    """test and hist read a file's format from its bytes: no flag sets it."""
    src = tmp_path / "s.csv"
    write_samples(src, np.arange(60.0), "reference", "csv")
    assert run(argv[0], str(src), *argv[1:]) == 1
    assert_one_line_error(capsys.readouterr().err)


class TestQuadratureCommand:
    def test_csv_output_and_sidecar(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run("quadrature", "--n", "50", "--seed", "6", "--variance",
                   "2.5", "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "q,p"
        assert len(lines) == 51
        meta = read_sidecar(out)
        assert meta["variance"] == 2.5
        assert meta["pairs"] == 50

    def test_scaling_matches_library(self, tmp_path):
        out = tmp_path / "q.csv"
        run("quadrature", "--n", "25", "--seed", "8", "--variance", "4.0",
            "--format", "csv", "--out", str(out))
        rows = [tuple(map(float, line.split(",")))
                for line in out.read_text().strip().splitlines()[1:]]
        seeds = urng.derive_seeds(8, 2, 32)
        srcs = [urng.new_lfsr(urng.LfsrConfig(order=32,
                                              taps=urng.DEFAULT_POLYNOMIAL,
                                              seed=s)) for s in seeds]
        g = transforms.stream("box-muller", srcs, 50).values
        for i, (q, p) in enumerate(rows):
            assert q == 2.0 * g[2 * i]
            assert p == 2.0 * g[2 * i + 1]

    def test_json_format(self, tmp_path):
        out = tmp_path / "q.json"
        assert run("quadrature", "--n", "10", "--seed", "6", "--format",
                   "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 10 and set(doc[0]) == {"q", "p"}

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("quadrature", "--n", "20", "--seed", "6", "--out", str(a))
        run("quadrature", "--n", "20", "--seed", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_default_format_is_csv_in_file_and_sidecar(self, tmp_path):
        out = tmp_path / "q.out"
        assert run("quadrature", "--n", "5", "--seed", "6",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("q,p\n")
        assert read_sidecar(out)["format"] == "csv"

    def test_bin_format_is_usage_error(self, tmp_path):
        assert run("quadrature", "--n", "5", "--format", "bin",
                   "--out", str(tmp_path / "q.bin")) == 1

    @pytest.mark.parametrize("variance", ["0", "-1", "nan", "inf"])
    def test_bad_variance_is_one_line_usage_error(self, tmp_path, capsys,
                                                  variance):
        assert run("quadrature", "--n", "5", "--variance", variance,
                   "--out", str(tmp_path / "q.csv")) == 1
        assert_one_line_error(capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []  # neither file nor sidecar

    def test_zero_pairs_is_usage_error(self, tmp_path):
        assert run("quadrature", "--n", "0",
                   "--out", str(tmp_path / "x.csv")) == 1
