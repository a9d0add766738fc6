import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import mp, mpf
from mpmath import cos as mcos, log as mlog, sin as msin, sqrt as msqrt

from _fixtures import cut_rounds, fixed_pairs, make_sources, ulps
from grng import transforms, urng
from grng.transforms import (
    CltConfig,
    DomainError,
    LengthMismatchError,
    box_muller,
    central_limit,
    polar,
    polar_draw,
    stream,
)

mp.dps = 60


class TestBoxMuller:
    def test_analytic_right_angle(self):
        # radius sqrt(-2 ln e^-2) = 2 and angle pi/2 pin both outputs
        g = box_muller(math.exp(-2.0), 0.25)
        assert g.alpha == pytest.approx(2.0, rel=1e-14)
        assert abs(g.beta) < 1e-15

    def test_against_high_precision_oracle(self):
        g = box_muller(0.5, 0.3)
        r = msqrt(-2 * mlog(mpf(0.5)))
        theta = mpf(2.0 * math.pi * 0.3)
        assert g.alpha == pytest.approx(float(r * msin(theta)), rel=1e-14)
        assert g.beta == pytest.approx(float(r * mcos(theta)), rel=1e-14)
        # frozen values from the oracle above
        assert g.alpha == pytest.approx(1.1197834742645658, rel=1e-13)
        assert g.beta == pytest.approx(-0.3638397063046711, rel=1e-13)

    def test_pythagorean_identity(self):
        # both sides carry ~2 ulps of rounding of their own, so allow 4
        for u1, u2 in fixed_pairs(500, 101):
            g = box_muller(u1, u2)
            assert ulps(g.alpha ** 2 + g.beta ** 2, -2.0 * math.log(u1)) <= 4.0

    def test_accepts_uniform_sample_objects(self):
        g1 = box_muller(urng.UniformSample(0.5, 1), urng.UniformSample(0.3, 2))
        assert g1 == box_muller(0.5, 0.3)

    @pytest.mark.parametrize("u1,u2", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                       (0.5, 0.0), (0.5, 1.0), (0.5, 1.7)])
    def test_domain_errors(self, u1, u2):
        with pytest.raises(DomainError):
            box_muller(u1, u2)


class TestPolar:
    def test_on_axis_value_against_oracle(self):
        # u = (0.8, 0.5) maps to v = (0.6, 0.0); for exact real inputs the
        # radial factor is sqrt(-2 ln 0.36 / 0.36) = 2.38240220508...
        g = polar(0.8, 0.5)
        v1 = 2 * mpf(0.8) - 1  # the binary64 v1, a hair above 0.6
        s = v1 * v1
        factor = msqrt(-2 * mlog(s) / s)
        assert float(factor) == pytest.approx(2.3824022050888355, rel=1e-8)
        assert g.alpha == pytest.approx(float(v1 * factor), rel=1e-13)
        assert g.alpha == pytest.approx(1.4294413227075682, rel=1e-13)
        assert g.beta == 0.0

    def test_rejection_outside_disk(self):
        d = polar_draw(0.95, 0.95)
        assert d.v1 == pytest.approx(0.9) and d.v2 == pytest.approx(0.9)
        assert d.s >= 1.0 and not d.accepted
        assert polar(0.95, 0.95) is None

    def test_origin_rejected(self):
        assert polar_draw(0.5, 0.5).accepted is False
        assert polar(0.5, 0.5) is None

    def test_radial_ratio_preserved(self):
        for u1, u2 in fixed_pairs(300, 202,
                                          lambda a, b: polar_draw(a, b).accepted):
            d = polar_draw(u1, u2)
            g = polar(u1, u2)
            if d.v2 != 0.0:
                assert g.alpha / g.beta == pytest.approx(d.v1 / d.v2, rel=1e-12)

    def test_acceptance_fraction_matches_disk_area(self):
        n = 100_000
        accepted = sum(polar_draw(u1, u2).accepted
                       for u1, u2 in fixed_pairs(n, 303))
        p = math.pi / 4
        band = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(accepted / n - p) < band

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polar(0.0, 0.5)
        with pytest.raises(DomainError):
            polar(0.5, 1.0)


class TestCentralLimit:
    def test_symmetry_center(self):
        assert central_limit([0.5] * 12) == 0.0

    def test_support_bound(self):
        cfg = CltConfig(k=12)
        assert cfg.support_bound == pytest.approx(6.0)
        near_one = [1.0 - 2.0 ** -40] * 12
        assert central_limit(near_one) == pytest.approx(6.0, rel=1e-9)
        for k in (2, 5, 48):
            assert CltConfig(k=k).support_bound == pytest.approx(math.sqrt(3 * k))

    def test_fixed_vector_arithmetic(self):
        us = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.9, 0.9, 0.9]
        assert math.fsum(us) == pytest.approx(7.2, abs=1e-15)
        assert central_limit(us) == pytest.approx(1.2, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            central_limit([0.5] * 11)
        with pytest.raises(LengthMismatchError):
            central_limit([0.5] * 13, CltConfig(k=12))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            CltConfig(k=1)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            central_limit([0.5] * 11 + [1.0])


class TestStream:
    def test_count_zero(self):
        res = stream("box-muller", make_sources(1, 2), 0)
        assert res.values.size == 0
        assert res.uniforms_consumed == 0

    def test_box_muller_consumption(self):
        res = stream("box-muller", make_sources(1, 2), 10_000)
        assert res.values.size == 10_000
        assert res.uniforms_consumed == 10_000
        odd = stream("box-muller", make_sources(1, 2), 9_999)
        assert odd.uniforms_consumed == 10_000

    def test_clt_consumption(self):
        res = stream("clt", make_sources(3, 12), 5_000)
        assert res.uniforms_consumed == 12 * 5_000
        assert res.values.size == 5_000

    def test_polar_consumption_ratio(self):
        res = stream("polar", make_sources(5, 2), 200_000)
        ratio = res.uniforms_consumed / res.values.size
        assert 1.25 < ratio < 1.30  # 4/pi ~ 1.2732 plus block overshoot
        assert res.pairs_accepted <= res.pairs_proposed
        assert res.uniforms_consumed == 2 * res.pairs_proposed

    @settings(max_examples=60, deadline=None)
    @given(algo=st_.sampled_from(transforms.ALGORITHMS),
           mode=st_.sampled_from(["reference", "pipeline"]),
           count=st_.integers(0, 3_000), k=st_.integers(2, 16),
           master=st_.integers(0, 2 ** 32))
    def test_accounting(self, algo, mode, count, k, master):
        arity = k if algo == "clt" else 2
        res = stream(algo, make_sources(master, arity), count, mode=mode,
                     clt=CltConfig(k=k))
        assert res.values.size == count
        if algo == "polar":
            proposals = res.pairs_proposed
            assert count <= 2 * res.pairs_accepted <= 2 * proposals
        else:
            proposals = count if algo == "clt" else -(-count // 2)
            assert res.pairs_proposed == res.pairs_accepted == 0
        assert res.uniforms_consumed == arity * proposals

    def test_determinism(self):
        a = stream("polar", make_sources(9, 2), 5_001)
        b = stream("polar", make_sources(9, 2), 5_001)
        assert np.array_equal(a.values, b.values)
        assert a.uniforms_consumed == b.uniforms_consumed

    def test_box_muller_stream_matches_scalar_ops(self):
        res = stream("box-muller", make_sources(11, 2), 2_000)
        s1, s2 = make_sources(11, 2)
        for i in range(0, 2_000, 2):
            g = box_muller(s1.next_uniform().value, s2.next_uniform().value)
            assert ulps(res.values[i], g.alpha) <= 4.0
            assert ulps(res.values[i + 1], g.beta) <= 4.0

    def test_polar_stream_matches_scalar_ops(self):
        res = stream("polar", make_sources(13, 2), 400)
        s1, s2 = make_sources(13, 2)
        produced = []
        while len(produced) < 400:
            g = polar(s1.next_uniform().value, s2.next_uniform().value)
            if g is not None:
                produced.extend([g.alpha, g.beta])
        for got, want in zip(res.values, produced):
            assert ulps(got, want) <= 4.0

    def test_clt_stream_matches_scalar_ops(self):
        res = stream("clt", make_sources(17, 12), 200)
        sources = make_sources(17, 12)
        for i in range(200):
            us = [s.next_uniform().value for s in sources]
            assert res.values[i] == pytest.approx(central_limit(us), abs=1e-12)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            stream("ziggurat", make_sources(1, 2), 10)
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            stream("box-muller", make_sources(1, 2), 10, mode="bogus")
        with pytest.raises(ValueError, match="count must be >= 0"):
            stream("box-muller", make_sources(1, 2), -1)

    def test_evaluator_maps_each_mode(self):
        from grng import fp_pipeline

        assert transforms.evaluator("reference") is transforms.Float64
        assert transforms.evaluator("pipeline") is fp_pipeline.Binary32
        for mode in ("bogus", "Reference", None):
            with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
                transforms.evaluator(mode)

    def test_source_arity_checked(self):
        with pytest.raises(ValueError):
            stream("box-muller", make_sources(1, 3), 10)
        for mode in ("reference", "pipeline"):
            with pytest.raises(LengthMismatchError):
                stream("clt", make_sources(1, 5), 10, mode=mode,
                       clt=CltConfig(k=12))
        # one source per uniform a pass reads: arity of them, no more or fewer
        for algo in transforms.ALGORITHMS:
            for k in (2, 5, 12):
                n = transforms.arity(algo, k)
                assert n == (k if algo == "clt" else 2)
                for mode in ("reference", "pipeline"):
                    res = stream(algo, make_sources(3, n), 5, mode=mode,
                                 clt=CltConfig(k=k))
                    assert res.values.size == 5
                    for wrong in (n - 1, n + 1):
                        with pytest.raises(LengthMismatchError):
                            stream(algo, make_sources(3, wrong), 5, mode=mode,
                                   clt=CltConfig(k=k))
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            transforms.arity("bogus", 12)

    def test_moments_sane_at_medium_n(self):
        res = stream("box-muller", make_sources(21, 2), 200_000)
        assert abs(res.values.mean()) < 0.01
        assert abs(res.values.var() - 1.0) < 0.02


class TestBlocks:
    def test_block_plan(self, monkeypatch):
        assert transforms._block_starts(2 * transforms._MIN_BLOCK - 1) == [0]
        cut_rounds(monkeypatch, 3)
        assert transforms._block_starts(1999) == [0]
        assert transforms._block_starts(2000) == [0, 1000]
        assert transforms._block_starts(3001) == [0, 1000, 2000]
        assert transforms._block_starts(10 ** 6) == [0, 333_333, 666_666]

    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_blocks_change_nothing(self, monkeypatch, algo, mode):
        """Bytes, accounting and each source's end state are those of one
        block at 1-4 threads, for even and odd counts and a clt k of 5."""
        for count, k in ((12_345, 12), (40_000, 12), (9_001, 5)):
            n = transforms.arity(algo, k)
            runs = []
            for threads in (0, 1, 2, 3, 4):
                cut_rounds(monkeypatch, threads)
                sources = make_sources(77, n)
                res = stream(algo, sources, count, mode=mode, clt=CltConfig(k=k))
                runs.append((res.values.tobytes(), res.values.dtype,
                             res.uniforms_consumed, res.pairs_proposed,
                             res.pairs_accepted, res.core_counts,
                             [(s.register, s.steps_taken) for s in sources]))
            assert all(run == runs[0] for run in runs[1:]), (count, k)

    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("bound", [1 << 10, 1 << 20])
    def test_polar_rows_move_over_themselves(self, monkeypatch, bound, mode):
        """Polar's blocks close their gaps by moves that overlap where they
        land, as a block's gap is about a fifth of it: 2^10 values per
        thread cut each planned round into many short rounds, 2^20 draws it
        in one.  Bytes, accounting and each source's end state are those of
        one block at 1-4 threads."""
        for count in (12_345, 40_000, 9_001):
            runs = []
            for threads in (0, 1, 2, 3, 4):
                cut_rounds(monkeypatch, threads, bound=bound)
                sources = make_sources(77, 2)
                res = stream("polar", sources, count, mode=mode)
                runs.append((res.values.tobytes(), res.values.dtype,
                             res.uniforms_consumed, res.pairs_proposed,
                             res.pairs_accepted, res.core_counts,
                             [(s.register, s.steps_taken) for s in sources]))
            assert all(run == runs[0] for run in runs[1:]), count

    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    def test_rounds_hold_whole_pairs(self, monkeypatch, mode):
        """Under odd round bounds every round but the last holds an even
        number of values; box-muller's and polar's rounds are cut as their
        passes already cut them."""
        want = {
            (1, 4097): {"box-muller": [4096] * 4 + [3617],
                        "polar": [3186, 3220, 3220, 3250, 3248, 3248, 332, 297],
                        "clt": [4096] * 4 + [3617]},
            (3, 3001): {"box-muller": [9002, 9002, 1997],
                        "polar": [7036, 7158, 5510, 297],
                        "clt": [9002, 9002, 1997]},
        }
        for (threads, bound), by_algo in want.items():
            cut_rounds(monkeypatch, threads, bound=bound)
            for algo, sizes in by_algo.items():
                sources = make_sources(7, transforms.arity(algo, 12))
                got = [r.values.size for r in transforms.evaluate(
                    transforms.evaluator(mode), algo, sources, 20_001, CltConfig())]
                assert got == sizes, (threads, bound, algo)
                assert all(size % 2 == 0 for size in got[:-1])

    def test_blocks_run_in_the_callers_context(self, monkeypatch):
        """Each block sees the caller's np.errstate, as numpy keeps it in a
        context variable that a bare thread does not inherit."""
        seen = []

        class Recording(transforms.Float64):
            @staticmethod
            def log(x):
                seen.append(np.geterr()["divide"])
                return np.log(x)

        cut_rounds(monkeypatch, 4)
        with np.errstate(divide="ignore"):
            for _ in transforms.evaluate(Recording, "box-muller",
                                         make_sources(1, 2), 20_000, CltConfig()):
                pass
        # one log per block: rounds of 6002 and 3998 passes, in 4 and 3 blocks
        assert seen == ["ignore"] * 7

        def log_zero():
            return np.log(np.zeros(3))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                outs = transforms._in_threads([log_zero] * 3)
            assert all(np.isneginf(out).all() for out in outs)
            with np.errstate(divide="raise"):
                with pytest.raises(FloatingPointError):
                    transforms._in_threads([lambda: 0, log_zero])

    def test_block_exception_is_raised_unchanged(self, monkeypatch):
        main = threading.main_thread()
        raised = []

        class Exhausted(transforms.Float64):
            @staticmethod
            def log(x):
                if threading.current_thread() is not main:
                    raised.append(MemoryError("Unable to allocate"))
                    raise raised[-1]
                return np.log(x)

        cut_rounds(monkeypatch, 3)
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            next(transforms.evaluate(Exhausted, "box-muller", make_sources(1, 2),
                                     20_000, CltConfig()))
        assert len(raised) == 2 and any(info.value is exc for exc in raised)
        assert threading.active_count() == before

        def fail(exc):
            def call():
                raise exc
            return call

        first, second = KeyError("first"), ValueError("second")
        with pytest.raises(KeyError) as info:
            transforms._in_threads([lambda: 1, fail(first), fail(second)])
        assert info.value is first
        assert transforms._in_threads([lambda: 1, lambda: 2]) == [1, 2]

        # a thread that cannot start leaves none of the others running
        real_start, started = threading.Thread.start, []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            transforms._in_threads([lambda: 1] + [lambda: time.sleep(0.2)] * 2)
        assert len(started) == 1 and not started[0].is_alive()

    def test_blocks_draw_in_bounded_steps(self, monkeypatch):
        """clt k=12 over two blocks peaks below three times its output: each
        round draws at most 2^18 passes per block into one round buffer."""
        monkeypatch.setattr(transforms, "_cores", lambda: 2)
        tracemalloc.start()
        try:
            values = stream("clt", make_sources(5, 12), 1 << 20).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * values.nbytes, peak / values.nbytes

    @pytest.mark.parametrize("mode", ["reference", "pipeline"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_output_is_held_once(self, monkeypatch, algo, mode):
        """`stream` holds its output and one round buffer: 2^20 values in
        rounds of 2^14 values per thread peak at no more than 1.6 times the
        output."""
        cut_rounds(monkeypatch, 2, min_block=1 << 17, bound=1 << 14)
        sources = make_sources(5, transforms.arity(algo, 12))
        tracemalloc.start()
        try:
            values = stream(algo, sources, 1 << 20, mode=mode).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * values.nbytes, peak / values.nbytes

    def test_short_runs_start_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(transforms, "_cores", lambda: 2)
        passes = 2 * transforms._MIN_BLOCK - 1
        for algo in transforms.ALGORITHMS:
            n = transforms.arity(algo, 12)
            count = passes if algo == "clt" else 2 * int(passes * 0.78)
            assert stream(algo, make_sources(3, n), count).values.size == count
        with pytest.raises(AssertionError, match="a thread was started"):
            stream("clt", make_sources(3, 12), passes + 1)
