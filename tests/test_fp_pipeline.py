import gc
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import mp, mpf
from mpmath import cos as mcos, exp as mexp, log as mlog, pi as mpi, sin as msin

from _fixtures import make_sources
from grng import fp_pipeline as fp
from grng import transforms, urng
from grng.fp_pipeline import (
    core_add,
    core_cos,
    core_div,
    core_log,
    core_mul,
    core_sin,
    core_sincos,
    core_sqrt,
    expected_core_counts,
    run_graph,
    uniform_to_f32,
)

mp.dps = 50

F = np.float32


def bits_of(x):
    return int(np.float32(x).view(np.uint32))


def from_bits(b):
    return np.uint32(b).view(np.float32)


def round32_correct(mp_value):
    """Correctly rounded binary32 of an exact mpmath value (via float64)."""
    return np.float32(float(mp_value))


def fixed_f32_uniforms(n, master):
    state = master
    out = []
    while len(out) < n:
        state, z = urng.splitmix64(state)
        u = np.float32((z >> 32) * 2.0 ** -32)
        if np.float32(0.0) < u < np.float32(1.0):
            out.append(u)
    return out


class TestCoreLog:
    def test_input_one_asserts_zero_flag(self):
        res = core_log(F(1.0))
        assert res.result == 0.0
        assert res.zero and not res.nan

    def test_negative_input_asserts_nan(self):
        res = core_log(F(-1.0))
        assert math.isnan(float(res.result))
        assert res.nan and not res.zero

    def test_nan_input_asserts_nan(self):
        assert core_log(F("nan")).nan

    def test_zero_input_gives_neg_inf_no_flag(self):
        res = core_log(F(0.0))
        assert float(res.result) == -math.inf
        assert not res.nan and not res.zero

    def test_near_e_correctly_rounded(self):
        x = F(math.e)
        res = core_log(x)
        assert res.result == round32_correct(mlog(mpf(float(x))))

    def test_faithful_within_1ulp_of_correct(self):
        for u in fixed_f32_uniforms(400, 71):
            got = core_log(u).result
            correct = round32_correct(mlog(mpf(float(u))))
            assert abs(float(got) - float(correct)) <= np.spacing(abs(correct))


class TestCoreSincos:
    def test_zero_input(self):
        assert core_sincos(F(0.0), "sin").result == 0.0
        assert core_sincos(F(0.0), "cos").result == 1.0

    def test_half_pi_sin_within_1ulp_of_one(self):
        x = F(math.pi / 2)
        res = core_sin(x)
        correct = round32_correct(msin(mpf(float(x))))
        assert abs(float(res.result) - float(correct)) <= np.spacing(np.float32(1.0))

    def test_no_exception_ports(self):
        for x in (F(0.5), F("inf"), F("nan"), F(-3.0)):
            res = core_sincos(x, "cos")
            assert not any(res.flags.values())

    def test_nonfinite_input_gives_nan_result(self):
        assert math.isnan(float(core_sin(F("inf")).result))

    def test_pythagorean_ulp_budget(self):
        # per-core 1-ulp accuracy keeps sin^2 + cos^2 within 4 * 2^-24 of 1
        state = 404
        budget = 4.0 * 2.0 ** -24
        for _ in range(10_000):
            state, z = urng.splitmix64(state)
            theta = F((z >> 32) * 2.0 ** -32 * 2.0 * math.pi)
            s = float(core_sin(theta).result)
            c = float(core_cos(theta).result)
            assert abs(s * s + c * c - 1.0) <= budget

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            core_sincos(F(0.1), "tan")


class TestCoreDiv:
    def test_exact_division_no_flags(self):
        res = core_div(F(1.0), F(2.0))
        assert res.result == 0.5
        assert not any(res.flags.values())

    def test_zero_over_zero_is_nan(self):
        res = core_div(F(0.0), F(0.0))
        assert res.nan and math.isnan(float(res.result))

    def test_inf_over_inf_is_nan(self):
        assert core_div(F("inf"), F("inf")).nan

    def test_finite_overflow(self):
        res = core_div(F(3.4e38), F(1e-10))
        assert res.overflow
        assert float(res.result) == math.inf

    def test_division_by_zero_is_not_overflow(self):
        res = core_div(F(1.0), F(0.0))
        assert float(res.result) == math.inf
        assert not res.overflow and not res.nan

    def test_underflow_to_zero(self):
        res = core_div(F(1e-30), F(1e30))
        assert res.underflow and res.zero
        assert res.result == 0.0

    def test_underflow_to_denormal(self):
        res = core_div(F(1e-30), F(1e10))
        assert 0.0 < abs(float(res.result)) < 2.0 ** -126
        assert res.underflow and not res.zero

    def test_exact_zero_numerator_not_underflow(self):
        res = core_div(F(0.0), F(7.0))
        assert res.zero and not res.underflow

    def test_correctly_rounded(self):
        us = fixed_f32_uniforms(500, 88)
        for a, b in zip(us[0::2], us[1::2]):
            got = core_div(a, b).result
            assert got == round32_correct(mpf(float(a)) / mpf(float(b)))


class TestCoreSqrt:
    def test_exact_square(self):
        res = core_sqrt(F(4.0))
        assert res.result == 2.0
        assert not any(res.flags.values())

    def test_negative_input_nan(self):
        res = core_sqrt(F(-2.0))
        assert res.nan and math.isnan(float(res.result))

    def test_zero_gives_zero_flag(self):
        res = core_sqrt(F(0.0))
        assert res.zero and res.result == 0.0

    def test_negative_zero_is_not_nan(self):
        res = core_sqrt(F(-0.0))
        assert not res.nan and res.zero

    def test_inf_overflow_port(self):
        assert core_sqrt(F("inf")).overflow

    def test_correctly_rounded(self):
        for u in fixed_f32_uniforms(500, 99):
            got = core_sqrt(u).result
            assert got == round32_correct(mp.sqrt(mpf(float(u))))


class TestFlagPredicates:
    """Flags recomputed independently from IEEE-754 bit fields."""

    @staticmethod
    def fields(x):
        b = bits_of(x)
        return b >> 31, (b >> 23) & 0xFF, b & 0x7FFFFF

    @classmethod
    def is_nan(cls, x):
        s, e, f = cls.fields(x)
        return e == 255 and f != 0

    @classmethod
    def is_inf(cls, x):
        s, e, f = cls.fields(x)
        return e == 255 and f == 0

    @classmethod
    def is_zero(cls, x):
        s, e, f = cls.fields(x)
        return e == 0 and f == 0

    @classmethod
    def is_denormal(cls, x):
        s, e, f = cls.fields(x)
        return e == 0 and f != 0

    def random_patterns(self, n, master):
        state = master
        out = []
        while len(out) < n:
            state, z = urng.splitmix64(state)
            out.append(from_bits(z & 0xFFFFFFFF))
        return out

    def test_log_flags(self):
        for x in self.random_patterns(20_000, 11):
            res = core_log(x)
            sign, _, _ = self.fields(x)
            negative = bool(sign) and not self.is_zero(x) and not self.is_nan(x)
            assert res.nan == (self.is_nan(x) or negative)
            assert res.zero == (bits_of(x) == 0x3F800000) == (res.result == 0.0)

    def test_div_flags(self):
        pats = self.random_patterns(40_000, 22)
        for a, b in zip(pats[0::2], pats[1::2]):
            res = core_div(a, b)
            q = res.result
            assert res.nan == self.is_nan(q)
            assert res.zero == self.is_zero(q)
            finite = not (self.is_nan(a) or self.is_inf(a)
                          or self.is_nan(b) or self.is_inf(b))
            assert res.overflow == (self.is_inf(q) and finite
                                    and not self.is_zero(b))
            assert res.underflow == ((self.is_zero(q) or self.is_denormal(q))
                                     and not self.is_zero(a)
                                     and not self.is_zero(b))

    # +-inf, NaN, +-max finite, 2, +-0 and the smallest denormal: random
    # 32-bit patterns practically never give an infinite operand
    ARITH_SPECIALS = [0x7F800000, 0xFF800000, 0x7FC00000, 0x7F7FFFFF,
                      0xFF7FFFFF, 0x40000000, 0x00000000, 0x80000000, 0x1]

    def arith_operands(self, master):
        pats = self.random_patterns(40_000, master)
        edge = [from_bits(b) for b in self.ARITH_SPECIALS] + pats[:4]
        return list(zip(pats[0::2], pats[1::2])) + [(a, b) for a in edge
                                                     for b in edge]

    def check_arith_flags(self, core, master):
        overflowed = 0
        for a, b in self.arith_operands(master):
            res = core(a, b)
            r = res.result
            finite = not (self.is_nan(a) or self.is_inf(a)
                          or self.is_nan(b) or self.is_inf(b))
            assert res.nan == self.is_nan(r)
            assert res.zero == self.is_zero(r)
            assert res.overflow == (self.is_inf(r) and finite)
            assert res.underflow == self.is_denormal(r)
            overflowed += res.overflow
        assert overflowed

    def test_mul_flags(self):
        self.check_arith_flags(core_mul, 44)

    def test_add_flags(self):
        self.check_arith_flags(core_add, 55)

    def test_sqrt_flags(self):
        for x in self.random_patterns(20_000, 33):
            res = core_sqrt(x)
            sign, _, _ = self.fields(x)
            negative = bool(sign) and not self.is_zero(x) and not self.is_nan(x)
            assert res.nan == (self.is_nan(x) or negative)
            assert res.zero == self.is_zero(res.result)
            assert res.overflow == (self.is_inf(x) and not sign)


class TestArrayCores:
    """A core called on an array equals the core called on each element."""

    SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -149, -(2.0 ** -149),
                2.0 ** -126, 3.4e38, -3.4e38, math.inf, -math.inf, math.nan]

    def patterns(self, n, master):
        state = master
        out = []
        while len(out) < n:
            state, z = urng.splitmix64(state)
            out.append(from_bits(z & 0xFFFFFFFF))
        return np.array([F(v) for v in self.SPECIALS] + out, dtype=np.float32)

    @pytest.mark.parametrize("core,arity", [
        (core_log, 1), (core_sin, 1), (core_cos, 1), (core_sqrt, 1),
        (core_div, 2), (core_mul, 2), (core_add, 2)])
    def test_elementwise(self, core, arity):
        xs = [self.patterns(400, 7 + i) for i in range(arity)]
        # every special value meets every other as the second operand too
        if arity == 2:
            xs[1][:len(self.SPECIALS)] = xs[0][:len(self.SPECIALS)][::-1]
        batch = core(*xs)
        assert batch.result.shape == xs[0].shape
        for name, flag in batch.flags.items():
            assert np.shape(flag) == xs[0].shape, name
        for i in range(xs[0].size):
            one = core(*(x[i] for x in xs))
            assert bits_of(one.result) == bits_of(batch.result[i])
            assert {k: bool(v) for k, v in one.flags.items()} == \
                {k: bool(v[i]) for k, v in batch.flags.items()}


def bm_graph_oracle(u1, u2):
    """Independent round32-after-every-core evaluation of the BM graph."""
    l = F(math.log(float(u1))) if float(u1) > 0 else F("nan")
    m1 = F(-2.0) * l
    r = np.sqrt(m1)
    theta = F(2.0 * math.pi) * u2
    return r * F(math.sin(float(theta))), r * F(math.cos(float(theta)))


def polar_graph_oracle(v1, v2):
    s = v1 * v1 + v2 * v2
    if not 0.0 < float(s) < 1.0:
        return None
    m = F(-2.0) * F(math.log(float(s)))
    r = np.sqrt(m / s)
    return v1 * r, v2 * r


def clt_graph_oracle(us):
    acc = us[0]
    for u in us[1:]:
        acc = acc + u
    k = np.float32(len(us))
    num = acc + (-(k * F(0.5)))
    den = np.sqrt(k * F(1.0 / 12.0))
    return num / den


class TestRunGraph:
    def test_box_muller_bit_identical_to_oracle(self):
        us = fixed_f32_uniforms(400, 55)
        for u1, u2 in zip(us[0::2], us[1::2]):
            outs, _ = run_graph("box-muller", [u1, u2])
            want = bm_graph_oracle(u1, u2)
            assert bits_of(outs[0]) == bits_of(want[0])
            assert bits_of(outs[1]) == bits_of(want[1])

    def test_polar_bit_identical_to_oracle(self):
        us = fixed_f32_uniforms(400, 66)
        for u1, u2 in zip(us[0::2], us[1::2]):
            v1 = F(2.0) * u1 - F(1.0)
            v2 = F(2.0) * u2 - F(1.0)
            outs, _ = run_graph("polar", [v1, v2])
            want = polar_graph_oracle(v1, v2)
            if want is None:
                assert outs == []
            else:
                assert bits_of(outs[0]) == bits_of(want[0])
                assert bits_of(outs[1]) == bits_of(want[1])

    def test_clt_bit_identical_to_oracle(self):
        us = fixed_f32_uniforms(120, 77)
        for i in range(0, 120, 12):
            chunk = us[i:i + 12]
            outs, _ = run_graph("clt", chunk)
            assert bits_of(outs[0]) == bits_of(clt_graph_oracle(chunk))

    def test_box_muller_counts(self):
        _, t = run_graph("box-muller", [F(0.3), F(0.7)])
        assert dict(t.counts) == {"log": 1, "sqrt": 1, "sin": 1, "cos": 1,
                                  "mul": 4}
        assert dict(t.counts) == expected_core_counts("box-muller")

    def test_polar_counts_accepted(self):
        _, t = run_graph("polar", [F(0.6), F(0.0001)])
        assert dict(t.counts) == {"log": 1, "sqrt": 1, "div": 1, "mul": 5,
                                  "add": 1}
        assert dict(t.counts) == expected_core_counts("polar")

    def test_polar_counts_rejected(self):
        outs, t = run_graph("polar", [F(0.9), F(0.9)])
        assert outs == []
        assert dict(t.counts) == {"mul": 2, "add": 1}
        assert dict(t.counts) == expected_core_counts("polar", accepted=False)

    def test_clt_counts(self):
        _, t = run_graph("clt", [F(0.5)] * 12)
        assert dict(t.counts) == {"add": 12, "mul": 2, "sqrt": 1, "div": 1}
        assert dict(t.counts) == expected_core_counts("clt", k=12)

    def test_arity_mismatch(self):
        with pytest.raises(transforms.LengthMismatchError):
            run_graph("box-muller", [F(0.5)])
        with pytest.raises(transforms.LengthMismatchError):
            run_graph("polar", [F(0.5)] * 3)
        with pytest.raises(transforms.LengthMismatchError):
            run_graph("clt", [F(0.5)] * 5, k=12)
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            run_graph("bogus", [F(0.5)] * 2)
        # arity inputs, no more or fewer
        for algo in transforms.ALGORITHMS:
            for k in (2, 5, 12):
                n = transforms.arity(algo, k)
                outs, t = run_graph(algo, [F(0.5)] * n, k=k)
                assert len(outs) == (1 if algo == "clt" else 2)
                assert dict(t.counts) == expected_core_counts(algo, k=k)
                for wrong in (n - 1, n + 1):
                    with pytest.raises(transforms.LengthMismatchError):
                        run_graph(algo, [F(0.5)] * wrong, k=k)

    def test_uniform_exactly_one_is_benign(self):
        # binary32 rounding can turn a large word into u = 1.0; the graph
        # must degrade to zero outputs with the LOG zero flag, not NaN
        outs, t = run_graph("box-muller", [F(1.0), F(0.7)])
        assert float(outs[0]) == 0.0 and float(outs[1]) == 0.0
        assert t.flag_counts["zero"] >= 1
        assert t.flag_counts["nan"] == 0

    def test_determinism(self):
        a = run_graph("box-muller", [F(0.123), F(0.456)])
        b = run_graph("box-muller", [F(0.123), F(0.456)])
        assert [bits_of(v) for v in a[0]] == [bits_of(v) for v in b[0]]
        assert a[1].to_dict() == b[1].to_dict()


class TestTrace:
    def test_record_schema_and_bit_exact_hex(self):
        outs, t = run_graph("box-muller", [F(0.25), F(0.75)])
        doc = t.to_dict()
        assert doc["counts"]["mul"] == 4
        for rec in doc["records"]:
            assert len(rec["output_bits_hex"]) == 8
            for h in rec["input_bits_hex"]:
                assert len(h) == 8
                int(h, 16)
        # json round trip preserves everything
        assert json.loads(json.dumps(doc)) == json.loads(json.dumps(doc))
        first = doc["records"][0]
        assert first["core"] == "log"
        assert from_bits(int(first["input_bits_hex"][0], 16)) == F(0.25)


def _record(core, inputs, output, *on):
    """One pinned `to_dict` record; `on` names the flags that fire."""
    return {"core": core, "input_bits_hex": inputs, "output_bits_hex": output,
            "flags": {name: name in on
                      for name in ("zero", "nan", "overflow", "underflow")}}


# (algo, inputs, output bits, records, flag_counts): the to_dict of fixed passes
TRACE_GATE = [
    ("box-muller", [0.3, 0.7], ["bfbce741", "bef58384"], [
        _record("log", ["3e99999a"], "bf9a1bc8"),
        _record("mul", ["c0000000", "bf9a1bc8"], "401a1bc8"),
        _record("sqrt", ["401a1bc8"], "3fc69fee"),
        _record("mul", ["40c90fdb", "3f333333"], "408cbe4c"),
        _record("sin", ["408cbe4c"], "bf737870"),
        _record("cos", ["408cbe4c"], "be9e377d"),
        _record("mul", ["3fc69fee", "bf737870"], "bfbce741"),
        _record("mul", ["3fc69fee", "be9e377d"], "bef58384"),
    ], {}),
    # u1 = 1.0: LOG fires `zero` and the pair degrades to (0, 0)
    ("box-muller", [1.0, 0.7], ["00000000", "00000000"], [
        _record("log", ["3f800000"], "00000000", "zero"),
        _record("mul", ["c0000000", "00000000"], "80000000", "zero"),
        _record("sqrt", ["80000000"], "80000000", "zero"),
        _record("mul", ["40c90fdb", "3f333333"], "408cbe4c"),
        _record("sin", ["408cbe4c"], "bf737870"),
        _record("cos", ["408cbe4c"], "be9e377d"),
        _record("mul", ["80000000", "bf737870"], "00000000", "zero"),
        _record("mul", ["80000000", "be9e377d"], "00000000", "zero"),
    ], {"zero": 5}),
    ("polar", [0.3, -0.4], ["3f7fc2c3", "bfaa81d7"], [
        _record("mul", ["3e99999a", "3e99999a"], "3db851ec"),
        _record("mul", ["becccccd", "becccccd"], "3e23d70b"),
        _record("add", ["3db851ec", "3e23d70b"], "3e800000"),
        _record("log", ["3e800000"], "bfb17218"),
        _record("mul", ["c0000000", "bfb17218"], "40317218"),
        _record("div", ["40317218", "3e800000"], "41317218"),
        _record("sqrt", ["41317218"], "4055224d"),
        _record("mul", ["3e99999a", "4055224d"], "3f7fc2c3"),
        _record("mul", ["becccccd", "4055224d"], "bfaa81d7"),
    ], {}),
    ("polar", [0.9, 0.9], [], [
        _record("mul", ["3f666666", "3f666666"], "3f4f5c28"),
        _record("mul", ["3f666666", "3f666666"], "3f4f5c28"),
        _record("add", ["3f4f5c28", "3f4f5c28"], "3fcf5c28"),
    ], {}),
    ("clt", [0.05 + 0.07 * i for i in range(12)], ["bf47ae08"], [
        _record("add", ["3d4ccccd", "3df5c28f"], "3e2e147b"),
        _record("add", ["3e2e147b", "3e428f5c"], "3eb851ec"),
        _record("add", ["3eb851ec", "3e851eb8"], "3f1eb852"),
        _record("add", ["3f1eb852", "3ea8f5c3"], "3f733334"),
        _record("add", ["3f733334", "3ecccccd"], "3faccccd"),
        _record("add", ["3faccccd", "3ef0a3d7"], "3fe8f5c3"),
        _record("add", ["3fe8f5c3", "3f0a3d71"], "40170a3e"),
        _record("add", ["40170a3e", "3f1c28f6"], "403e147c"),
        _record("add", ["403e147c", "3f2e147b"], "4069999b"),
        _record("add", ["4069999b", "3f400000"], "408cccce"),
        _record("add", ["408cccce", "3f51eb85"], "40a70a3f"),
        _record("mul", ["41400000", "3f000000"], "40c00000"),
        _record("add", ["40a70a3f", "c0c00000"], "bf47ae08"),
        _record("mul", ["41400000", "3daaaaab"], "3f800000"),
        _record("sqrt", ["3f800000"], "3f800000"),
        _record("div", ["bf47ae08", "3f800000"], "bf47ae08"),
    ], {}),
]


class TestTraceGate:
    """The serialized trace of fixed passes, record for record."""

    @pytest.mark.parametrize("algo,inputs,outputs,records,flag_counts",
                             TRACE_GATE)
    def test_to_dict_pinned(self, algo, inputs, outputs, records, flag_counts):
        outs, t = run_graph(algo, [F(v) for v in inputs])
        assert [f"{bits_of(v):08x}" for v in outs] == outputs
        counts = {}
        for rec in records:
            counts[rec["core"]] = counts.get(rec["core"], 0) + 1
        doc = t.to_dict()
        assert doc == {"records": records, "counts": counts,
                       "flag_counts": flag_counts}
        assert list(doc["counts"]) == list(counts)  # first-use order
        assert json.loads(json.dumps(doc)) == doc

    SPECIALS = [0.0, -0.0, 1.0, 2.0 ** -149, -(2.0 ** -130), math.nan]

    EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -149, -(2.0 ** -130),
             2.0 ** -126, 3.4e38, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_records_equal_the_public_cores(self, algo):
        """Every traced record, flags and to_dict entry equals the public
        core's on its operands, and a pass over edge operands warns of
        nothing, whatever the caller's errstate."""
        for a in self.EDGES:
            for b in self.EDGES:
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    _, t = run_graph(algo, [F(a), F(b)])
                    doc = t.to_dict()
                want = [getattr(fp, f"core_{core}")(*inputs)
                        for core, inputs, _ in t.records]
                got = t.results()
                assert [bits_of(r.result) for r in got] == \
                    [bits_of(r.result) for r in want], (a, b)
                assert [r.flags for r in got] == [r.flags for r in want]
                assert [rec["flags"] for rec in doc["records"]] == \
                    [{n: bool(on) for n, on in r.flags.items()} for r in want]

    @settings(max_examples=300, deadline=None)
    @given(data=st_.data(), algo=st_.sampled_from(transforms.ALGORITHMS))
    def test_totals_match_records(self, data, algo):
        value = st_.one_of(st_.sampled_from(self.SPECIALS),
                           st_.integers(0, 2 ** 32 - 1).map(from_bits))
        k = data.draw(st_.integers(2, 16)) if algo == "clt" else 2
        xs = [F(v) for v in data.draw(st_.lists(value, min_size=k, max_size=k))]
        outs, t = run_graph(algo, xs)
        doc = t.to_dict()
        flags = {}
        for rec in doc["records"]:
            for name, on in rec["flags"].items():
                flags[name] = flags.get(name, 0) + on
        assert doc["flag_counts"] == {n: c for n, c in flags.items() if c}
        assert dict(t.counts) == expected_core_counts(algo, k=k,
                                                      accepted=bool(outs))
        assert len(t.records) == sum(t.counts.values())


class TestPipelineStream:
    def test_box_muller_matches_scalar_graphs(self):
        res = transforms.stream("box-muller", make_sources(31, 2), 501,
                                mode="pipeline")
        s1, s2 = make_sources(31, 2)
        want = []
        for w1, w2 in zip(s1.words(251), s2.words(251)):
            outs, _ = run_graph("box-muller", [uniform_to_f32(w1, 32),
                                               uniform_to_f32(w2, 32)])
            want.extend(outs)
        assert np.array_equal(res.values, np.array(want[:501], dtype=np.float32))
        assert res.uniforms_consumed == 502

    def test_polar_matches_scalar_graphs(self):
        res = transforms.stream("polar", make_sources(37, 2), 400,
                                mode="pipeline")
        s1, s2 = make_sources(37, 2)
        want = []
        while len(want) < 400:
            u1 = uniform_to_f32(s1.next_word(), 32)
            u2 = uniform_to_f32(s2.next_word(), 32)
            v1 = F(2.0) * u1 - F(1.0)
            v2 = F(2.0) * u2 - F(1.0)
            outs, _ = run_graph("polar", [v1, v2])
            want.extend(outs)
        assert np.array_equal(res.values, np.array(want[:400], dtype=np.float32))

    def test_clt_matches_scalar_graphs(self):
        res = transforms.stream("clt", make_sources(41, 12), 100,
                                mode="pipeline")
        sources = make_sources(41, 12)
        want = []
        for _ in range(100):
            us = [uniform_to_f32(s.next_word(), 32) for s in sources]
            outs, _ = run_graph("clt", us)
            want.append(outs[0])
        assert np.array_equal(res.values, np.array(want, dtype=np.float32))

    @pytest.mark.parametrize("poly", ["x^33+x^13+1", "x^64+x^4+x^3+x+1"])
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_matches_scalar_graphs_above_order_32(self, algo, poly):
        taps = urng.parse_polynomial(poly)
        order = taps.bit_length() - 1

        def sources():
            seeds = urng.derive_seeds(53, 12 if algo == "clt" else 2, order)
            return [urng.new_lfsr(urng.LfsrConfig(order=order, taps=taps,
                                                  seed=s)) for s in seeds]

        res = transforms.stream(algo, sources(), 301, mode="pipeline")
        scalar = sources()
        want = []
        while len(want) < 301:
            us = [uniform_to_f32(s.next_word(), order) for s in scalar]
            if algo == "polar":
                us = [F(2.0) * u - F(1.0) for u in us]
            outs, _ = run_graph(algo, us)
            want.extend(outs)
        assert np.array_equal(res.values, np.array(want[:301], dtype=np.float32))

    def test_core_count_accounting(self):
        res = transforms.stream("polar", make_sources(43, 2), 1000,
                                mode="pipeline")
        acc, rej = res.pairs_accepted, res.pairs_proposed - res.pairs_accepted
        assert res.core_counts["log"] == acc
        assert res.core_counts["mul"] == 5 * acc + 2 * rej
        assert res.core_counts["add"] == acc + rej
        bm = transforms.stream("box-muller", make_sources(43, 2), 1000,
                               mode="pipeline")
        assert bm.core_counts == {"log": 500, "sqrt": 500, "sin": 500,
                                  "cos": 500, "mul": 2000}


class TestConvergenceToReference:
    """Pipeline vs double-precision reference on identical binary32 inputs.

    The tolerance is 64 ulps measured at the binary32 spacing of the pair
    radius (floored at 1.0), because per-component relative ulps are
    unbounded near the trig zeros and near the polar log cancellation.
    Excluded regions, documented with the module: u1 outside
    [2^-20, 1 - 2^-20] for box-muller (log is ill-conditioned against the
    rounded input at both ends), polar squared radius outside
    [2^-20, 1 - 2^-8].
    """

    def test_box_muller(self):
        us = fixed_f32_uniforms(8000, 313)
        lo, hi = 2.0 ** -20, 1.0 - 2.0 ** -20
        checked = 0
        for u1, u2 in zip(us[0::2], us[1::2]):
            if not lo <= float(u1) <= hi:
                continue
            outs, _ = run_graph("box-muller", [u1, u2])
            ref = transforms.box_muller(float(u1), float(u2))
            radius = math.sqrt(-2.0 * math.log(float(u1)))
            tol = 64.0 * float(np.spacing(np.float32(max(radius, 1.0))))
            assert abs(float(outs[0]) - ref.alpha) <= tol
            assert abs(float(outs[1]) - ref.beta) <= tol
            checked += 1
        assert checked > 3000

    def test_polar(self):
        us = fixed_f32_uniforms(8000, 317)
        checked = 0
        for u1, u2 in zip(us[0::2], us[1::2]):
            v1 = F(2.0) * u1 - F(1.0)
            v2 = F(2.0) * u2 - F(1.0)
            s = float(v1) ** 2 + float(v2) ** 2
            if not 2.0 ** -20 <= s <= 1.0 - 2.0 ** -8:
                continue
            outs, _ = run_graph("polar", [v1, v2])
            if not outs:
                continue
            factor = math.sqrt(-2.0 * math.log(s) / s)
            radius = math.sqrt(-2.0 * math.log(s))
            tol = 64.0 * float(np.spacing(np.float32(max(radius, 1.0))))
            assert abs(float(outs[0]) - float(v1) * factor) <= tol
            assert abs(float(outs[1]) - float(v2) * factor) <= tol
            checked += 1
        assert checked > 2000

    def test_clt(self):
        us = fixed_f32_uniforms(1200, 331)
        for i in range(0, 1200, 12):
            chunk = us[i:i + 12]
            outs, _ = run_graph("clt", chunk)
            ref = transforms.central_limit([float(u) for u in chunk])
            tol = 64.0 * float(np.spacing(np.float32(max(abs(ref), 1.0))))
            assert abs(float(outs[0]) - ref) <= tol


class TestConversion:
    def test_uniform_to_f32_is_single_rounding(self):
        # word / 2^32 is exact in float64, so the float32 cast rounds once
        for word in (1, 2 ** 31, 2 ** 32 - 1, 0x12345678):
            assert uniform_to_f32(word, 32) == np.float32(word / 2 ** 32)

    def test_large_word_can_round_to_one(self):
        assert uniform_to_f32(2 ** 32 - 1, 32) == np.float32(1.0)
        assert uniform_to_f32(2 ** 32 - 2 ** 9, 32) < np.float32(1.0)


CORE_FNS = {"log": core_log, "sin": core_sin, "cos": core_cos,
            "sqrt": core_sqrt, "div": core_div, "mul": core_mul,
            "add": core_add}


class TestDeferredFlags:
    """A trace forms its flags when read, by the rule the public cores apply."""

    value = st_.one_of(st_.sampled_from(TestArrayCores.SPECIALS).map(F),
                       st_.integers(0, 2 ** 32 - 1).map(from_bits))

    @staticmethod
    def assert_same(traced, public):
        assert bits_of(traced.result) == bits_of(public.result)
        assert {n: bool(on) for n, on in traced.flags.items()} == \
            {n: bool(on) for n, on in public.flags.items()}

    @settings(max_examples=300, deadline=None)
    @given(data=st_.data(), core=st_.sampled_from(sorted(CORE_FNS)))
    def test_recorded_invocation_flags_equal_core(self, data, core):
        arity = 2 if core in ("div", "mul", "add") else 1
        xs = data.draw(st_.lists(self.value, min_size=arity, max_size=arity))
        t = fp.PipelineTrace()
        with np.errstate(all="ignore"):
            getattr(t, core)(*xs)
        assert [(c, len(ins)) for c, ins, _ in t.records] == [(core, arity)]
        assert dict(t.counts) == {core: 1}
        self.assert_same(t.results()[0], CORE_FNS[core](*xs))

    @settings(max_examples=200, deadline=None)
    @given(data=st_.data(), algo=st_.sampled_from(transforms.ALGORITHMS))
    def test_graph_records_flag_like_cores(self, data, algo):
        k = 12 if algo == "clt" else 2
        xs = data.draw(st_.lists(self.value, min_size=k, max_size=k))
        _, t = run_graph(algo, xs)
        for (core, inputs, _), traced in zip(t.records, t.results()):
            self.assert_same(traced, CORE_FNS[core](*inputs))

    @settings(max_examples=100, deadline=None)
    @given(data=st_.data(), algo=st_.sampled_from(transforms.ALGORITHMS))
    def test_to_dict_unchanged_by_later_passes(self, data, algo):
        k = 12 if algo == "clt" else 2
        passes = data.draw(st_.lists(
            st_.lists(self.value, min_size=k, max_size=k), min_size=2,
            max_size=4))
        _, first = run_graph(algo, passes[0])
        doc = first.to_dict()
        for xs in passes[1:]:
            run_graph(algo, xs)
        assert first.to_dict() == doc
        assert dict(first.flag_counts) == doc["flag_counts"]


class TestOperandBoxing:
    """Operands of any number type run as np.float32(x) would; 0.1 rounds."""

    BOXES = [float, int, np.float64, F]

    @staticmethod
    def rows(box, n):
        values = [1, 0] if box is int else [0.1, 0.7, -0.3]
        return [[box(values[(i + j) % len(values)]) for j in range(n)]
                for i in range(len(values))]

    @pytest.mark.parametrize("box", BOXES, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("algo", transforms.ALGORITHMS)
    def test_graph_inputs(self, algo, box):
        for row in self.rows(box, transforms.arity(algo, 12)):
            outs, t = run_graph(algo, row)
            want_outs, want = run_graph(algo, [F(x) for x in row])
            assert [bits_of(v) for v in outs] == [bits_of(v) for v in want_outs]
            assert t.to_dict() == want.to_dict()
            assert {type(x) for _, ins, r in t.records for x in (*ins, r)} == {F}
            # a binary32 operand is used as it is, not boxed again
            assert (t.records[0][1][0] is row[0]) == (box is F)

    @pytest.mark.parametrize("box", BOXES, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("core", sorted(CORE_FNS))
    def test_core_operands(self, core, box):
        arity = 2 if core in ("div", "mul", "add") else 1
        for row in self.rows(box, arity):
            got, want = CORE_FNS[core](*row), CORE_FNS[core](*map(F, row))
            assert type(got.result) is F
            TestDeferredFlags.assert_same(got, want)


class TestGcBudget:
    """A retained traced pass holds four GC-tracked objects, whatever its
    core count: the (outputs, trace) tuple, the output list, the trace and
    its log."""

    PASSES = 300

    @pytest.mark.parametrize("algo,k,x", [
        ("box-muller", 2, 0.3), ("polar", 2, 0.3), ("polar", 2, 0.9),
        ("clt", 2, 0.3), ("clt", 12, 0.3)],
        ids=["box-muller", "polar", "polar-rejected", "clt-2", "clt-12"])
    def test_retained_passes(self, algo, k, x):
        row = [F(x)] * transforms.arity(algo, k)
        run_graph(algo, row, k=k)  # warm: caches fill on the first pass
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            kept = [run_graph(algo, row, k=k) for _ in range(self.PASSES)]
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(kept) == self.PASSES
        # + 8: the `kept` list itself, and slack for one-off objects
        assert grown <= 4 * self.PASSES + 8

