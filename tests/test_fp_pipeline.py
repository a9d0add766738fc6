import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import cos as mcos, exp as mexp, log as mlog, pi as mpi, sin as msin

from grng import fp_pipeline as fp
from grng import transforms, urng
from grng.fp_pipeline import (
    ArityMismatchError,
    PipelineTrace,
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


def make_sources(master, count, order=32):
    seeds = urng.derive_seeds(master, count, order)
    return [
        urng.new_lfsr(urng.LfsrConfig(order=order, taps=urng.DEFAULT_POLYNOMIAL,
                                      seed=s))
        for s in seeds
    ]


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
        with pytest.raises(ArityMismatchError):
            run_graph("box-muller", [F(0.5)])
        with pytest.raises(ArityMismatchError):
            run_graph("polar", [F(0.5)] * 3)
        with pytest.raises(ArityMismatchError):
            run_graph("clt", [F(0.5)] * 5, k=12)

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

    def test_latency_is_metadata_only(self):
        fast, tf = run_graph("box-muller", [F(0.25), F(0.75)])
        slow, ts = run_graph("box-muller", [F(0.25), F(0.75)],
                             latencies={"log": 21, "sqrt": 28})
        assert [bits_of(v) for v in fast] == [bits_of(v) for v in slow]
        assert ts.total_cycles == tf.total_cycles - 2 + 21 + 28

    def test_clear_event_sentinel(self):
        t = PipelineTrace()
        t.clear_event("log")
        assert t.records == [{"core": "log", "event": "aclr"}]
        assert t.counts == {}


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
