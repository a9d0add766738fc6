import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from grng import urng
from grng.fp_pipeline import uniform_to_f32
from grng.urng import (
    BadPolynomialError,
    LfsrConfig,
    LfsrState,
    NonMaximalTapsWarning,
    ZeroSeedError,
    derive_seeds,
    lfsr_period,
    new_lfsr,
    parse_polynomial,
    polynomial_str,
    splitmix64,
    verify_primitive,
)

PAPER_TAPS = parse_polynomial("x^32+x^8+x^5+x^2+1")
PRIM16 = parse_polynomial("x^16+x^15+x^13+x^4+1")

# one primitive polynomial per order: partial, exact and full-width bytes
PRIMITIVE_BY_ORDER = {
    2: "x^2+x+1", 7: "x^7+x+1", 8: "x^8+x^4+x^3+x^2+1", 9: "x^9+x^4+1",
    16: "x^16+x^15+x^13+x^4+1", 31: "x^31+x^3+1", 32: "x^32+x^8+x^5+x^2+1",
    33: "x^33+x^13+1", 63: "x^63+x+1", 64: "x^64+x^4+x^3+x+1",
}
LANES = urng._LANES
BLOCK = urng._BLOCK


class BitOracle:
    """Independent bit-list reference: stage j holds bit (n-1-j) of the state.

    One clock emits the top stage and XORs it back into every tapped stage,
    the multi-return feedback network spelled out bit by bit.
    """

    def __init__(self, order, taps, seed):
        self.n = order
        self.tap_positions = [order - 1 - i for i in range(order) if taps >> i & 1]
        self.bits = [(seed >> (order - 1 - j)) & 1 for j in range(order)]

    def step(self):
        out = self.bits[0]
        self.bits = self.bits[1:] + [0]
        if out:
            for j in self.tap_positions:
                self.bits[j] ^= 1
        return out

    def word(self):
        w = 0
        for _ in range(self.n):
            w = w << 1 | self.step()
        return w

    def state_int(self):
        v = 0
        for b in self.bits:
            v = v << 1 | b
        return v


def primitive_config(order=4, seed=1):
    polys = {4: "x^4+x+1", 8: "x^8+x^4+x^3+x^2+1", 16: "x^16+x^15+x^13+x^4+1",
             32: "x^32+x^8+x^5+x^2+1"}
    return LfsrConfig(order=order, taps=parse_polynomial(polys[order]), seed=seed)


def brute_force_period(taps, order, seed=1, limit=None):
    mask = (1 << order) - 1
    f_low = taps & mask
    s = seed
    limit = limit or (1 << order) + 1
    for t in range(1, limit + 1):
        msb = s >> (order - 1)
        s = ((s << 1) & mask) ^ (f_low if msb else 0)
        if s == seed:
            return t
    return None


def clmul(a, b):
    """Product of polynomials a * b over GF(2), unreduced."""
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    return r


def gf2_mulmod(a, b, f):
    """a * b modulo f over GF(2), reduced from the top bit down."""
    r, n = clmul(a, b), f.bit_length() - 1
    for i in range(r.bit_length() - 1, n - 1, -1):
        if r >> i & 1:
            r ^= f << (i - n)
    return r


def gf2_powmod(a, e, f):
    """a ** e modulo f over GF(2), left-to-right square-and-multiply."""
    r = 1
    for bit in bin(e)[2:]:
        r = gf2_mulmod(r, r, f)
        if bit == "1":
            r = gf2_mulmod(r, a, f)
    return r


class TestConfig:
    def test_paper_polynomial_accepted(self):
        cfg = LfsrConfig(order=32, taps=PAPER_TAPS, seed=1)
        assert cfg.taps == 0x100000125

    def test_zero_seed_rejected(self):
        with pytest.raises(ZeroSeedError):
            LfsrConfig(order=32, taps=PAPER_TAPS, seed=0)

    def test_seed_must_fit_order(self):
        with pytest.raises(ZeroSeedError):
            LfsrConfig(order=4, taps=parse_polynomial("x^4+x+1"), seed=1 << 4)

    def test_degree_must_match_order(self):
        with pytest.raises(BadPolynomialError):
            LfsrConfig(order=8, taps=parse_polynomial("x^4+x+1"), seed=1)

    def test_negative_tap_mask_rejected(self):
        with pytest.raises(BadPolynomialError):
            LfsrConfig(order=2, taps=-7, seed=1)

    def test_constant_term_required(self):
        with pytest.raises(BadPolynomialError):
            LfsrConfig(order=4, taps=0b11010, seed=1)  # x^4+x^3+x

    def test_order_bounds(self):
        with pytest.raises(BadPolynomialError):
            LfsrConfig(order=1, taps=0b11, seed=1)
        with pytest.raises(BadPolynomialError):
            LfsrConfig(order=65, taps=(1 << 65) | 1, seed=1)

    def test_new_lfsr_postconditions(self):
        cfg = primitive_config(4, seed=0b0001)
        st = new_lfsr(cfg)
        assert st.register == cfg.seed
        assert st.steps_taken == 0

    def test_dict_round_trip_both_tap_forms(self):
        cfg = primitive_config(32, seed=99)
        d = cfg.to_dict()
        assert d["polynomial"] == "x^32+x^8+x^5+x^2+1"
        assert LfsrConfig.from_dict(d) == cfg
        assert LfsrConfig.from_dict(
            {"polynomial": "x^32+x^8+x^5+x^2+1", "seed": 99}) == cfg
        assert LfsrConfig.from_dict({"taps": "0x100000125", "seed": 99}) == cfg
        with pytest.raises(BadPolynomialError):
            LfsrConfig.from_dict({"seed": 1})


class TestPolynomialStrings:
    def test_parse_examples(self):
        assert parse_polynomial("x^4+x+1") == 0b10011
        assert parse_polynomial("X^2 + X + 1") == 0b111
        assert parse_polynomial("0x13") == 0b10011
        assert parse_polynomial(0b10011) == 0b10011

    def test_round_trip(self):
        for poly in ("x^32+x^8+x^5+x^2+1", "x^4+x+1", "x^2+x+1"):
            assert polynomial_str(parse_polynomial(poly)) == poly

    @given(data=st_.data())
    def test_round_trip_of_any_tap_mask(self, data):
        order = data.draw(st_.integers(2, 64), label="order")
        middle = data.draw(st_.integers(0, (1 << (order - 1)) - 1),
                           label="middle taps")
        taps = (1 << order) | (middle << 1) | 1
        assert parse_polynomial(polynomial_str(taps)) == taps

    def test_reject_garbage(self):
        with pytest.raises(BadPolynomialError):
            parse_polynomial("x^4+y+1")
        with pytest.raises(BadPolynomialError):
            parse_polynomial("")
        with pytest.raises(BadPolynomialError):
            polynomial_str(0)

    @pytest.mark.parametrize("poly", ["zz", "0xzz", "x^a+1", "x^+1", "x^-2+1"])
    def test_reject_malformed_numbers(self, poly):
        with pytest.raises(BadPolynomialError):
            parse_polynomial(poly)


class TestStepping:
    def test_period_15_exhaustive(self):
        # x^4+x+1 is primitive: all 15 nonzero states visited, then repeat
        st = new_lfsr(primitive_config(4, seed=0b0001))
        seen = [st.register]
        for _ in range(15):
            st.step()
            seen.append(st.register)
        assert seen[15] == seen[0]
        assert len(set(seen[:15])) == 15
        assert 0 not in seen

    def test_full_period_returns_to_seed(self):
        for order in (4, 8):
            st = new_lfsr(primitive_config(order, seed=3))
            for _ in range(2 ** order - 1):
                st.step()
            assert st.register == 3
            assert st.steps_taken == 2 ** order - 1

    def test_register_never_zero(self):
        st = new_lfsr(primitive_config(8, seed=0xAB))
        for _ in range(1000):
            st.step()
            assert st.register != 0

    def test_no_all_zero_window_exhaustive(self):
        # every tap mask and nonzero seed of order <= 8, primitive or not:
        # one full orbit plus n - 1 clocks covers every n-clock window of
        # the periodic output stream, and none of them is all zeros.  All
        # registers of one order clock together; the seed-1 row is checked
        # against LfsrState.step bit for bit.
        for order in range(2, 9):
            mask = (1 << order) - 1
            taps = [(1 << order) | (m << 1) | 1 for m in range(1 << (order - 1))]
            f_low, state = np.meshgrid(np.array(taps) & mask,
                                       np.arange(1, 1 << order))
            registers = [LfsrState(LfsrConfig(order=order, taps=t, seed=1))
                         for t in taps]
            zeros = np.zeros_like(state)
            for _ in range(mask + order - 1):
                msb = state >> (order - 1)
                state = ((state << 1) & mask) ^ (msb * f_low)
                assert [r.step() for r in registers] == list(msb[0])
                zeros = np.where(msb == 1, 0, zeros + 1)
                assert zeros.max() < order

    def test_step_matches_bit_oracle_order_32(self):
        cfg = primitive_config(32, seed=1)
        st = new_lfsr(cfg)
        oracle = BitOracle(32, cfg.taps, cfg.seed)
        for _ in range(200):
            assert st.step() == oracle.step()
            assert st.register == oracle.state_int()

    def test_first_word_is_packed_bits_msb_first(self):
        cfg = primitive_config(4, seed=0b0001)
        oracle = BitOracle(4, cfg.taps, cfg.seed)
        expected = 0
        for _ in range(4):
            expected = expected << 1 | oracle.step()
        st = new_lfsr(cfg)
        assert st.next_word() == expected

    def test_words_match_bit_oracle(self):
        cfg = primitive_config(32, seed=0xDEADBEEF)
        st = new_lfsr(cfg)
        oracle = BitOracle(32, cfg.taps, cfg.seed)
        for _ in range(50):
            assert st.next_word() == oracle.word()

    def test_determinism(self):
        a = new_lfsr(primitive_config(16, seed=77))
        b = new_lfsr(primitive_config(16, seed=77))
        assert [a.next_word() for _ in range(100)] == \
               [b.next_word() for _ in range(100)]

    def test_word_windows_cover_all_nonzero_patterns(self):
        # gcd(n, 2^n - 1) = 1 for these orders, so one word-period of
        # non-overlapping windows hits every nonzero n-bit pattern once
        for order in (4, 8):
            st = new_lfsr(primitive_config(order, seed=1))
            period = 2 ** order - 1
            words = [st.next_word() for _ in range(period)]
            assert sorted(words) == list(range(1, 2 ** order))


class TestBulk:
    def test_bulk_words_equal_scalar(self):
        cfg = primitive_config(32, seed=0xC0FFEE)
        a, b = new_lfsr(cfg), new_lfsr(cfg)
        bulk = a.words(5000)
        scalar = np.array([b.next_word() for _ in range(5000)], dtype=np.uint64)
        assert np.array_equal(bulk, scalar)
        assert a.register == b.register
        assert a.steps_taken == b.steps_taken
        for refused in (a.words, a.jump):
            with pytest.raises(ValueError, match="count must be >= 0"):
                refused(-1)
            assert (a.register, a.steps_taken) == (b.register, b.steps_taken)

    def test_bulk_resumes_exactly(self):
        cfg = primitive_config(32, seed=5)
        a, b = new_lfsr(cfg), new_lfsr(cfg)
        a.words(1000)
        b.words(600)
        b.words(400)
        assert a.register == b.register
        assert a.next_word() == b.next_word()

    @pytest.mark.parametrize("count", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                       2 * BLOCK + 1, LANES - 1, LANES,
                                       LANES + 1, 3 * LANES + 5])
    @pytest.mark.parametrize("order", sorted(PRIMITIVE_BY_ORDER))
    def test_words_equal_next_word_calls(self, order, count):
        cfg = LfsrConfig(order=order,
                         taps=parse_polynomial(PRIMITIVE_BY_ORDER[order]),
                         seed=0x9E3779B97F4A7C15 & ((1 << order) - 1))
        assert verify_primitive(cfg)
        a, b = LfsrState(cfg), LfsrState(cfg)
        bulk = a.words(count)
        scalar = [b.next_word() for _ in range(count)]
        assert bulk.dtype == (np.uint32 if order <= 32 else np.uint64)
        assert bulk.tolist() == scalar
        assert a.register == b.register
        assert a.steps_taken == b.steps_taken

    @pytest.mark.parametrize("count", [LANES * BLOCK - 1, LANES * BLOCK,
                                       LANES * BLOCK + 1,
                                       3 * LANES * BLOCK + 5])
    @pytest.mark.parametrize("poly", [
        "x^32+x^8+x^5+x^2+1", "x^64+x^4+x^3+x+1",
        "x^33+x^13+x+1",  # reducible: x + 1 divides it
    ])
    def test_words_at_block_and_lane_boundaries(self, poly, count):
        """Word k of words(count) is next_word() from seed * x^(k n) mod f.

        Lanes hold whole blocks, so checking words b - 1 and b at every
        multiple b of BLOCK covers every block and lane boundary.  The
        registers at b - 1 are chained by one multiply by x^(BLOCK n).
        """
        taps = parse_polynomial(poly)
        n = taps.bit_length() - 1
        seed = 0x9E3779B97F4A7C15 & ((1 << n) - 1)
        st = LfsrState(LfsrConfig(order=n, taps=taps, seed=seed))
        bulk = st.words(count)
        assert bulk.shape == (count,)

        def oracle(reg):
            return LfsrState(LfsrConfig(order=n, taps=taps, seed=reg))

        def reg_at(k):
            return urng._gf2_pow_x(k * n, taps, n, seed)

        assert bulk[0] == oracle(seed).next_word()
        leap = urng._gf2_pow_x(BLOCK * n, taps, n)
        reg = reg_at(BLOCK - 1)
        for b in range(BLOCK, count, BLOCK):
            ref = oracle(reg)
            assert [bulk[b - 1], bulk[b]] == [ref.next_word(), ref.next_word()]
            reg = urng._gf2_mulmod(reg, leap, taps, n)
        assert reg == reg_at(b + BLOCK - 1)
        last = oracle(reg_at(count - 1))
        assert bulk[-1] == last.next_word()
        assert st.register == last.register
        assert st.steps_taken == count * n

    @settings(deadline=None)
    @given(data=st_.data())
    def test_split_calls_equal_one_call(self, data):
        order = data.draw(st_.integers(2, 64), label="order")
        middle = data.draw(st_.integers(0, (1 << (order - 1)) - 1),
                           label="middle taps")
        seed = data.draw(st_.integers(1, (1 << order) - 1), label="seed")
        first = data.draw(st_.integers(0, 2 * LANES * BLOCK + 3), label="a")
        second = data.draw(st_.integers(0, 2 * LANES * BLOCK + 3), label="b")
        cfg = LfsrConfig(order=order, taps=(1 << order) | (middle << 1) | 1,
                         seed=seed)
        split, whole, jumped = LfsrState(cfg), LfsrState(cfg), LfsrState(cfg)
        parts = np.concatenate([split.words(first), split.words(second)])
        assert np.array_equal(parts, whole.words(first + second))
        assert split.register == whole.register
        assert split.steps_taken == whole.steps_taken
        # a jump of `first` words lands where drawing them does
        assert jumped.jump(first) is jumped
        assert np.array_equal(jumped.words(second), parts[first:])
        assert (jumped.register, jumped.steps_taken) == \
            (whole.register, whole.steps_taken)

    @pytest.mark.parametrize("order", range(2, 65))
    def test_words_end_where_jump_does(self, order):
        """words(c) leaves the register and step count of jump(c), with c
        on either side of a block and of a full set of one-block lanes, and
        ending one and 31 words past a whole block of a longer last lane."""
        rng = random.Random(order)
        taps = (1 << order) | rng.getrandbits(order - 1) << 1 | 1
        seed = rng.randrange(1, 1 << order)
        for count in (1, 31, 32, 33, LANES * BLOCK - 1, LANES * BLOCK + 1,
                      LANES * BLOCK + 33, 3 * LANES * BLOCK - 1):
            cfg = LfsrConfig(order=order, taps=taps, seed=seed)
            drawn, jumped = LfsrState(cfg), LfsrState(cfg).jump(count)
            drawn.words(count)
            assert (drawn.register, drawn.steps_taken) == \
                (jumped.register, jumped.steps_taken), count

    @pytest.mark.parametrize("poly", [
        PRIMITIVE_BY_ORDER[8], PRIMITIVE_BY_ORDER[32], PRIMITIVE_BY_ORDER[64],
        "x^64+x^5+x^4+x^3+1",  # reducible
    ])
    def test_cached_lane_jumps_equal_jump(self, poly):
        """Entry j of the cached chain moves a register BLOCK * 2^j words."""
        taps = parse_polynomial(poly)
        n = taps.bit_length() - 1
        _, jumps = urng._block_tables(n, taps)
        # every count below 2^63 finds the starts of its lanes in the chain
        m = (-(-(2 ** 63 - 1) // (LANES * BLOCK)) - 1).bit_length()
        assert m + (LANES - 1).bit_length() <= len(jumps)
        seeds = [1, (1 << n) - 1, 0x9E3779B97F4A7C15 & ((1 << n) - 1)]
        regs = np.array(seeds, dtype=urng._word_dtype(n))
        for j, table in enumerate(jumps):
            want = [LfsrState(LfsrConfig(n, taps, s)).jump(BLOCK << j).register
                    for s in seeds]
            assert urng._lookup(table, regs).tolist() == want

    @pytest.mark.parametrize("poly", ["x^32+x^8+x^5+x^2+1",
                                      "x^64+x^5+x^4+x^3+1"])
    def test_long_draw_equals_split_at_a_lane_boundary(self, poly):
        """A draw with lanes of BLOCK * 2^6 words, against two shorter ones."""
        taps = parse_polynomial(poly)
        n = taps.bit_length() - 1
        cfg = LfsrConfig(order=n, taps=taps,
                         seed=0x9E3779B97F4A7C15 & ((1 << n) - 1))
        count = 40 * LANES * BLOCK + 7
        first = 1000 * (BLOCK << 6)  # where lane 1000 of the whole draw starts
        whole, split = LfsrState(cfg), LfsrState(cfg)
        words = whole.words(count)
        assert np.array_equal(split.words(first), words[:first])
        assert np.array_equal(split.words(count - first), words[first:])
        jumped = LfsrState(cfg).jump(count)
        assert (whole.register, whole.steps_taken) == \
            (split.register, split.steps_taken) == \
            (jumped.register, jumped.steps_taken)

    def test_uniforms_strictly_inside_unit_interval(self):
        st = new_lfsr(primitive_config(4, seed=1))
        vals = st.uniforms(15)
        assert ((vals > 0) & (vals < 1)).all()
        # full period of a primitive order-4 register: all values are k/16
        assert sorted(vals) == [k / 16 for k in range(1, 16)]

    def test_uniform_mean_near_half(self):
        st = new_lfsr(primitive_config(32, seed=123))
        n = 1_000_000
        vals = st.uniforms(n)
        bound = 4.0 * math.sqrt(1.0 / 12.0) / math.sqrt(n)
        assert abs(vals.mean() - 0.5) < bound


class TestBinary32Uniforms:
    """uniforms(count, np.float32) rounds each word once, as the oracle does."""

    @pytest.mark.parametrize("poly", ["x^4+x^3+1", "x^24+x^23+x^22+x^17+1"])
    def test_full_period_equals_oracle(self, poly):
        taps = parse_polynomial(poly)
        n = taps.bit_length() - 1
        cfg = LfsrConfig(order=n, taps=taps, seed=1)
        assert verify_primitive(cfg)
        period = 2 ** n - 1
        words = LfsrState(cfg).words(period)
        got = LfsrState(cfg).uniforms(period, np.float32)
        assert got.dtype == np.float32
        # the oracle's two roundings, elementwise over all 2^n - 1 words
        # (2^24 scalar calls take about 15 s), and the scalar oracle itself
        # on every word of order 4 and on a stride of those of order 24
        want = (words.astype(np.float64) * 2.0 ** -n).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        stride = max(1, period // 4096)
        for w, u in zip(words[::stride].tolist(), got[::stride]):
            assert u.view(np.uint32) == uniform_to_f32(w, n).view(np.uint32)

    @pytest.mark.parametrize("order, word", [
        (32, 2 ** 32 - 2 ** 7),  # rounds up to 1.0f
        (32, 2 ** 32 - 2 ** 7 - 1),
        (32, 2 ** 24 + 1),
        (32, 1),
        # float64 rounds to 2^63 + 2^39, which ties to 0x1p-1 in binary32;
        # a direct uint64 -> float32 cast gives 0x1.000002p-1
        (64, 2 ** 63 + 2 ** 39 + 1),
        (64, 2 ** 64 - 1),
    ])
    def test_crafted_words_equal_oracle(self, order, word):
        words = np.array([word], dtype=urng._word_dtype(order))
        got = urng._word_uniforms(words, order, np.float32)
        assert got.dtype == np.float32
        assert got[0].view(np.uint32) == uniform_to_f32(word, order).view(np.uint32)
        if word == 2 ** 32 - 2 ** 7:
            assert got[0] == np.float32(1.0)
        if word == 2 ** 63 + 2 ** 39 + 1:
            assert got[0] == np.float32(0.5)


class TestUniformSemantics:
    def test_midpoint_word_gives_half(self):
        st = new_lfsr(primitive_config(16, seed=1))
        for _ in range(2 ** 16 - 1):
            u = st.next_uniform()
            assert u.value == u.source_word / 2 ** 16
            if u.source_word == 2 ** 15:
                assert u.value == 0.5
                break
        else:
            pytest.fail("midpoint word never produced in a full period")

    def test_smallest_word_order_32(self):
        # seed 1 takes 31 zero emissions before the set bit reaches the top
        st = new_lfsr(primitive_config(32, seed=1))
        u = st.next_uniform()
        assert u.source_word == 1
        assert u.value == 2.0 ** -32

    def test_all_ones_word_above_order_53_stays_below_one(self):
        # 0xffffffffffffffff / 2^64 rounds to 1.0 in float64; both paths cap
        # it at the largest float64 below 1
        n = 64
        taps = parse_polynomial(PRIMITIVE_BY_ORDER[n])
        # the next word is GF(2)-linear in the register: reduce the images
        # of the basis registers, then solve for the all-ones word
        basis = {}  # top bit -> (image, register)
        for j in range(n):
            image, reg = LfsrState(LfsrConfig(n, taps, 1 << j)).next_word(), 1 << j
            while image:
                top = image.bit_length() - 1
                if top not in basis:
                    basis[top] = image, reg
                    break
                image, reg = image ^ basis[top][0], reg ^ basis[top][1]
        assert len(basis) == n
        ones = word = (1 << n) - 1
        seed = 0
        while word:
            image, reg = basis[word.bit_length() - 1]
            word, seed = word ^ image, seed ^ reg
        cfg = LfsrConfig(order=n, taps=taps, seed=seed)
        u = new_lfsr(cfg).next_uniform()
        assert u.source_word == ones
        assert u.value == np.nextafter(1.0, 0.0)
        assert new_lfsr(cfg).uniforms(1)[0] == u.value


class TestPrimitivity:
    def test_known_primitive(self):
        assert verify_primitive(primitive_config(4)) is True

    def test_known_reducible(self):
        cfg = LfsrConfig(order=4, taps=parse_polynomial("x^4+x^2+1"), seed=1)
        assert verify_primitive(cfg) is False
        assert brute_force_period(cfg.taps, 4) < 15

    def test_paper_polynomial_verdict(self):
        assert verify_primitive(primitive_config(32)) is True

    def test_agreement_with_brute_force_small_orders(self):
        for order in (2, 3, 4, 5, 6, 7, 8):
            full = 2 ** order - 1
            for middle in range(2 ** (order - 1)):
                taps = (1 << order) | (middle << 1) | 1
                cfg = LfsrConfig(order=order, taps=taps, seed=1)
                assert verify_primitive(cfg) == \
                    (brute_force_period(taps, order) == full), \
                    f"disagreement at {polynomial_str(taps)}"

    def test_lfsr_period_matches_brute_force(self):
        cfg = LfsrConfig(order=4, taps=parse_polynomial("x^4+x^2+1"), seed=1)
        assert lfsr_period(cfg) == brute_force_period(cfg.taps, 4) == 6
        assert lfsr_period(primitive_config(16)) == 2 ** 16 - 1
        # a repeated factor doubles the order of x
        square = clmul(PAPER_TAPS, PAPER_TAPS)
        assert lfsr_period(LfsrConfig(64, square, 1)) == 2 * (2 ** 32 - 1)
        assert lfsr_period(LfsrConfig(64, square, PAPER_TAPS)) == 2 ** 32 - 1

    def test_lfsr_period_exhaustive_small_orders(self):
        # a seed sharing a factor with the polynomial can have a shorter
        # orbit than x: x^8+x^7+x^6+x^4+1 has period 15, seed 0x13 period 5
        for order in range(2, 9):
            for middle in range(2 ** (order - 1)):
                taps = (1 << order) | (middle << 1) | 1
                for seed in range(1, 2 ** order):
                    cfg = LfsrConfig(order=order, taps=taps, seed=seed)
                    assert lfsr_period(cfg) == \
                        brute_force_period(taps, order, seed), \
                        f"{polynomial_str(taps)}, seed {seed:#x}"

    @pytest.mark.parametrize("poly, seeds", [
        # the reducible taps of the old "period not determined" warning
        ("x^32+x^8+x^5+x^2+x+1", (1, 2, 0xDEADBEEF, 2 ** 32 - 1)),
        ("x^48+x^9+x^7+x^4+x+1", (1, 3, 2 ** 47 + 5, 2 ** 48 - 1)),
        ("x^64+x^5+x^4+x^3+1", (1, 0x9E3779B97F4A7C15, 2 ** 64 - 1)),
        ("x^64+x^63+x+1", (1, 2, 0x8000000000000001, 2 ** 64 - 1)),
        # factors of multiplicity 2 and 3; a seed that is one copy of the
        # factor only sees the others
        (polynomial_str(clmul(PAPER_TAPS, PAPER_TAPS)), (1, 7, PAPER_TAPS)),
        (polynomial_str(clmul(clmul(PRIM16, PRIM16), PRIM16)),
         (1, 5, PRIM16, 2 ** 48 - 1)),
    ])
    def test_lfsr_period_certified_at_large_orders(self, poly, seeds):
        # t is the least period iff s * x^t == s and s * x^(t/p) != s for
        # every prime p of t; the arithmetic here shares no code with urng
        taps = parse_polynomial(poly)
        order = taps.bit_length() - 1
        primes = sorted({2}.union(*urng._MERSENNE_FACTORS.values()))
        for seed in seeds:
            t = lfsr_period(LfsrConfig(order=order, taps=taps, seed=seed))
            assert gf2_mulmod(seed, gf2_powmod(2, t, taps), taps) == seed
            rest = t
            for p in (p for p in primes if t % p == 0):
                while rest % p == 0:
                    rest //= p
                assert gf2_mulmod(seed, gf2_powmod(2, t // p, taps), taps) != seed, \
                    f"{poly}, seed {seed:#x}: {t} is not the least period"
            assert rest == 1, f"{t} has a prime outside the factor table"

    def test_lfsr_period_matches_brute_force_orders_9_to_16(self):
        rng = np.random.default_rng(2016)
        for order in range(9, 17):
            for middle in rng.integers(0, 2 ** (order - 1), size=4):
                taps = (1 << order) | (int(middle) << 1) | 1
                for seed in (1, *map(int, rng.integers(2, 2 ** order, size=2))):
                    cfg = LfsrConfig(order=order, taps=taps, seed=seed)
                    assert lfsr_period(cfg) == \
                        brute_force_period(taps, order, seed), \
                        f"{polynomial_str(taps)}, seed {seed:#x}"

    def test_seed_coprime_to_taps_needs_no_exponentiation(self, monkeypatch):
        # s * x^t == s iff x^t == 1 mod f / gcd(f, s): a seed coprime to f
        # has the order of x mod f, found once for the first seed
        taps = parse_polynomial("x^64+x^5+x^4+x^3+1")
        period = lfsr_period(LfsrConfig(order=64, taps=taps, seed=1))
        calls = []
        pow_x = urng._gf2_pow_x
        monkeypatch.setattr(urng, "_gf2_pow_x",
                            lambda *a: calls.append(a) or pow_x(*a))
        # x^j, x + 1 and the all-ones (x + 1)^63: f(0) = f(1) = 1
        for seed in (2, 3, 1 << 63, 2 ** 64 - 1):
            cfg = LfsrConfig(order=64, taps=taps, seed=seed)
            assert lfsr_period(cfg) == period
        assert calls == []

    def test_factor_shape_matches_trial_division(self):
        """Factor degrees and largest multiplicity of every degree 2-10
        polynomial with a constant term, against trial division."""
        def shape(f):
            counts = {}
            d = 2  # the polynomial x; f has a constant term, so not a factor
            while f.bit_length() > 1:
                d += 1
                while True:  # the least divisor left is irreducible
                    q, r = urng._gf2_divmod(f, d)
                    if r:
                        break
                    f = q
                    counts[d] = counts.get(d, 0) + 1
            return (sorted({p.bit_length() - 1 for p in counts}),
                    max(counts.values()))

        for order in range(2, 11):
            for middle in range(2 ** (order - 1)):
                taps = (1 << order) | (middle << 1) | 1
                degrees, most = urng._factor_shape(order, taps)
                assert (sorted(degrees), most) == shape(taps), \
                    polynomial_str(taps)

    def test_non_primitive_taps_warn_but_work(self):
        cfg = LfsrConfig(order=4, taps=parse_polynomial("x^4+x^2+1"), seed=1)
        with pytest.warns(NonMaximalTapsWarning, match="period 6"):
            st = new_lfsr(cfg)
        u = st.next_uniform()
        assert 0 < u.value < 1

    def test_non_primitive_taps_warn_on_every_call(self):
        # the verdict is cached per tap mask, the warning is not
        cfg = LfsrConfig(order=5, taps=parse_polynomial("x^5+x^4+x+1"), seed=3)
        for _ in range(3):
            with pytest.warns(NonMaximalTapsWarning):
                new_lfsr(cfg)

    def test_primitive_taps_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new_lfsr(primitive_config(8))

    def test_factor_table_is_complete_and_prime(self):
        # deterministic Miller-Rabin, valid far beyond 2^64
        def is_prime(m):
            if m < 2:
                return False
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                if m % p == 0:
                    return m == p
            d, r = m - 1, 0
            while d % 2 == 0:
                d //= 2
                r += 1
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                x = pow(a, d, m)
                if x in (1, m - 1):
                    continue
                for _ in range(r - 1):
                    x = x * x % m
                    if x == m - 1:
                        break
                else:
                    return False
            return True

        for n, primes in urng._MERSENNE_FACTORS.items():
            m = 2 ** n - 1
            for p in primes:
                assert is_prime(p), f"{p} (n={n}) is not prime"
                assert m % p == 0
                while m % p == 0:
                    m //= p
            assert m == 1, f"factor list for n={n} is incomplete"


class TestConcurrency:
    def test_states_advance_independently_across_threads(self):
        import threading

        cfgs = [primitive_config(32, seed=s) for s in (11, 22, 33, 44)]
        serial = [new_lfsr(c).words(2000) for c in cfgs]
        states = [new_lfsr(c) for c in cfgs]
        results = [None] * len(states)

        def work(i):
            results[i] = states[i].words(2000)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(states))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)

    def test_state_transfers_between_threads(self):
        import threading

        st = new_lfsr(primitive_config(32, seed=55))
        ref = new_lfsr(primitive_config(32, seed=55))
        first, second = [], []

        t1 = threading.Thread(target=lambda: first.extend(
            st.next_word() for _ in range(100)))
        t1.start()
        t1.join()
        t2 = threading.Thread(target=lambda: second.extend(
            st.next_word() for _ in range(100)))
        t2.start()
        t2.join()
        assert first + second == [ref.next_word() for _ in range(200)]


class TestSeeding:
    def test_splitmix_deterministic(self):
        s1, z1 = splitmix64(42)
        s2, z2 = splitmix64(42)
        assert (s1, z1) == (s2, z2)
        assert 0 <= z1 < 2 ** 64

    def test_derive_seeds_distinct_nonzero(self):
        seeds = derive_seeds(1, 64, 32)
        assert len(seeds) == len(set(seeds)) == 64
        assert all(0 < s < 2 ** 32 for s in seeds)

    def test_derive_seeds_depend_on_master(self):
        assert derive_seeds(1, 4, 32) != derive_seeds(2, 4, 32)
        assert derive_seeds(7, 4, 32) == derive_seeds(7, 4, 32)

    def test_derive_seeds_exhaust_the_seed_space(self):
        assert sorted(derive_seeds(3, 15, 4)) == list(range(1, 16))
        with pytest.raises(ValueError):
            derive_seeds(3, 16, 4)
        with pytest.raises(ValueError, match="^4 distinct seeds requested, but "
                           "only 3 nonzero 2-bit seeds exist$"):
            derive_seeds(3, 4, 2)

    def test_derive_seeds_small_order(self):
        seeds = derive_seeds(9, 10, 4)
        assert len(set(seeds)) == 10
        assert all(0 < s < 16 for s in seeds)
