import math
import warnings

import numpy as np
import pytest

from grng import urng
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


class TestPolynomialStrings:
    def test_parse_examples(self):
        assert parse_polynomial("x^4+x+1") == 0b10011
        assert parse_polynomial("X^2 + X + 1") == 0b111
        assert parse_polynomial("0x13") == 0b10011
        assert parse_polynomial(0b10011) == 0b10011

    def test_round_trip(self):
        for poly in ("x^32+x^8+x^5+x^2+1", "x^4+x+1", "x^2+x+1"):
            assert polynomial_str(parse_polynomial(poly)) == poly

    def test_reject_garbage(self):
        with pytest.raises(BadPolynomialError):
            parse_polynomial("x^4+y+1")
        with pytest.raises(BadPolynomialError):
            parse_polynomial("")


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
        bulk = a.words(5000, lanes=64)
        scalar = np.array([b.next_word() for _ in range(5000)], dtype=np.uint64)
        assert np.array_equal(bulk, scalar)
        assert a.register == b.register
        assert a.steps_taken == b.steps_taken

    def test_bulk_resumes_exactly(self):
        cfg = primitive_config(32, seed=5)
        a, b = new_lfsr(cfg), new_lfsr(cfg)
        a.words(1000, lanes=16)
        b.words(600, lanes=64)
        b.words(400, lanes=8)
        assert a.register == b.register
        assert a.next_word() == b.next_word()

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

    def test_non_primitive_taps_warn_but_work(self):
        cfg = LfsrConfig(order=4, taps=parse_polynomial("x^4+x^2+1"), seed=1)
        with pytest.warns(NonMaximalTapsWarning, match="period 6"):
            st = new_lfsr(cfg)
        u = st.next_uniform()
        assert 0 < u.value < 1

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

    def test_derive_seeds_small_order(self):
        seeds = derive_seeds(9, 10, 4)
        assert len(set(seeds)) == 10
        assert all(0 < s < 16 for s in seeds)
