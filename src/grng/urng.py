"""Maximal-length LFSR uniform random number source.

The generator is a modular (Galois) shift register: one step multiplies the
register, read as a polynomial over GF(2), by x and reduces it modulo the
characteristic polynomial.  The bit shifted out of the top stage is the
output bit, and the feedback XORs land on every stage whose tap coefficient
is set, which is exactly the multiplexer-selected feedback network of a
multi-return shift register.

For a primitive characteristic polynomial the state orbit of any nonzero
seed has period 2**n - 1 and the output bit stream is an m-sequence.
Non-maximal polynomials are accepted with a warning.  Uniform values are
built by packing n output bits per word (MSB first) and dividing by 2**n,
which keeps every value strictly inside (0, 1) for every valid config: n
zero output bits in a row mean n clocks without feedback, which only the
all-zero register gives, and the step is a bijection that fixes 0 (the
polynomial has a constant term), so a nonzero seed never reaches it.  A
packed word is therefore never 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BadPolynomialError",
    "FactorizationUnavailableError",
    "LfsrConfig",
    "LfsrState",
    "NonMaximalTapsWarning",
    "UniformSample",
    "ZeroSeedError",
    "derive_seeds",
    "lfsr_period",
    "new_lfsr",
    "parse_polynomial",
    "polynomial_str",
    "splitmix64",
    "verify_primitive",
]


class ZeroSeedError(ValueError):
    """Seed 0 requested: the all-zero state is absorbing under XOR feedback."""


class BadPolynomialError(ValueError):
    """Tap mask is not a degree-n polynomial with a constant term."""


class FactorizationUnavailableError(ValueError):
    """2**n - 1 has no entry in the built-in factor table."""


class NonMaximalTapsWarning(UserWarning):
    """The configured polynomial is not primitive; period falls short of 2**n - 1."""


# Distinct prime factors of 2**n - 1.  The primitivity test needs one
# subgroup check per distinct prime, so multiplicities are irrelevant.
_MERSENNE_FACTORS = {
    2: (3,),
    3: (7,),
    4: (3, 5),
    5: (31,),
    6: (3, 7),
    7: (127,),
    8: (3, 5, 17),
    9: (7, 73),
    10: (3, 11, 31),
    11: (23, 89),
    12: (3, 5, 7, 13),
    13: (8191,),
    14: (3, 43, 127),
    15: (7, 31, 151),
    16: (3, 5, 17, 257),
    17: (131071,),
    18: (3, 7, 19, 73),
    19: (524287,),
    20: (3, 5, 11, 31, 41),
    21: (7, 127, 337),
    22: (3, 23, 89, 683),
    23: (47, 178481),
    24: (3, 5, 7, 13, 17, 241),
    25: (31, 601, 1801),
    26: (3, 2731, 8191),
    27: (7, 73, 262657),
    28: (3, 5, 29, 43, 113, 127),
    29: (233, 1103, 2089),
    30: (3, 7, 11, 31, 151, 331),
    31: (2147483647,),
    32: (3, 5, 17, 257, 65537),
    33: (7, 23, 89, 599479),
    34: (3, 43691, 131071),
    35: (31, 71, 127, 122921),
    36: (3, 5, 7, 13, 19, 37, 73, 109),
    37: (223, 616318177),
    38: (3, 174763, 524287),
    39: (7, 79, 8191, 121369),
    40: (3, 5, 11, 17, 31, 41, 61681),
    41: (13367, 164511353),
    42: (3, 7, 43, 127, 337, 5419),
    43: (431, 9719, 2099863),
    44: (3, 5, 23, 89, 397, 683, 2113),
    45: (7, 31, 73, 151, 631, 23311),
    46: (3, 47, 178481, 2796203),
    47: (2351, 4513, 13264529),
    48: (3, 5, 7, 13, 17, 97, 241, 257, 673),
    49: (127, 4432676798593),
    50: (3, 11, 31, 251, 601, 1801, 4051),
    51: (7, 103, 2143, 11119, 131071),
    52: (3, 5, 53, 157, 1613, 2731, 8191),
    53: (6361, 69431, 20394401),
    54: (3, 7, 19, 73, 87211, 262657),
    55: (23, 31, 89, 881, 3191, 201961),
    56: (3, 5, 17, 29, 43, 113, 127, 15790321),
    57: (7, 32377, 524287, 1212847),
    58: (3, 59, 233, 1103, 2089, 3033169),
    59: (179951, 3203431780337),
    60: (3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321),
    61: (2305843009213693951,),
    62: (3, 715827883, 2147483647),
    63: (7, 73, 127, 337, 92737, 649657),
    64: (3, 5, 17, 257, 641, 65537, 6700417),
}

#: Characteristic polynomial used by the reference hardware design,
#: x^32 + x^8 + x^5 + x^2 + 1 (primitive; period 2**32 - 1).
DEFAULT_POLYNOMIAL = (1 << 32) | (1 << 8) | (1 << 5) | (1 << 2) | 1
DEFAULT_ORDER = 32


def parse_polynomial(poly):
    """Parse a tap mask from an int, a hex bitmask string, or "x^a+x^b+...+1".

    Bit i of the result is the coefficient of x^i.  Both serialized forms
    ("0x100000125" and "x^32+x^8+x^5+x^2+1") are accepted interchangeably.
    """
    if isinstance(poly, int):
        return poly
    s = poly.strip().lower().replace(" ", "")
    if not s:
        raise BadPolynomialError("empty polynomial")
    if s.startswith("0x"):
        return int(s, 16)
    if "x" not in s:
        return int(s, 0)
    taps = 0
    for term in s.split("+"):
        if term in ("1", "x^0"):
            taps |= 1
        elif term == "x":
            taps |= 2
        elif term.startswith("x^"):
            taps |= 1 << int(term[2:])
        else:
            raise BadPolynomialError(f"cannot parse polynomial term {term!r}")
    return taps


def polynomial_str(taps):
    """Render a tap mask as a human-readable polynomial string."""
    if taps <= 0:
        raise BadPolynomialError("tap mask must be positive")
    terms = []
    for i in range(taps.bit_length() - 1, -1, -1):
        if taps >> i & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


@dataclass(frozen=True)
class LfsrConfig:
    """Shift register parameters: order n, tap mask, and nonzero n-bit seed.

    The tap mask encodes the characteristic polynomial c_n x^n + ... + c_0;
    both the degree-n term and the constant term must be present.
    """

    order: int
    taps: int
    seed: int

    def __post_init__(self):
        if not 2 <= self.order <= 64:
            raise BadPolynomialError(f"order must be in [2, 64], got {self.order}")
        if self.taps.bit_length() - 1 != self.order:
            raise BadPolynomialError(
                f"tap mask {self.taps:#x} is not degree {self.order}"
            )
        if not self.taps & 1:
            raise BadPolynomialError("polynomial must include the constant term")
        if self.seed == 0:
            raise ZeroSeedError("seed must be a nonzero n-bit value")
        if not 0 < self.seed < (1 << self.order):
            raise ZeroSeedError(
                f"seed {self.seed:#x} does not fit in {self.order} bits"
            )

    @classmethod
    def from_polynomial(cls, poly, seed, order=None):
        taps = parse_polynomial(poly)
        return cls(order=order if order is not None else taps.bit_length() - 1,
                   taps=taps, seed=seed)

    def to_dict(self):
        return {
            "order": self.order,
            "taps": f"{self.taps:#x}",
            "polynomial": polynomial_str(self.taps),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        poly = d.get("taps", d.get("polynomial"))
        if poly is None:
            raise BadPolynomialError("config needs a 'taps' or 'polynomial' entry")
        return cls.from_polynomial(poly, seed=d["seed"], order=d.get("order"))


@dataclass
class UniformSample:
    """One uniform value in the open interval (0, 1) plus its source word."""

    value: float
    source_word: int


def _gf2_mulmod(a, b, f, n):
    """Product of polynomials a*b modulo f over GF(2); deg f == n."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= f
    return r


def _gf2_pow_x(e, f, n):
    """x**e modulo f over GF(2) by square-and-multiply."""
    result = 1
    base = 2
    while e:
        if e & 1:
            result = _gf2_mulmod(result, base, f, n)
        base = _gf2_mulmod(base, base, f, n)
        e >>= 1
    return result


def verify_primitive(config):
    """True iff the configured polynomial is primitive over GF(2).

    Checks that x has multiplicative order exactly 2**n - 1 modulo the
    polynomial: x^(2^n - 1) == 1 and x^((2^n - 1)/p) != 1 for every prime
    p dividing 2**n - 1.  Order 2**n - 1 forces irreducibility, so no
    separate irreducibility test is needed.
    """
    n = config.order
    factors = _MERSENNE_FACTORS.get(n)
    if factors is None:
        raise FactorizationUnavailableError(
            f"no factorization of 2^{n} - 1 on record"
        )
    period = (1 << n) - 1
    if _gf2_pow_x(period, config.taps, n) != 1:
        return False
    for p in factors:
        if _gf2_pow_x(period // p, config.taps, n) == 1:
            return False
    return True


def lfsr_period(config, limit=1 << 24):
    """Exact state period of the register, or None if too costly to find.

    For a tap mask f the state orbit is s, s*x, s*x^2, ... mod f, so the
    period equals the multiplicative order of x mod f whenever the seed is
    invertible (always true for primitive f).  When x^(2^n - 1) == 1 the
    order is extracted from the factor table; otherwise the orbit is walked
    directly up to `limit` steps.
    """
    n = config.order
    period = (1 << n) - 1
    if _gf2_pow_x(period, config.taps, n) == 1:
        order = period
        for p in _MERSENNE_FACTORS[n]:
            while order % p == 0 and _gf2_pow_x(order // p, config.taps, n) == 1:
                order //= p
        return order
    f_low = config.taps & period
    s = config.seed
    start = s
    for t in range(1, limit + 1):
        msb = s >> (n - 1)
        s = ((s << 1) & period) ^ (f_low if msb else 0)
        if s == start:
            return t
    return None


@dataclass
class LfsrState:
    """Mutable register state.  Single-owner: not safe for shared mutation.

    Distinct instances are independent and may be advanced from different
    threads; transferring one instance between threads is fine as long as
    only one thread steps it at a time.
    """

    config: LfsrConfig
    register: int = field(init=False)
    steps_taken: int = field(init=False, default=0)

    def __post_init__(self):
        self.register = self.config.seed
        self._mask = (1 << self.config.order) - 1
        self._f_low = self.config.taps & self._mask

    def step(self):
        """Advance one clock; returns the emitted output bit."""
        n = self.config.order
        s = self.register
        msb = s >> (n - 1) & 1
        self.register = ((s << 1) & self._mask) ^ (self._f_low if msb else 0)
        self.steps_taken += 1
        return msb

    def next_word(self):
        """Pack the next n output bits into one word, MSB first."""
        w = 0
        for _ in range(self.config.order):
            w = w << 1 | self.step()
        return w

    def next_uniform(self):
        """Next uniform sample: word / 2**n (the word is never 0)."""
        n = self.config.order
        w = self.next_word()
        value = float(w) * 2.0 ** -n
        if value >= 1.0:  # only reachable for n > 53 via float rounding
            value = float(np.nextafter(1.0, 0.0))
        return UniformSample(value=value, source_word=w)

    # -- bulk generation ----------------------------------------------------

    def _jump(self, steps):
        """Register value after `steps` clocks, without walking them."""
        return _gf2_mulmod(
            self.register,
            _gf2_pow_x(steps, self.config.taps, self.config.order),
            self.config.taps,
            self.config.order,
        )

    def _word_block_raw(self, count, lanes):
        """`count` consecutive words via jump-ahead split into parallel lanes.

        The stream is cut into `lanes` contiguous segments; each lane starts
        from the jumped-ahead register for its segment and all lanes advance
        together as one vectorized Galois step.  Output order is identical
        to `count` sequential next_word() calls.
        """
        n = self.config.order
        per_lane = -(-count // lanes)
        jump_poly = _gf2_pow_x(per_lane * n, self.config.taps, n)
        starts = np.empty(lanes, dtype=np.uint64)
        s = self.register
        for j in range(lanes):
            starts[j] = s
            s = _gf2_mulmod(s, jump_poly, self.config.taps, n)
        state = starts
        mask = np.uint64((1 << n) - 1) if n < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
        f_low = np.uint64(self._f_low)
        shift = np.uint64(n - 1)
        one = np.uint64(1)
        words = np.empty((per_lane, lanes), dtype=np.uint64)
        for m in range(per_lane):
            w = np.zeros(lanes, dtype=np.uint64)
            for _ in range(n):
                msb = (state >> shift) & one
                state = ((state << one) & mask) ^ (msb * f_low)
                w = (w << one) | msb
            words[m] = w
        out = words.T.reshape(-1)[:count]
        self.register = self._jump(count * n)
        self.steps_taken += count * n
        return out

    def words(self, count, lanes=1024):
        """Vectorized equivalent of `count` next_word() calls."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        if count < 4 * lanes:
            return np.array([self.next_word() for _ in range(count)],
                            dtype=np.uint64)
        return self._word_block_raw(count, lanes)

    def uniforms(self, count, lanes=1024):
        """Vectorized equivalent of `count` next_uniform() values."""
        n = self.config.order
        vals = self.words(count, lanes=lanes).astype(np.float64)
        vals *= 2.0 ** -n
        if n > 53:
            np.minimum(vals, np.nextafter(1.0, 0.0), out=vals)
        return vals


def new_lfsr(config):
    """Build a register from a validated config; warns on non-primitive taps.

    The hardware design's published polynomial is honored even when the
    primitivity check fails, so a failing check degrades to a warning that
    reports the actual period when it is cheap to determine.
    """
    try:
        primitive = verify_primitive(config)
    except FactorizationUnavailableError:
        primitive = None
    if primitive is False:
        period = lfsr_period(config, limit=1 << 20)
        detail = f"actual state period {period}" if period else "period not determined"
        warnings.warn(
            f"taps {polynomial_str(config.taps)} are not primitive; "
            f"maximal period 2^{config.order}-1 is not reached ({detail})",
            NonMaximalTapsWarning,
            stacklevel=2,
        )
    return LfsrState(config)


# -- seed derivation ---------------------------------------------------------

_U64 = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 step: returns (new_state, mixed output)."""
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    z = z ^ (z >> 31)
    return state, z


def derive_seeds(master_seed, count, order):
    """Expand a 64-bit master seed into `count` distinct nonzero LFSR seeds.

    Successive splitmix64 outputs are truncated to `order` bits; zero maps
    to 1 and collisions are skipped, so the derived streams never coincide.
    """
    mask = (1 << order) - 1
    state = master_seed & _U64
    seeds = []
    seen = set()
    while len(seeds) < count:
        state, z = splitmix64(state)
        s = z & mask
        if s == 0:
            s = 1
        if s in seen:
            continue
        seen.add(s)
        seeds.append(s)
    return seeds
