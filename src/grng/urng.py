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

Bulk words use the state-transition-matrix "leap-forward" step of Thomas &
Luk (FPL 2006, FPL 2010), widened to a block of K = 32 words.  Over GF(2)
the next K words W_1(s) ... W_K(s) and the register K words later S_K(s)
are all linear in the register s, so the row of these K + 1 values is the
XOR of ceil(n/8) rows of 256-entry tables indexed by the bytes of s.
Table entries and words are the narrowest unsigned type that holds n bits:
uint32 up to order 32 (tables of 135 KB at order 32), uint64 above (540 KB
at order 64), built from one walk of `LfsrState.step`, (K + 1) * n clocks
from the register 1.  `LfsrState.words` cuts the stream into up to 4096
contiguous lanes of K * 2^m words.  The last column of the block tables,
the multiply by x^(K * n) mod f, squared m times is the jump from one
lane start to the next, and doubling with it finds every start.  The
tables and that column's chain of squares, which serves every m, are one
read-only cache entry per (order, taps), beside the order of x mod f.
Each lane advances one block per lookup, writing its words straight into
its row of the output.

`LfsrState.jump(words)` is the one jump of a whole stream: it moves the
register `words` words on, to register * x^(words * n) mod f, by one
square-and-multiply (jump-ahead substreams, L'Ecuyer, Simard, Chen &
Kelton, Oper. Res. 50(6), 2002).  `words` takes its end register from
its last lane and jumps only the fewer than K words past that lane's last
whole block, and the batch driver `transforms.evaluate` starts each block
of a round from copies of the sources jumped to the block's first word, so
the words of a block do not depend on how a round is cut.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BadPolynomialError",
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


class NonMaximalTapsWarning(UserWarning):
    """The configured polynomial is not primitive; period falls short of 2**n - 1."""


# Distinct prime factors of 2**n - 1.  The order search divides each prime
# out as often as it goes, so multiplicities are irrelevant.
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

#: Largest register order: its words fit a uint64.
_MAX_ORDER = 64

#: Characteristic polynomial used by the reference hardware design,
#: x^32 + x^8 + x^5 + x^2 + 1 (primitive; period 2**32 - 1).
DEFAULT_POLYNOMIAL = (1 << 32) | (1 << 8) | (1 << 5) | (1 << 2) | 1


def parse_polynomial(poly):
    """Parse a tap mask from an int, a hex bitmask string, or "x^a+x^b+...+1".

    Bit i of the result is the coefficient of x^i.  Both serialized forms
    ("0x100000125" and "x^32+x^8+x^5+x^2+1") are accepted interchangeably.
    A term above x^64, or one written twice (it cancels over GF(2)), is refused.
    """
    if isinstance(poly, int):
        return poly
    s = poly.strip().lower().replace(" ", "")
    if not s:
        raise BadPolynomialError("empty polynomial")
    if s.startswith("0x") or "x" not in s:
        try:
            return int(s, 0)
        except ValueError:
            raise BadPolynomialError(f"cannot parse tap mask {s!r}") from None
    taps = 0
    for term in s.split("+"):
        digits = {"1": "0", "x": "1"}.get(term, term[2:] if term[:2] == "x^" else "")
        if not digits.isdecimal():
            raise BadPolynomialError(f"cannot parse polynomial term {term!r}")
        # so long an exponent is past any order; int() refuses over 4300 digits
        e = int(digits) if len(digits) < 20 else math.inf
        if e > _MAX_ORDER:
            raise BadPolynomialError(f"term {term!r} is above x^{_MAX_ORDER}")
        if taps >> e & 1:
            raise BadPolynomialError(f"term {term!r} is repeated")
        taps |= 1 << e
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
        if not 2 <= self.order <= _MAX_ORDER:
            raise BadPolynomialError(
                f"order must be in [2, {_MAX_ORDER}], got {self.order}")
        if self.taps < 0 or self.taps.bit_length() - 1 != self.order:
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


def _gf2_pow_x(e, f, n, result=1):
    """result * x**e modulo f over GF(2) by square-and-multiply."""
    base = 2
    while e:
        if e & 1:
            result = _gf2_mulmod(result, base, f, n)
        base = _gf2_mulmod(base, base, f, n)
        e >>= 1
    return result


#: 2 and every prime of 2**d - 1, d <= 64: all primes an order of x can
#: have.  Largest first, so that later exponents are short.
_ORDER_PRIMES = sorted({2}.union(*_MERSENNE_FACTORS.values()), reverse=True)


def _gf2_divmod(a, b):
    """Quotient and remainder of polynomials a / b over GF(2); b != 0."""
    q, db = 0, b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _gf2_gcd(a, b):
    while b:
        a, b = b, _gf2_divmod(a, b)[1]
    return a


def _factor_shape(n, taps):
    """Degrees of the irreducible factors of taps, and their largest multiplicity.

    Distinct-degree factorization: once every factor of degree below d is
    divided out, gcd(g, x^(2^d) - x) is the product of the distinct
    factors of degree d left in g, and dividing g by its gcd with that
    product, while there is one, strips each of them as often as it occurs.
    """
    degrees, most = [], 1
    g, xq, d = taps, 2, 0  # xq = x^(2^d) mod taps
    while g != 1:
        d += 1
        if g.bit_length() - 1 < 2 * d:  # one factor is left, of degree >= d
            degrees.append(g.bit_length() - 1)
            break
        xq = _gf2_mulmod(xq, xq, taps, n)
        h, copies = _gf2_gcd(g, xq ^ 2), 0
        if h != 1:
            degrees.append(d)
        while (h := _gf2_gcd(g, h)) != 1:
            g, copies = _gf2_divmod(g, h)[0], copies + 1
        most = max(most, copies)
    return degrees, most


@functools.lru_cache(maxsize=64)
def _x_order(n, taps):
    """Order of x mod taps, of degree n >= 1: the orbit length of the register 1.

    It divides 2**n - 1 if taps is irreducible, and otherwise
    lcm(2**d - 1 : d a factor degree) * 2**ceil(log2 e), e the largest
    multiplicity of a factor (Lidl & Niederreiter, Finite Fields, Thms 3.8
    and 3.9).  The t with x^t == 1 are the multiples of the order, so
    primes are divided out of that bound while the congruence holds.
    """
    t = (1 << n) - 1
    if _gf2_pow_x(t, taps, n) != 1:
        degrees, most = _factor_shape(n, taps)
        t = math.lcm(*((1 << d) - 1 for d in degrees)) << (most - 1).bit_length()
    for p in _ORDER_PRIMES:
        while t % p == 0 and _gf2_pow_x(t // p, taps, n) == 1:
            t //= p
    return t


def verify_primitive(config):
    """True iff the configured polynomial is primitive over GF(2).

    That is, iff x has order exactly 2**n - 1 modulo it, which also forces
    irreducibility.  The order is cached per (order, taps).
    """
    return _x_order(config.order, config.taps) == (1 << config.order) - 1


def lfsr_period(config):
    """Exact state period of the register: its seed's orbit length.

    The orbit s, s*x, s*x^2, ... mod f first returns to s at the least t
    with s * x^t == s, that is with x^t == 1 modulo g = f / gcd(f, s)
    (f divides s * (x^t - 1) iff g divides x^t - 1).  So the period is
    the order of x mod g: the order of x mod f when s is coprime to f,
    and a divisor of it otherwise.
    """
    n, f = config.order, config.taps
    t = _x_order(n, f)
    if t == (1 << n) - 1:  # primitive: every nonzero register is a unit
        return t
    g = _gf2_divmod(f, _gf2_gcd(f, config.seed))[0]
    return _x_order(g.bit_length() - 1, g)


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

    def jump(self, words):
        """Advance `words` words without drawing them; returns self.

        The register becomes register * x^(words * n) mod f, the register
        `words` words later, by one square-and-multiply (about 160 us at
        order 32), and `steps_taken` grows by words * n.
        """
        if words < 0:
            raise ValueError("count must be >= 0")
        n = self.config.order
        self.register = _gf2_pow_x(words * n, self.config.taps, n, self.register)
        self.steps_taken += words * n
        return self

    # -- bulk generation ----------------------------------------------------

    def _lane_starts(self, lanes, jumps):
        """Registers at the starts of `lanes` equal lanes of the stream.

        jumps[i] tabulates the multiply by x^(2^i lane lengths * n).
        Doubling: the starts found so far, times jumps[i], are the next as
        many.
        """
        starts = np.array([self.register], dtype=jumps[0].dtype)
        for jump in jumps:
            if starts.size >= lanes:
                break
            more = _lookup(jump, starts[:lanes - starts.size])
            starts = np.concatenate([starts, more])
        return starts

    def words(self, count):
        """Vectorized equivalent of `count` next_word() calls.

        The words are uint32 up to order 32 and uint64 above.  The stream
        is cut into at most 4096 contiguous lanes of _BLOCK * 2^m words, m
        the least that covers `count`; the jump between lane starts is
        entry m of the jump chain of `_block_tables`.  Each lane advances
        one block per lookup, writing its words straight into its row of
        the output.  The register after `count` words, that of
        `jump(count)`, is the last lane's after its last whole block within
        `count`, jumped the fewer than _BLOCK words left.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        n, taps = self.config.order, self.config.taps
        if count == 0:
            return np.empty(0, dtype=_word_dtype(n))
        block, jumps = _block_tables(n, taps)
        m = (-(-count // (_LANES * _BLOCK)) - 1).bit_length()
        per_lane = _BLOCK << m
        lanes = -(-count // per_lane)
        state = self._lane_starts(lanes, jumps[m:])
        # words of the last lane's whole blocks within `count`
        whole = count - (lanes - 1) * per_lane - count % _BLOCK
        end = state[-1]
        words = np.empty((lanes, per_lane), dtype=block.dtype)
        for k in range(0, per_lane, _BLOCK):
            nxt = _lookup(block, state)
            words[:, k:k + _BLOCK] = nxt[:, :_BLOCK]
            state = nxt[:, _BLOCK]
            if k + _BLOCK == whole:
                end = state[-1]
        self.register = int(end)
        self.steps_taken += (count - count % _BLOCK) * n
        self.jump(count % _BLOCK)
        return words.reshape(-1)[:count]

    def uniforms(self, count, dtype=np.float64):
        """Vectorized equivalent of `count` next_uniform() values, as dtype.

        Binary32 values are `fp_pipeline.uniform_to_f32` of the words.
        """
        return _word_uniforms(self.words(count), self.config.order, dtype)


def _word_uniforms(words, n, dtype):
    """n-bit words as word / 2**n, rounded once to dtype (float64 or float32).

    A word of at most 32 bits is cast straight to dtype: the cast rounds it
    once and the power-of-two scale is exact.  Wider words are scaled in
    float64 and then rounded to dtype, as `fp_pipeline.uniform_to_f32` does
    for float32; a direct uint64 cast would round differently where the
    float64 step ties (at order 64, 2^63 + 2^39 + 1 is 0x1p-1 one way,
    0x1.000002p-1 the other).  Above order 53 float64 rounding can reach
    1.0, so values are capped at the largest float64 below 1, as in
    `next_uniform`.
    """
    vals = words.astype(dtype if n <= 32 else np.float64)
    vals *= 2.0 ** -n
    if n > 53:
        np.minimum(vals, np.nextafter(1.0, 0.0), out=vals)
    return vals.astype(dtype, copy=False)


#: Lanes that `LfsrState.words` advances side by side.
_LANES = 4096
#: Words that one table lookup yields per lane in `LfsrState.words`.
_BLOCK = 32


def _word_dtype(order):
    """Narrowest unsigned type that holds an order-bit register or word."""
    return np.uint32 if order <= 32 else np.uint64


def _byte_tables(images):
    """Byte lookup tables of GF(2)-linear maps on n-bit registers.

    images[j] is the row of images of the register 1 << j, one per map.
    The result T is a read-only array of images' dtype and of shape
    (ceil(n/8), 256, maps) with T[b, v] the images of v << 8b, so the maps
    of s are the XOR over b of T[b, byte b of s].  Row v of a byte table
    with top bit i is row v ^ (1 << i) XOR the images of bit i.  For the
    block tables that is 135 KB at order 32 (uint32) and 540 KB at order
    64 (uint64).
    """
    n, maps = images.shape
    basis = np.pad(images, ((0, -n % 8), (0, 0))).reshape(-1, 8, maps)
    tables = np.zeros((len(basis), 256, maps), dtype=images.dtype)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ basis[:, i:i + 1]
    tables.flags.writeable = False
    return tables


def _lookup(tables, regs):
    """The map tabulated by `_byte_tables`, applied to an array of registers."""
    word = tables.dtype.newbyteorder("<")
    octets = np.ascontiguousarray(regs, dtype=word).view(np.uint8)
    octets = octets.reshape(*np.shape(regs), word.itemsize)
    out = tables[0].take(octets[..., 0], axis=0)
    for b in range(1, len(tables)):
        out ^= tables[b].take(octets[..., b], axis=0)
    return out


@functools.lru_cache(maxsize=64)
def _block_tables(order, taps):
    """Block leap-forward tables and lane jumps, built once per tap mask.

    block[..., k] tabulates word k + 1 of the register s for k < _BLOCK,
    and block[..., _BLOCK] the register _BLOCK words later.  The basis
    register 1 << j is x^j, so its clock t is clock j + t of the register
    1: one walk of (_BLOCK + 1) * n clocks from 1 gives every image.
    jumps[j], that last column squared j times (a table applied to its own
    entries), is the multiply by x^(_BLOCK * 2^j * n).
    """
    dtype = _word_dtype(order)
    st = LfsrState(LfsrConfig(order=order, taps=taps, seed=1))
    regs = np.empty((_BLOCK + 1) * order, dtype=dtype)
    for t in range(len(regs)):
        regs[t] = st.register
        st.step()
    bits, span = regs >> dtype(order - 1), _BLOCK * order
    words = np.zeros(span, dtype=dtype)
    for i in range(order):  # word at clock t packs bits t .. t + n - 1
        words = words << dtype(1) | bits[i:i + span]
    images = np.column_stack([words.reshape(_BLOCK, order).T, regs[span:]])
    block = _byte_tables(images)
    # `words` reads entries m to m + 11 to reach _LANES lanes of _BLOCK * 2^m
    # words; 64 entries cover every count below 2^63 (m <= 46 there)
    jumps = [block[..., _BLOCK]]
    while len(jumps) < 64:
        jumps.append(_lookup(jumps[-1], jumps[-1]))
        jumps[-1].flags.writeable = False
    return block, tuple(jumps)


def new_lfsr(config):
    """Build a register from a validated config; warns on non-primitive taps.

    The hardware design's published polynomial is honored even when the
    primitivity check fails, so a failing check degrades to a warning that
    reports the actual period of the seed.
    """
    if not verify_primitive(config):
        warnings.warn(
            f"taps {polynomial_str(config.taps)} are not primitive; "
            f"maximal period 2^{config.order}-1 is not reached "
            f"(seed {config.seed:#x}: actual state period {lfsr_period(config)})",
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
    """Expand a master seed (read modulo 2**64) into `count` nonzero LFSR seeds.

    Successive splitmix64 outputs are truncated to `order` bits; zero maps
    to 1 and repeats are skipped, so the starting registers are distinct.
    The streams themselves are not disjoint: with primitive taps every
    nonzero register lies on one m-sequence of 2**order - 1 states, so each
    stream is another shifted by some number of clocks, and two streams
    share states once one draws more clocks than that shift.
    Raises ValueError when `count` exceeds the 2**order - 1 nonzero seeds.
    """
    mask = (1 << order) - 1
    if count > mask:
        raise ValueError(f"{count} distinct seeds requested, but only {mask} "
                         f"nonzero {order}-bit seeds exist")
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
