"""Normality-test battery: histogram, moments, chi-square, AD and KS tests.

All tests are one-sample tests against the fully specified standard normal
(no parameter estimation), reflecting the null hypothesis "the sample is
drawn from N(0, 1)":

* chi-square goodness of fit over equal-probability bins (default 8, so 7
  degrees of freedom); expected count per bin is N / bins, so bins may
  not exceed N.
* Anderson-Darling, case 0 (known mean and variance), with the p-value
  taken from the asymptotic distribution of A^2; no small-sample
  modification factor is applied.
* one-sample Kolmogorov-Smirnov with the Kolmogorov-distribution series
  Q(lam) = 2 sum_j (-1)^(j-1) exp(-2 j^2 lam^2) evaluated at the
  finite-sample argument lam = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.

`run_suite` judges one sorted copy of the sample, so sample order never
matters and, unless the caller passes `overwrite_input`, its buffer is
never written; the single-test functions are `run_suite` with one test.
chi2 counts its bins by searching the cut points in the sorted sample.
One erfc pass over the sorted copy, which it takes over, then yields the
smaller tail Phi(-|y|) and its logarithm for both AD and KS, so each side
of the normal distribution is computed in one place.  KS reads the tail
before AD reuses its buffer.  The positive values of the sorted copy are a
suffix, found by one searchsorted, so neither test needs a mask: KS and AD
work in the sorted copy and the tail buffer with block-sized scratch only.
p-values are always numeric; values that underflow double precision
render as "< 1e-300" in reports.

The erfc pass is a numpy port of fdlibm's erfc (Cody's rational
approximations, on pieces cut at 0.84375, 1.25, 1/0.35 and 28).  In the
sorted copy |y| falls over the negatives and rises over the rest: two
monotone runs, in which every piece is one contiguous slice found by
searchsorted.  Each slice is worked in place, in fixed-size blocks with
preallocated scratch, so the pass needs neither masks nor memory that
grows with the sample beyond the tail itself.

The normal quantile is the standard library's `statistics.NormalDist`
(Wichura's AS241); the chi-square cut points take the lower half from it
and mirror it.  The chi-square tail is the finite sum that integer degrees
of freedom allow (no incomplete-gamma series or continued fraction), and
the Kolmogorov series is summed directly, so the library needs nothing
beyond numpy and the standard library; the test suite cross-checks erfc,
both tails and every test against extended-precision oracles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import sampleio

__all__ = [
    "EmptySampleError",
    "Histogram",
    "InsufficientSampleError",
    "Moments",
    "NonFiniteSampleError",
    "TESTS",
    "TestReport",
    "anderson_darling",
    "build_histogram",
    "chi_square_gof",
    "chi2_sf",
    "kolmogorov_sf",
    "kolmogorov_smirnov",
    "moments",
    "normal_cdf",
    "normal_ppf",
    "run_suite",
]


class EmptySampleError(ValueError):
    """No samples supplied."""


class InsufficientSampleError(ValueError):
    """Sample smaller than the test's minimum size."""


class NonFiniteSampleError(ValueError):
    """Sample contains NaN or infinity."""


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()
#: The battery in report order: each test's `--suite` name and its title.
TESTS = {"chi2": "Chi-Square", "ad": "Anderson-Darling", "ks": "Kolmogorov-Smirnov"}
_BLOCK = 1 << 16


def normal_cdf(x):
    """Standard normal CDF via erfc; absolute error well below 1e-12."""
    return 0.5 * math.erfc(-x / _SQRT2)


# fdlibm s_erf.c (Sun, 1993; W. J. Cody's rational approximations): erfc of
# x >= 0 on pieces 0 to 5, cut where x reaches each of _ERFC_CUTS (piece 5,
# x >= 28, underflows).  Each tuple holds a polynomial's coefficients from
# the constant term up.
_ERFC_CUTS = np.array([0.25, 0.84375, 1.25, float.fromhex("0x1.6db6dp+1"), 28.0])
_ERX = 8.45062911510467529297e-01
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
       -2.84817495755985104766e-02, -5.77027029648944159157e-03,
       -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
       5.08130628187576562776e-03, 1.32494738004321644526e-04,
       -3.96022827877536812320e-06)
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
       -3.72207876035701323847e-01, 3.18346619901161753674e-01,
       -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
       7.18286544141962662868e-02, 1.26171219808761642112e-01,
       1.36370839120290507362e-02, 1.19844998467991074170e-02)
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
       -1.05586262253232909814e+01, -6.23753324503260060396e+01,
       -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
       4.34565877475229228821e+02, 6.45387271733267880336e+02,
       4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
       -1.77579549177547519889e+01, -1.60636384855821916062e+02,
       -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
       1.53672958608443695994e+03, 3.19985821950859553908e+03,
       2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)


def _poly(z, coefs, out):
    """out = c0 + z*(c1 + z*(... + z*cn)), rounded as fdlibm's Horner form."""
    np.multiply(z, coefs[-1], out=out)
    for c in coefs[-2:0:-1]:
        out += c
        out *= z
    out += coefs[0]
    return out


def _erfc_piece(piece, x, out, a, b, c):
    """out = erfc(x) for x >= 0 in one fdlibm piece; a, b, c are scratch."""
    if piece == 5:  # x >= 28: fdlibm's tiny*tiny underflows to 0
        out.fill(0.0)
    elif piece < 2:  # x < 0.84375: erfc = 1 - erf, erf(x) = x + x*P(x^2)/Q(x^2)
        np.multiply(x, x, out=a)
        y = _poly(a, _PP, b)
        y /= _poly(a, _QQ, c)
        y *= x
        if piece == 0:
            y += x
            np.subtract(1.0, y, out=out)
        else:
            y += np.subtract(x, 0.5, out=a)
            np.subtract(0.5, y, out=out)
    elif piece == 2:  # erfc = (1 - erx) - P(x - 1)/Q(x - 1)
        s = np.subtract(x, 1.0, out=a)
        p = _poly(s, _PA, b)
        p /= _poly(s, _QA, c)
        np.subtract(1.0 - _ERX, p, out=out)
    else:  # erfc = exp(-z*z - 0.5625) * exp((z - x)*(z + x) + R/S) / x
        s = np.multiply(x, x, out=a)
        np.divide(1.0, s, out=s)
        r_s = _poly(s, _RA if piece == 3 else _RB, b)
        r_s /= _poly(s, _SA if piece == 3 else _SB, c)
        # z is x with the low 32 bits of its significand cleared
        z = a
        np.bitwise_and(x.view(np.uint64), _HIGH_WORD, out=z.view(np.uint64))
        e = np.subtract(z, x, out=c)
        e *= np.add(z, x, out=out)
        e += r_s
        np.exp(e, out=e)
        head = np.multiply(z, z, out=b)
        np.negative(head, out=head)
        head -= 0.5625
        np.exp(head, out=head)
        head *= e
        np.divide(head, x, out=out)


def _erfc_sorted(v, out):
    """out = erfc(|v|) for v sorted ascending; takes over v, leaving |v| in it.

    |v| falls over the negatives and rises over the rest, so each fdlibm
    piece is one contiguous slice on either side of zero, found by
    searchsorted: no mask and no gather.  Slices are worked in blocks of
    _BLOCK with preallocated scratch, so the extra memory stays bounded.
    """
    n = v.size
    zero = int(np.searchsorted(v, 0.0))
    below = np.searchsorted(v, -_ERFC_CUTS[::-1], side="right")
    above = np.searchsorted(v, _ERFC_CUTS, side="left")
    x = np.abs(v, out=v)
    # slice i of the negatives holds piece 5 - i, slice i of the rest piece i
    neg = [0, *below.tolist(), zero]
    pos = [zero, *above.tolist(), n]
    slices = [(5 - i, neg[i], neg[i + 1]) for i in range(6)]
    slices += [(i, pos[i], pos[i + 1]) for i in range(6)]
    scratch = [np.empty(min(n, _BLOCK)) for _ in range(3)]
    for piece, lo, hi in slices:
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            _erfc_piece(piece, x[start:stop], out[start:stop],
                        *(s[:stop - start] for s in scratch))
    return out


def _normal_tail(ys):
    """Smaller tail t = Phi(-|y|) of each y, and log t, for ys sorted ascending.

    t = erfc(|y| / sqrt 2) / 2, one `_erfc_sorted` pass over the sorted
    sample.  Takes over ys: |y| / sqrt 2 is formed in its buffer, which
    then holds log t.  From |y| = 36 on, where t nears underflow, log t
    comes from the asymptotic series
    Phi(-a) ~ phi(a)/a * (1 - 1/a^2 + 3/a^4 - 15/a^6).
    """
    # the far tails, |y| >= 36, taken before the buffer is overwritten
    j_neg = int(np.searchsorted(ys, -36.0, side="right"))
    j_pos = int(np.searchsorted(ys, 36.0, side="left"))
    a_far = np.abs(np.concatenate((ys[:j_neg], ys[j_pos:])))
    # rounded division by sqrt 2 is monotone and odd: the quotients stay
    # sorted, and |y / sqrt 2| == |y| / sqrt 2
    ys /= _SQRT2
    t = _erfc_sorted(ys, np.empty(ys.size))
    t *= 0.5
    with np.errstate(divide="ignore"):
        log_t = np.log(t, out=ys)
    if a_far.size:
        z = a_far * a_far
        series = 1.0 - 1.0 / z + 3.0 / (z * z) - 15.0 / (z * z * z)
        log_far = -0.5 * z - _LOG_SQRT_2PI - np.log(a_far) + np.log(series)
        log_t[:j_neg], log_t[j_pos:] = np.split(log_far, [j_neg])
    return t, log_t


def normal_ppf(p):
    """Inverse standard normal CDF (quantile function), Wichura's AS241."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution with df degrees of freedom.

    Integer df gives a finite sum (Abramowitz & Stegun 26.4.4-26.4.5): with
    y = x/2 and h = 1/2 for odd df, 0 for even, erfc(sqrt(y)) (odd df only)
    plus y^(j+h) e^-y / Gamma(j+h+1) over j < df//2, each term in logs.
    """
    if not isinstance(df, numbers.Integral) or df < 1 or x < 0.0:
        raise ValueError(f"need a positive integer df and x >= 0, got "
                         f"df={df!r}, x={x!r}")
    if x == 0.0:
        return 1.0
    y = x / 2.0
    h = 0.5 if df % 2 else 0.0
    log_y = math.log(y)
    terms = (math.exp((j + h) * log_y - y - math.lgamma(j + h + 1.0))
             for j in range(df // 2))
    return math.fsum(terms) + (math.erfc(math.sqrt(y)) if h else 0.0)


def kolmogorov_sf(lam):
    """Upper tail of the Kolmogorov distribution, Q(lam) = P(K > lam)."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # theta-transformed series for the CDF: converges fast for small lam
        t = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        cdf = math.sqrt(2.0 * math.pi) / lam * (t + t ** 9 + t ** 25 + t ** 49)
        return 1.0 - cdf
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += -term if j % 2 == 0 else term
        if term < 1e-300:
            break
    return max(0.0, 2.0 * total)


def anderson_darling_sf(a2):
    """Upper tail of the asymptotic (case-0) A^2 distribution.

    Marsaglia & Marsaglia's polynomial fit of the limiting CDF, accurate to
    about 7 digits over the practical range.
    """
    if a2 <= 0.0:
        return 1.0
    if math.isinf(a2):
        return 0.0
    z = a2
    if z < 2.0:
        cdf = (math.exp(-1.2337141 / z) / math.sqrt(z)
               * (2.00012 + (0.247105 - (0.0649821 - (0.0347962
                  - (0.0116720 - 0.00168691 * z) * z) * z) * z) * z))
    else:
        cdf = math.exp(-math.exp(1.0776 - (2.30695 - (0.43424 - (0.082433
                       - (0.008056 - 0.0003146 * z) * z) * z) * z) * z))
    return min(1.0, max(0.0, 1.0 - cdf))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one normality test at significance level alpha."""

    test_name: str
    statistic: float
    p_value: float
    rejected: bool
    alpha: float = 0.05

    @property
    def null_hypothesis(self):
        return "Rejected" if self.rejected else "Non-rejected"

    @property
    def p_display(self):
        """Human-readable p-value; underflowed values render as '< 1e-300'."""
        if self.p_value < 1e-300:
            return "< 1e-300"
        return f"{self.p_value:.6g}"

    def to_dict(self):
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class Histogram:
    """Binned counts over strictly increasing edges; total == counts.sum()."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def to_csv(self, out):
        """Write a bin_lo,bin_hi,count header and one line per bin to `out`.

        The bins go to `sampleio._write_round` as `range(bins)`, so they are
        encoded on every CPU, each chunk from its own slices of `bin_edges`
        and `counts`: no copy of the bins is made.
        """
        out.write("bin_lo,bin_hi,count\n")
        sampleio._write_round(out, range(self.counts.size), self._csv_lines, "")

    def _csv_lines(self, bins):
        """The bin_lo,bin_hi,count lines of the bins in the range `bins`."""
        edges = self.bin_edges[bins.start:bins.stop + 1].tolist()
        counts = self.counts[bins.start:bins.stop].tolist()
        return "".join(f"{lo!r},{hi!r},{c}\n" for lo, hi, c in zip(edges, edges[1:], counts))


def _as_sample(samples):
    xs = np.asarray(samples, dtype=np.float64).reshape(-1)
    if xs.size and not np.isfinite(xs).all():
        raise NonFiniteSampleError("sample contains non-finite values")
    return xs


def build_histogram(samples, bins, range=None):
    """Tally samples into half-open bins [edge_i, edge_i+1); last bin closed.

    Default range is [min, max] of the sample.  With an explicit range,
    samples outside it are dropped (total counts only binned samples).
    NaN or infinity raises NonFiniteSampleError, as in every test.
    """
    xs = _as_sample(samples)
    if xs.size == 0:
        raise EmptySampleError("cannot histogram an empty sample")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if range is not None and not range[0] < range[1]:
        raise ValueError("range must satisfy lo < hi")
    counts, edges = np.histogram(xs, bins=bins, range=range)
    return Histogram(bin_edges=edges, counts=counts, total=int(counts.sum()))


def _chi2_cuts(bins):
    """The bins - 1 normal quantiles at i / bins, in increasing order.

    The lower half comes from normal_ppf and the upper half mirrors it
    (Phi^-1(1 - p) = -Phi^-1(p)), so the cuts are exactly antisymmetric.
    """
    lower = np.array([normal_ppf(i / bins) for i in range(1, (bins + 1) // 2)])
    middle = [0.0] if bins % 2 == 0 else []
    return np.concatenate((lower, middle, -lower[::-1]))


def _chi2(ys, alpha, bins):
    """chi2 report of the sorted sample ys."""
    n = ys.size
    # bin i holds cut_i <= y < cut_i+1: the count of y below each cut, differenced
    below = np.searchsorted(ys, _chi2_cuts(bins), side="left")
    observed = np.diff(below, prepend=0, append=n).astype(np.float64)
    expected = n / bins
    stat = float(((observed - expected) ** 2 / expected).sum())
    p = chi2_sf(stat, bins - 1)
    return TestReport("chi2", stat, p, rejected=p < alpha, alpha=alpha)


def _ks(t, upper, alpha):
    """KS report from the tail t of the sorted sample, whose positive values
    start at index `upper`; t is only read."""
    n = t.size
    d = 0.0
    # in blocks, so the scratch arrays stay small; D is the largest over all
    for lo in range(0, n, _BLOCK):
        # Phi(y) = t up to the median, 1 - t above it
        cdf = t[lo:lo + _BLOCK].copy()
        above = cdf[max(upper - lo, 0):]
        np.subtract(1.0, above, out=above)
        i = np.arange(lo + 1, lo + 1 + cdf.size, dtype=np.float64)
        d = max(d, float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1.0) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    p = kolmogorov_sf(lam)
    return TestReport("ks", d, p, rejected=p < alpha, alpha=alpha)


def _ad(t, log_t, upper, alpha):
    """AD report from the tail t and log t of the sorted sample, whose
    positive values start at index `upper`; uses up t and log t.

    Works in the two buffers it is given, with block-sized scratch only.
    """
    n = t.size
    # log Phi(y) is log t up to the median and log(1 - t) above it, and
    # log Phi(-y) the other way round: log(1 - t) is formed in t's buffer,
    # and the two buffers trade their values above the median
    log_cdf, log_sf = log_t, np.log1p(np.negative(t, out=t), out=t)
    for lo in range(upper, n, _BLOCK):
        head = log_cdf[lo:lo + _BLOCK].copy()
        log_cdf[lo:lo + _BLOCK] = log_sf[lo:lo + _BLOCK]
        log_sf[lo:lo + _BLOCK] = head
    log_cdf += log_sf[::-1]
    for lo in range(0, n, _BLOCK):
        part = log_cdf[lo:lo + _BLOCK]
        part *= 2.0 * np.arange(lo + 1, lo + 1 + part.size, dtype=np.float64) - 1.0
    a2 = -n - float(np.sum(log_cdf)) / n
    p = anderson_darling_sf(a2)
    return TestReport("ad", a2, p, rejected=p < alpha, alpha=alpha)


def chi_square_gof(samples, alpha=0.05, bins=8):
    """Chi-square goodness of fit against N(0, 1) over equal-probability bins.

    Cut points are standard-normal quantiles, so every bin has expected
    count N / bins; the statistic is referred to chi-square with bins - 1
    degrees of freedom.
    """
    return run_suite(samples, ("chi2",), alpha=alpha, bins=bins)[0]


def anderson_darling(samples, alpha=0.05):
    """Case-0 Anderson-Darling test against the fully specified N(0, 1)."""
    return run_suite(samples, ("ad",), alpha=alpha)[0]


def kolmogorov_smirnov(samples, alpha=0.05):
    """One-sample KS test against N(0, 1).

    D = max_i max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n); the p-value uses
    the Kolmogorov series at (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.
    """
    return run_suite(samples, ("ks",), alpha=alpha)[0]


class Moments(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def moments(samples):
    """Sample mean, unbiased variance, and standardized 3rd/4th moments.

    Skewness and excess kurtosis use the population central-moment
    estimators g1 = m3 / m2^1.5 and g2 = m4 / m2^2 - 3; for a degenerate
    sample (zero variance) both are NaN markers.
    """
    xs = _as_sample(samples)
    n = xs.size
    if n < 2:
        raise InsufficientSampleError(f"moments need >= 2 samples, got {n}")
    mean = float(xs.mean())
    c = xs - mean
    c2 = c * c  # products: c ** 3 and c ** 4 go through the slow np.power
    m2 = float(np.mean(c2))
    variance = m2 * n / (n - 1)
    if m2 == 0.0:
        return Moments(mean, 0.0, math.nan, math.nan)
    m3 = float(np.mean(c2 * c))
    m4 = float(np.mean(c2 * c2))
    return Moments(mean, variance, m3 / m2 ** 1.5, m4 / (m2 * m2) - 3.0)


def run_suite(samples, suite=tuple(TESTS), alpha=0.05, bins=8,
              overwrite_input=False):
    """Run the requested subset of tests, in canonical chi2/ad/ks order.

    One sorted copy of the sample feeds every test, and AD and KS share
    one tail pass over it.  Sample-size checks run first, in canonical
    order, so the error does not depend on the order the tests compute in.
    With `overwrite_input`, a writable float64 array `samples` is sorted
    in place and is that copy: afterwards it holds the sorted sample when chi2
    alone runs, and AD and KS scratch otherwise.  A caller that owns its
    array saves one copy of the sample; the reports are the same.
    """
    if not 0 < alpha < 1:  # NaN too
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    unknown = [name for name in suite if name not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown}; expected subset of "
                         f"{sorted(TESTS)}")
    wanted = [name for name in TESTS if name in suite]
    if not wanted:
        return []
    xs = _as_sample(samples)
    n = xs.size
    if "chi2" in wanted:
        if n < 50:
            raise InsufficientSampleError(f"chi-square needs >= 50 samples, got {n}")
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        if bins > n:
            raise InsufficientSampleError(
                f"chi-square with {bins} bins needs >= {bins} samples, got {n}")
    if "ad" in wanted and n < 8:
        raise InsufficientSampleError(f"Anderson-Darling needs >= 8 samples, got {n}")
    if "ks" in wanted and n < 1:
        raise InsufficientSampleError("Kolmogorov-Smirnov needs >= 1 sample")
    ys = xs if overwrite_input and xs.flags.writeable else xs.copy()
    ys.sort()
    reports = {}
    if "chi2" in wanted:
        reports["chi2"] = _chi2(ys, alpha, bins)
    if "ad" in wanted or "ks" in wanted:
        # the sample is sorted: its positive values are a suffix
        upper = int(np.searchsorted(ys, 0.0, side="right"))
        t, log_t = _normal_tail(ys)
        if "ks" in wanted:  # before AD, which turns t into log(1 - t)
            reports["ks"] = _ks(t, upper, alpha)
        if "ad" in wanted:
            reports["ad"] = _ad(t, log_t, upper, alpha)
    return [reports[name] for name in wanted]
