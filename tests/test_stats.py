import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from mpmath import erfc as merfc, mp, mpf, ncdf
from mpmath import exp as mexp, log as mlog, sqrt as msqrt

import _fixtures
from grng import stats
from grng.stats import TestReport as Report
from grng.stats import (
    EmptySampleError,
    InsufficientSampleError,
    NonFiniteSampleError,
    anderson_darling,
    build_histogram,
    chi_square_gof,
    chi2_sf,
    kolmogorov_sf,
    kolmogorov_smirnov,
    moments,
    normal_cdf,
    normal_ppf,
    run_suite,
)

mp.dps = 50


def mp_phi(x):
    return ncdf(mpf(float(x)))


def fixed_uniforms(n, master):
    from grng.urng import splitmix64

    state = master
    out = []
    while len(out) < n:
        state, z = splitmix64(state)
        u = (z >> 11) * 2.0 ** -53
        if 0.0 < u < 1.0:
            out.append(u)
    return out


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_975_quantile(self):
        assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
        assert normal_cdf(1.959963985) == pytest.approx(
            float(mp_phi(1.959963985)), abs=1e-15)

    def test_absolute_error_bound(self):
        for x in np.linspace(-8.5, 8.5, 3001):
            assert abs(normal_cdf(float(x)) - float(mp_phi(x))) <= 1e-12

    def test_symmetry(self):
        for u in fixed_uniforms(10_000, 1):
            x = 12.0 * (u - 0.5)
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-10, 10, 2001)
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def ulp_gap(a, b):
    """Distance in units in the last place between nonnegative doubles."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))


# fdlibm's erfc cut points, each with its neighbours one ulp away
_CUT_NEIGHBOURS = [math.nextafter(c, d) for c in stats._ERFC_CUTS
                   for d in (0.0, c, math.inf)]


class TestErfc:
    """`_erfc_sorted`, the numpy port of fdlibm's erfc, against mpmath."""

    @staticmethod
    def _ulp_errors(xs):
        x = np.sort(np.asarray(xs, dtype=np.float64))
        got = stats._erfc_sorted(x.copy(), np.empty(x.size))
        want = [merfc(mpf(float(v))) for v in x]
        return [abs(mpf(float(g)) - w) / math.ulp(float(w))
                for g, w in zip(got, want)]

    def test_special_points_and_cuts(self):
        xs = [0.0, math.ulp(0.0)] + _CUT_NEIGHBOURS
        assert max(self._ulp_errors(xs)) <= 4

    def test_spread_over_normal_range(self):
        # erfc stays a normal double up to about 26.5
        rng = np.random.default_rng(11)
        xs = np.concatenate((np.linspace(0.0, 26.5, 1501),
                             rng.uniform(0.0, 26.5, 1500)))
        assert max(self._ulp_errors(xs)) <= 4

    def test_negatives_read_as_their_magnitude(self):
        half = np.linspace(0.0, 30.0, 3001)
        x = np.concatenate((-half[::-1], half))
        got = stats._erfc_sorted(x.copy(), np.empty(x.size))
        assert np.array_equal(got, got[::-1])
        assert np.array_equal(got[3001:], stats._erfc_sorted(
            half.copy(), np.empty(half.size)))


_TAIL_CUTS = [s * c * math.sqrt(2.0) for c in _CUT_NEIGHBOURS
              for s in (1.0, -1.0)] + [36.0, -36.0, 0.0, -0.0]
_TAIL_VALUES = st_.one_of(st_.floats(-45.0, 45.0), st_.sampled_from(_TAIL_CUTS))


class TestNormalTail:
    @settings(max_examples=200, deadline=None)
    @given(xs=st_.one_of(
        st_.lists(_TAIL_VALUES, min_size=1, max_size=60),
        st_.lists(_TAIL_VALUES.map(abs), min_size=1, max_size=30),
        st_.lists(_TAIL_VALUES.map(lambda v: -abs(v)), min_size=1,
                  max_size=30)))
    @example(xs=[0.0])
    @example(xs=[-0.0])
    @example(xs=[-0.0, 0.0, -0.0])
    @example(xs=[-3.0, -1.0, -0.5])
    @example(xs=[0.5, 1.0, 3.0])
    @example(xs=_TAIL_CUTS)
    def test_matches_scalar_erfc(self, xs):
        ys = np.sort(np.array(xs, dtype=np.float64))
        t, log_t = stats._normal_tail(ys.copy())
        want = [0.5 * math.erfc(abs(y) / math.sqrt(2.0)) for y in ys]
        # the port and glibc's erfc (math.erfc on Linux) each err by up to
        # 2.4 and 3.5 ulp against mpmath on [0.84375, 1.25), so they may lie
        # 5 ulp apart; 4 ulp is the bound against the oracle above
        assert ulp_gap(t, want).max() <= 6
        near = np.abs(ys) < 36.0
        assert np.array_equal(log_t[near], np.log(t[near]))
        assert np.isfinite(log_t).all()


class TestNormalPpf:
    def test_round_trip(self):
        for p in [1e-12, 1e-6, 0.025, 0.5, 0.975, 1 - 1e-6, 1 - 1e-12]:
            assert normal_cdf(normal_ppf(p)) == pytest.approx(p, rel=1e-12)

    def test_against_oracle(self):
        from mpmath import erfinv

        for p in (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
            want = float(msqrt(2) * erfinv(2 * mpf(repr(p)) - 1))
            assert normal_ppf(p) == pytest.approx(want, abs=1e-14, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)
        with pytest.raises(ValueError):
            normal_ppf(1.0)

    @pytest.mark.parametrize("p, want", [
        (1 / 8, "-0x1.267d4c07b0566p+0"),
        (2 / 8, "-0x1.5956b87528a49p-1"),
        (3 / 8, "-0x1.464965bdc7eafp-2"),
        (4 / 8, "0x0.0p+0"),
        (5 / 8, "0x1.464965bdc7eafp-2"),
        (6 / 8, "0x1.5956b87528a49p-1"),
        (7 / 8, "0x1.267d4c07b0566p+0"),
        (1e-300, "-0x1.286074064c26ep+5"),
        (1e-12, "-0x1.c234fba57a32ap+2"),
        (0.02, "-0x1.06e13e8aadfdbp+1"),
        (0.93, "0x1.79cd70d9c27f3p+0"),
        (1 - 1e-12, "0x1.c2350895b2ea4p+2"),
    ])
    def test_bits_pinned(self, p, want):
        # the chi-square cut points i/8 and one p in each AS241 branch:
        # the chi-square statistic depends on these exact bits
        assert normal_ppf(p).hex() == want


class TestChi2Sf:
    def test_against_oracle(self):
        from mpmath import gammainc, inf

        for df in (1, 3, 7, 9, 50):
            for x in (0.05, 1.0, 4.929, 9.9094, 14.067, 40.0):
                want = float(gammainc(mpf(df) / 2, mpf(repr(x)) / 2, inf,
                                      regularized=True))
                assert chi2_sf(x, df) == pytest.approx(want, rel=1e-12)

    def test_edges(self):
        assert chi2_sf(0.0, 7) == 1.0
        assert chi2_sf(1e4, 7) < 1e-300

    @pytest.mark.parametrize("df", [999, 9999, 99999])
    def test_against_oracle_large_df(self, df):
        # the sum runs to df//2 terms: any cap on the term count fails here
        from mpmath import gammainc, inf

        for ratio in (0.98, 1.0, 1.02):
            x = ratio * df
            want = float(gammainc(mpf(df) / 2, mpf(repr(x)) / 2, inf,
                                  regularized=True))
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("df", [0, 2.5])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError):
            chi2_sf(1.0, df)


class TestKolmogorovSf:
    def test_against_series_oracle_both_branches(self):
        def oracle(lam):
            lam = mpf(repr(lam))
            total = mpf(0)
            for j in range(1, 200):
                total += (-1) ** (j - 1) * mexp(-2 * j * j * lam * lam)
            return float(2 * total)

        for lam in (0.3, 0.5, 0.9, 1.17, 1.18, 1.3, 1.36, 2.0, 2.5):
            assert kolmogorov_sf(lam) == pytest.approx(oracle(lam),
                                                       abs=1e-12, rel=1e-9)

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80


class TestAndersonDarlingSf:
    def test_critical_value(self):
        # case-0 upper 5% point of the asymptotic A^2 law
        assert stats.anderson_darling_sf(2.492) == pytest.approx(0.05, abs=5e-4)

    def test_monotone_decreasing(self):
        zs = np.linspace(0.01, 8.0, 500)
        vals = [stats.anderson_darling_sf(float(z)) for z in zs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        assert stats.anderson_darling_sf(0.0) == 1.0
        assert stats.anderson_darling_sf(math.inf) == 0.0


class TestHistogram:
    def test_single_sample(self):
        h = build_histogram([0.0], bins=1)
        assert list(h.counts) == [1]
        assert h.total == 1

    def test_boundary_rule(self):
        h = build_histogram([-1.0, 0.0, 1.0], bins=2, range=(-1.0, 1.0))
        assert list(h.counts) == [1, 2]

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            build_histogram([], bins=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteSampleError):
            build_histogram([0.0, bad, 1.0], bins=4)

    def test_bad_bins_and_range(self):
        with pytest.raises(ValueError):
            build_histogram([1.0], bins=0)
        with pytest.raises(ValueError):
            build_histogram([1.0], bins=2, range=(1.0, 1.0))

    def test_counts_sum_and_edges_sorted(self):
        xs = fixed_uniforms(5000, 7)
        h = build_histogram(xs, bins=37)
        assert h.total == h.counts.sum() == 5000
        assert (np.diff(h.bin_edges) > 0).all()

    def test_bin_masses_match_normal_cdf(self):
        n = 200_000
        us = fixed_uniforms(n, 13)
        xs = [normal_ppf(u) for u in us]
        h = build_histogram(xs, bins=100, range=(-5.0, 5.0))
        for lo, hi, c in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts):
            p = normal_cdf(float(hi)) - normal_cdf(float(lo))
            band = 5.0 * math.sqrt(n * p * (1 - p)) + 1.0
            assert abs(c - n * p) <= band

    def test_csv_export(self):
        h = build_histogram([-1.0, 0.0, 1.0], bins=2, range=(-1.0, 1.0))
        text = io.StringIO()
        h.to_csv(text)
        lines = text.getvalue().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert lines[1] == "-1.0,0.0,1"
        assert lines[2] == "0.0,1.0,2"


def chi2_oracle(samples, bins=8):
    """Extended-precision chi-square statistic with mp-exact bin cuts."""
    from mpmath import erfinv

    cuts = [msqrt(2) * erfinv(2 * mpf(i) / bins - 1) for i in range(1, bins)]
    counts = [0] * bins
    for x in samples:
        xm = mpf(float(x))
        idx = sum(1 for c in cuts if xm >= c)
        counts[idx] += 1
    n = mpf(len(samples))
    e = n / bins
    return float(sum((mpf(c) - e) ** 2 / e for c in counts))


def ad_oracle(samples):
    ys = sorted(float(x) for x in samples)
    n = len(ys)
    total = mpf(0)
    for i in range(1, n + 1):
        total += (2 * i - 1) * (mlog(mp_phi(ys[i - 1]))
                                + mlog(mp_phi(-ys[n - i])))
    return float(-n - total / n)


def ks_oracle(samples):
    ys = sorted(float(x) for x in samples)
    n = len(ys)
    d = mpf(0)
    for i in range(1, n + 1):
        phi = mp_phi(ys[i - 1])
        d = max(d, mpf(i) / n - phi, phi - mpf(i - 1) / n)
    lam = (msqrt(n) + mpf("0.12") + mpf("0.11") / msqrt(n)) * d
    total = mpf(0)
    for j in range(1, 200):
        total += (-1) ** (j - 1) * mexp(-2 * j * j * lam * lam)
    return float(d), float(2 * total)


class TestChiSquare:
    def test_exact_match_gives_zero_statistic(self):
        # eight samples in each equal-probability bin: observed == expected
        mids = [normal_ppf((2 * i + 1) / 16) for i in range(8)]
        xs = mids * 8
        rep = chi_square_gof(xs)
        assert rep.statistic == 0.0
        assert not rep.rejected

    def test_fixture_matches_extended_precision_oracle(self):
        rep = chi_square_gof(_fixtures.CHI2_FIXTURE)
        want = chi2_oracle(_fixtures.CHI2_FIXTURE)
        assert rep.statistic == pytest.approx(want, rel=1e-9)

    def test_p_value_consistent_with_sf(self):
        rep = chi_square_gof(_fixtures.CHI2_FIXTURE)
        assert rep.p_value == pytest.approx(chi2_sf(rep.statistic, 7), rel=1e-12)
        assert rep.rejected == (rep.p_value < rep.alpha)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            chi_square_gof([0.1] * 49)

    def test_more_bins_than_samples_refused_before_the_cuts(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(60, 31)]
        assert chi_square_gof(xs, bins=60).statistic >= 0.0
        # 10^10 bins would take 5 x 10^9 quantiles; the size check comes first
        for bins in (61, 10 ** 10):
            with pytest.raises(InsufficientSampleError,
                               match=f"{bins} bins needs >= {bins} samples, got 60"):
                run_suite(xs, bins=bins)
        assert len(run_suite(xs, suite=("ad", "ks"), bins=10 ** 10)) == 2
        # the library's own guard, as the CLI refuses --bins 1 while parsing
        with pytest.raises(ValueError, match="bins must be >= 2, got 1"):
            run_suite(xs, bins=1)
        # the sample-count check of chi2 comes first, as in canonical order
        with pytest.raises(InsufficientSampleError, match="needs >= 50 samples"):
            chi_square_gof(xs[:10], bins=10 ** 10)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            chi_square_gof([0.0] * 60 + [math.nan])

    def test_statistic_nonnegative(self):
        xs = fixed_uniforms(500, 17)
        assert chi_square_gof([normal_ppf(u) for u in xs]).statistic >= 0.0

    def test_permutation_invariance(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(300, 19)]
        shuffled = list(reversed(xs))
        assert chi_square_gof(xs).statistic == chi_square_gof(shuffled).statistic


class TestAndersonDarling:
    def test_negation_symmetry(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(200, 23)]
        a = anderson_darling(xs).statistic
        b = anderson_darling([-x for x in xs]).statistic
        assert a == pytest.approx(b, rel=1e-12)

    def test_fixture_matches_extended_precision_oracle(self):
        rep = anderson_darling(_fixtures.AD_FIXTURE)
        assert rep.statistic == pytest.approx(ad_oracle(_fixtures.AD_FIXTURE),
                                              rel=1e-9)

    @pytest.mark.parametrize("outliers", [(37.0,), (-40.0, 50.0),
                                          (-200.0, 1000.0)])
    def test_far_tail_matches_extended_precision_oracle(self, outliers):
        # |y| > 36 takes the asymptotic tail series
        xs = [normal_ppf(u) for u in fixed_uniforms(200, 59)] + list(outliers)
        rep = anderson_darling(xs)
        assert rep.statistic == pytest.approx(ad_oracle(xs), rel=1e-9)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            anderson_darling([0.1] * 7)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            anderson_darling([0.0] * 9 + [math.inf])

    def test_permutation_invariance(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(100, 29)]
        assert anderson_darling(xs).statistic == \
            anderson_darling(list(reversed(xs))).statistic


class TestKolmogorovSmirnov:
    def test_equioscillating_sample(self):
        # x_i at the (i - 1/2)/n normal quantiles force D = 1/(2n); float
        # rounding of Phi can shift the result by ~1 ulp, nothing more
        n = 16
        xs = [normal_ppf((2 * i - 1) / (2 * n)) for i in range(1, n + 1)]
        rep = kolmogorov_smirnov(xs)
        assert abs(rep.statistic - 1 / (2 * n)) <= 1e-15

    def test_fixture_matches_extended_precision_oracle(self):
        rep = kolmogorov_smirnov(_fixtures.KS_FIXTURE)
        d_want, p_want = ks_oracle(_fixtures.KS_FIXTURE)
        assert rep.statistic == pytest.approx(d_want, rel=1e-9)
        assert rep.p_value == pytest.approx(p_want, abs=1e-6)

    def test_d_bounds(self):
        for seed in (31, 37, 41):
            xs = [normal_ppf(u) for u in fixed_uniforms(64, seed)]
            d = kolmogorov_smirnov(xs).statistic
            assert 1 / (2 * len(xs)) <= d <= 1.0

    def test_single_sample_allowed(self):
        rep = kolmogorov_smirnov([0.0])
        assert rep.statistic == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            kolmogorov_smirnov([math.nan])

    def test_permutation_invariance(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(128, 43)]
        assert kolmogorov_smirnov(xs).statistic == \
            kolmogorov_smirnov(list(reversed(xs))).statistic


class TestMoments:
    def test_two_point_sample(self):
        m = moments([-1.0, 1.0])
        assert m.mean == 0.0
        assert m.variance == 2.0

    def test_degenerate_sample(self):
        m = moments([1.0, 1.0, 1.0, 1.0])
        assert m.variance == 0.0
        assert math.isnan(m.skewness) and math.isnan(m.excess_kurtosis)

    def test_fixture_matches_extended_precision_oracle(self):
        xs = _fixtures.MOMENTS_FIXTURE
        n = len(xs)
        mean = sum(mpf(x) for x in xs) / n
        m2 = sum((mpf(x) - mean) ** 2 for x in xs) / n
        m3 = sum((mpf(x) - mean) ** 3 for x in xs) / n
        m4 = sum((mpf(x) - mean) ** 4 for x in xs) / n
        got = moments(xs)
        assert got.mean == pytest.approx(float(mean), rel=1e-12)
        assert got.variance == pytest.approx(float(m2 * n / (n - 1)), rel=1e-12)
        assert got.skewness == pytest.approx(float(m3 / m2 ** mpf("1.5")),
                                             rel=1e-12)
        assert got.excess_kurtosis == pytest.approx(float(m4 / m2 ** 2 - 3),
                                                    rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientSampleError):
            moments([1.0])


class TestReportSemantics:
    def test_rejected_iff_p_below_alpha(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(400, 47)]
        for rep in run_suite(xs):
            assert rep.rejected == (rep.p_value < rep.alpha)

    def test_p_display_underflow(self):
        rep = Report("ad", 1e6, 0.0, rejected=True)
        assert rep.p_display == "< 1e-300"
        assert Report("ks", 0.1, 0.25, rejected=False).p_display == "0.25"

    def test_serialization_keys(self):
        rep = Report("chi2", 1.5, 0.9, rejected=False, alpha=0.05)
        doc = rep.to_dict()
        assert set(doc) == {"test", "statistic", "p_value", "alpha", "rejected"}
        json.dumps(doc)

    def test_run_suite_subset_and_order(self):
        xs = [normal_ppf(u) for u in fixed_uniforms(400, 53)]
        reports = run_suite(xs, suite=("ks", "chi2"))
        assert [r.test_name for r in reports] == ["chi2", "ks"]
        with pytest.raises(ValueError):
            run_suite(xs, suite=("chi2", "cvm"))
        assert run_suite(xs, suite=()) == []
        # alpha outside (0, 1) would reject every test, and NaN none
        for alpha in (0, 1, 7.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be in"):
                run_suite(xs, alpha=alpha)


def test_run_suite_holds_one_sorted_copy_and_its_tail():
    """Past the sorted copy and the tail, the battery's scratch is bounded:
    the memory peak stays below 2.6 times the sample's own bytes."""
    xs = np.random.default_rng(7).standard_normal(1 << 20)
    tracemalloc.start()
    try:
        run_suite(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * xs.nbytes, peak / xs.nbytes


class TestBatteryBehavior:
    def test_trusted_normal_sampler_rarely_rejected(self):
        # false-positive control: >= 18 of 20 fixed-seed reference runs pass
        n = 1_000_000
        ok = 0
        for seed in range(20):
            xs = np.random.default_rng(10_000 + seed).standard_normal(n)
            reports = run_suite(xs)
            ok += all(not r.rejected for r in reports)
        assert ok >= 18

    def test_uniform_samples_always_rejected_by_ks_and_ad(self):
        for seed in range(20):
            xs = np.random.default_rng(20_000 + seed).random(10_000)
            assert kolmogorov_smirnov(xs).rejected
            assert anderson_darling(xs).rejected


def _streamed(algo, mode, master, k=2):
    from grng import transforms

    return transforms.stream(algo, _fixtures.make_sources(master, k), 100_000,
                             mode=mode, clt=transforms.CltConfig(k=k)).values


def _normals(n, master):
    return [normal_ppf(u) for u in fixed_uniforms(n, master)]


_GATE_SAMPLES = {
    "box-muller-reference": lambda: _streamed("box-muller", "reference", 71),
    "polar-pipeline": lambda: _streamed("polar", "pipeline", 73),
    "clt12-pipeline": lambda: _streamed("clt", "pipeline", 79, k=12),
    "n8": lambda: _normals(8, 83),
    "n50": lambda: _normals(50, 89),
    # 0.0 and every cut point: a value equal to a cut belongs to the bin above
    "ties": lambda: ([0.0] + [normal_ppf(i / 8) for i in range(1, 8)] * 7
                     + _normals(13, 97)),
    # |y| >= 36 takes the asymptotic tail series
    "far": lambda: _normals(200, 101) + [36.0, -36.0, 40.0, -40.0],
}

# float.hex of (statistic, p-value) per test; None where chi2 needs n >= 50
_GATE_PINNED = {
    "box-muller-reference": {
        "chi2": ("0x1.d74927913e814p+2", "0x1.9169a3fd15944p-2"),
        "ad": ("0x1.85cf243100000p-1", "0x1.04ff5fdbe0420p-1"),
        "ks": ("0x1.26acbf8703f00p-9", "0x1.628f734523c6cp-1")},
    "polar-pipeline": {
        "chi2": ("0x1.e89ca18bd6628p+2", "0x1.76b3189db067cp-2"),
        "ad": ("0x1.9c08fbdc80000p+0", "0x1.38079e0755378p-3"),
        "ks": ("0x1.a9a3acd53dd00p-9", "0x1.ef5dc6c5c3be0p-3")},
    "clt12-pipeline": {
        "chi2": ("0x1.5599ed7c6fbd2p+3", "0x1.3a3c30f71031ap-3"),
        "ad": ("0x1.0bb1407758000p+1", "0x1.4f5236b13c1c8p-4"),
        "ks": ("0x1.244e8dc725d00p-8", "0x1.3198634950757p-5")},
    "n8": {
        "chi2": None,
        "ad": ("0x1.4d8344a3b93f0p+0", "0x1.da028fccfd99cp-3"),
        "ks": ("0x1.34252061df752p-2", "0x1.93a3a138ac7d4p-2")},
    "n50": {
        "chi2": ("0x1.d1eb851eb851ep+2", "0x1.99ed885a2f883p-2"),
        "ad": ("0x1.a24b2f6a01200p-1", "0x1.e0353d4fb357ap-2"),
        "ks": ("0x1.b8dfd77c1c1c9p-4", "0x1.2b1675c8e2b04p-1")},
    "ties": {
        "chi2": ("0x1.3861861861862p+3", "0x1.9ea9d8d46aad1p-3"),
        "ad": ("0x1.4391b4a3f65c0p+0", "0x1.f48bc259c7384p-3"),
        "ks": ("0x1.0000000000002p-3", "0x1.0ad8d2d58b394p-2")},
    "far": {
        "chi2": ("0x1.a0a0a0a0a0a0ap+2", "0x1.ed31aa19935cap-2"),
        "ad": ("0x1.d45d9900dfb10p+4", "0x0.0p+0"),
        "ks": ("0x1.21a2924b615e8p-4", "0x1.00327463410aep-2")},
}

_SUITES = [subset for r in (1, 2, 3)
           for subset in itertools.combinations(("chi2", "ad", "ks"), r)]


class TestBatteryGate:
    """Every statistic and p-value of `run_suite`, pinned bit for bit."""

    @pytest.fixture(scope="class")
    def samples(self):
        return {name: make() for name, make in _GATE_SAMPLES.items()}

    @pytest.mark.parametrize("suite", _SUITES, ids="+".join)
    @pytest.mark.parametrize("case", sorted(_GATE_PINNED))
    def test_reports_pinned(self, samples, case, suite):
        pinned = _GATE_PINNED[case]
        if "chi2" in suite and pinned["chi2"] is None:
            with pytest.raises(InsufficientSampleError):
                run_suite(samples[case], suite=suite)
            return
        reports = run_suite(samples[case], suite=suite)
        assert [r.test_name for r in reports] == list(suite)
        assert [(r.statistic.hex(), r.p_value.hex()) for r in reports] == \
            [pinned[name] for name in suite]


@pytest.mark.parametrize("suite", _SUITES, ids="+".join)
def test_run_suite_may_sort_its_input_in_place(suite):
    """With overwrite_input the battery sorts its input in place and gives
    the default's reports bit for bit, holding the tail but no copy: a
    peak below 1.6 times the sample's bytes.  chi2 alone leaves the input
    sorted; the default leaves it untouched."""
    xs = np.random.default_rng(7).standard_normal(1 << 20)
    before = xs.tobytes()
    want = run_suite(xs, suite=suite)
    assert xs.tobytes() == before
    tracemalloc.start()
    try:
        got = run_suite(xs, suite=suite, overwrite_input=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.test_name, r.statistic.hex(), r.p_value.hex(), r.rejected)
            for r in got] == \
        [(r.test_name, r.statistic.hex(), r.p_value.hex(), r.rejected)
         for r in want]
    assert peak <= 1.6 * xs.nbytes, peak / xs.nbytes
    if suite == ("chi2",):
        assert xs.tobytes() == np.sort(np.frombuffer(before)).tobytes()


_SUITE_ORDERS = [order for r in (1, 2, 3)
                 for order in itertools.permutations(("chi2", "ad", "ks"), r)]


def _expected_error(xs):
    """The error each single test raises on xs, None where it runs."""
    n = len(xs)
    if any(math.isnan(x) for x in xs):
        error = (NonFiniteSampleError, "sample contains non-finite values")
        return dict.fromkeys(("chi2", "ad", "ks"), error)
    return {
        "chi2": (InsufficientSampleError,
                 f"chi-square needs >= 50 samples, got {n}") if n < 50 else None,
        "ad": (InsufficientSampleError,
               f"Anderson-Darling needs >= 8 samples, got {n}") if n < 8 else None,
        "ks": (InsufficientSampleError,
               "Kolmogorov-Smirnov needs >= 1 sample") if n < 1 else None,
    }


class TestRunSuiteProperties:
    SINGLE = {"chi2": chi_square_gof, "ad": anderson_darling,
              "ks": kolmogorov_smirnov}

    @settings(max_examples=150, deadline=None)
    @given(xs=st_.one_of(
               st_.lists(st_.floats(-45.0, 45.0), max_size=120),
               st_.lists(st_.floats(-45.0, 45.0), min_size=1, max_size=60).map(
                   lambda v: v[:len(v) // 2] + [math.nan] + v[len(v) // 2:])),
           suite=st_.sampled_from(_SUITE_ORDERS), bins=st_.sampled_from([2, 7, 8]))
    def test_matches_single_tests(self, xs, suite, bins):
        # one shared sort and tail pass gives the public tests' bits and
        # errors; the first failing test in chi2/ad/ks order decides the error
        arr = np.array(xs, dtype=np.float64)
        arr.flags.writeable = False
        before = arr.tobytes()
        errors = _expected_error(xs)
        first = next((errors[name] for name in ("chi2", "ad", "ks")
                      if name in suite and errors[name]), None)
        if first:
            with pytest.raises(first[0]) as info:
                run_suite(arr, suite=suite, bins=bins)
            assert str(info.value) == first[1]
        else:
            got = run_suite(arr, suite=suite, bins=bins)
            want = [chi_square_gof(xs, bins=bins) if name == "chi2"
                    else self.SINGLE[name](xs)
                    for name in ("chi2", "ad", "ks") if name in suite]
            assert [(r.test_name, r.statistic.hex(), r.p_value.hex(), r.rejected)
                    for r in got] == \
                [(r.test_name, r.statistic.hex(), r.p_value.hex(), r.rejected)
                 for r in want]
        for name in suite:
            if errors[name]:
                with pytest.raises(errors[name][0]) as info:
                    self.SINGLE[name](arr)
                assert str(info.value) == errors[name][1]
        assert arr.tobytes() == before
