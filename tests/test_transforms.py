import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import cos as mcos, log as mlog, sin as msin, sqrt as msqrt

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


def ulps(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(abs(b) if b != 0 else abs(a))


def make_sources(master, count, order=32):
    seeds = urng.derive_seeds(master, count, order)
    return [
        urng.new_lfsr(urng.LfsrConfig(order=order, taps=urng.DEFAULT_POLYNOMIAL,
                                      seed=s))
        for s in seeds
    ]


def fixed_uniform_pairs(n, master, cond=lambda a, b: True):
    state = master
    out = []
    while len(out) < n:
        state, z1 = urng.splitmix64(state)
        state, z2 = urng.splitmix64(state)
        u1 = (z1 >> 11) * 2.0 ** -53
        u2 = (z2 >> 11) * 2.0 ** -53
        if 0.0 < u1 < 1.0 and 0.0 < u2 < 1.0 and cond(u1, u2):
            out.append((u1, u2))
    return out


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
        for u1, u2 in fixed_uniform_pairs(500, 101):
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
        for u1, u2 in fixed_uniform_pairs(300, 202,
                                          lambda a, b: polar_draw(a, b).accepted):
            d = polar_draw(u1, u2)
            g = polar(u1, u2)
            if d.v2 != 0.0:
                assert g.alpha / g.beta == pytest.approx(d.v1 / d.v2, rel=1e-12)

    def test_acceptance_fraction_matches_disk_area(self):
        n = 100_000
        accepted = sum(polar_draw(u1, u2).accepted
                       for u1, u2 in fixed_uniform_pairs(n, 303))
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

    def test_source_arity_checked(self):
        with pytest.raises(ValueError):
            stream("box-muller", make_sources(1, 3), 10)
        for mode in ("reference", "pipeline"):
            with pytest.raises(LengthMismatchError):
                stream("clt", make_sources(1, 5), 10, mode=mode,
                       clt=CltConfig(k=12))

    def test_moments_sane_at_medium_n(self):
        res = stream("box-muller", make_sources(21, 2), 200_000)
        assert abs(res.values.mean()) < 0.01
        assert abs(res.values.var() - 1.0) < 0.02
