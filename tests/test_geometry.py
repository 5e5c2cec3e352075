"""Orbit geometry, path loss, link budget, constellation sizing."""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inaclink import (
    LinkBudget,
    OrbitGeometry,
    RfParams,
    ScenarioConfig,
    coverage_area,
    geocentric_angle,
    link_budget,
    min_satellites,
    noise_power_watts,
    slant_range,
)
from inaclink import geometry
from inaclink.errors import InfeasibleError
from inaclink.geometry import (
    SPEED_OF_LIGHT,
    large_scale_gain_ris_user,
    large_scale_gain_satellite,
)

R_E = 6378e3
R_M = 20000e3


def default_geom(elevation=math.pi / 10):
    return OrbitGeometry(r_e=R_E, r_m=R_M, elevation=elevation)


def default_rf():
    return RfParams(f_c=10e9, g_t=10.0**3.2, alpha1=2.0, alpha2=2.2, d_ru=10.0)


class TestSlantRange:
    def test_reference_values(self):
        assert slant_range(default_geom()) == pytest.approx(23700172.32498419, rel=1e-12)
        assert slant_range(default_geom(0.0)) == pytest.approx(25595312.070767958, rel=1e-12)

    def test_zenith_equals_orbit_height(self):
        # directly overhead the path is exactly the satellite height
        assert slant_range(default_geom(math.pi / 2)) == pytest.approx(R_M, rel=1e-14)

    def test_decreases_with_elevation(self):
        elevations = np.linspace(0.0, math.pi / 2, 20)
        d = [slant_range(default_geom(float(e))) for e in elevations]
        assert all(a > b for a, b in zip(d, d[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            OrbitGeometry(r_e=R_E, r_m=R_M, elevation=-0.1)
        with pytest.raises(ValueError):
            OrbitGeometry(r_e=R_E, r_m=R_M, elevation=math.pi / 2 + 0.1)
        with pytest.raises(ValueError):
            OrbitGeometry(r_e=0.0, r_m=R_M, elevation=0.5)
        with pytest.raises(ValueError):
            OrbitGeometry(r_e=R_E, r_m=0.0, elevation=0.5)


class TestPathLoss:
    def test_satellite_gain_formula(self):
        rf = default_rf()
        d = 1.0
        expected = rf.g_t * (SPEED_OF_LIGHT / (4.0 * math.pi * rf.f_c)) ** 2
        assert large_scale_gain_satellite(d, rf) == pytest.approx(expected, rel=1e-14)

    def test_satellite_power_law(self):
        rf = default_rf()
        ratio = large_scale_gain_satellite(2e6, rf) / large_scale_gain_satellite(1e6, rf)
        assert ratio == pytest.approx(2.0 ** -rf.alpha1, rel=1e-13)

    def test_ris_user_gain_value(self):
        assert large_scale_gain_ris_user(default_rf()) == pytest.approx(3.591051866596426e-08, rel=1e-12)

    def test_ris_user_power_law(self):
        rf = default_rf()
        rf2 = RfParams(f_c=10e9, g_t=10.0**3.2, alpha1=2.0, alpha2=2.2, d_ru=20.0)
        assert large_scale_gain_ris_user(rf2) / large_scale_gain_ris_user(rf) == pytest.approx(
            2.0**-2.2, rel=1e-13
        )

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            large_scale_gain_satellite(0.0, default_rf())
        with pytest.raises(ValueError):
            large_scale_gain_satellite(-1.0, default_rf())
        with pytest.raises(ValueError):
            large_scale_gain_satellite(math.nan, default_rf())


class TestNoisePower:
    def test_reference_value(self):
        # -174 dBm/Hz density over 30 MHz
        assert noise_power_watts(30e6) == pytest.approx(1.194321511660491e-13, rel=1e-12)

    def test_linear_in_bandwidth(self):
        assert noise_power_watts(60e6) == pytest.approx(2.0 * noise_power_watts(30e6), rel=1e-13)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            noise_power_watts(0.0)
        with pytest.raises(ValueError):
            noise_power_watts(math.nan)


class TestLinkBudget:
    # 46 dBm transmitter, 30 dB spreading gain, 30 MHz bandwidth
    P_46_DBM = 10.0 ** (46.0 / 10.0) * 1e-3

    def budget(self, p=None):
        return link_budget(default_geom(), default_rf(), self.P_46_DBM if p is None else p, 1e3, 30e6)

    def test_reference_gamma(self):
        assert self.budget().gamma == pytest.approx(2.2958332851843395e-20, rel=1e-12)

    def test_transmit_snr(self):
        b = self.budget()
        assert b.gamma / b.noise_power == pytest.approx(1.92229082602087e-07, rel=1e-9)

    def test_gamma_linear_in_power(self):
        assert self.budget(2.0).gamma == pytest.approx(2.0 * self.budget(1.0).gamma, rel=1e-13)

    #: a positive double m 2^e, subnormal to near the largest
    POSITIVE = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1070, 1023))

    @settings(max_examples=300)
    @given(p=POSITIVE, g_sp=POSITIVE, g_t=st.floats(1.0, 1e6), d_ru=st.floats(1.0, 1e4))
    @example(p=10.0 ** (-3100 / 10) * 1e-3, g_sp=10.0 ** (600 / 10), g_t=10.0**3.2, d_ru=10.0)
    def test_gamma_is_the_product_of_the_four_gains(self, p, g_sp, g_t, d_ru):
        geom, rf = default_geom(), RfParams(f_c=10e9, g_t=g_t, alpha1=2.0, alpha2=2.2, d_ru=d_ru)
        factors = [large_scale_gain_satellite(slant_range(geom), rf), large_scale_gain_ris_user(rf), p, g_sp]
        exact = math.prod(map(Fraction, factors))
        assume(2.0**-1022 <= exact <= math.ldexp(1.0, 1023))  # the product is a normal double
        gamma = link_budget(geom, rf, p, g_sp, 30e6).gamma
        partials = list(itertools.accumulate(factors, operator.mul))[1:]
        if all(2.0**-1022 <= x < math.inf for x in partials):
            assert gamma == partials[-1]  # the left-to-right product, bit for bit
        else:
            # three roundings, each within 2^-53 relative, stay under 3 ulp of
            # a result in [2^e, 2^(e+1)); 2 ulp is not a bound (2.02 ulp is reached)
            assert abs(Fraction(gamma) - exact) < 3 * Fraction(math.ulp(gamma))

    def test_a_partial_product_under_the_normal_range_is_scaled_back(self):
        # 600 dB of spread gain restores what -3100 dBm takes away: the left-to-right
        # product underflows to 0 at p times the path gains
        cfg = ScenarioConfig(spread_gain_db=600, tx_power_dbm=-3100)
        assert cfg.validate().link().gamma == 5.766872478139238e-278

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(gamma=0.0, noise_power=1e-13)
        with pytest.raises(ValueError):
            LinkBudget(gamma=1e-20, noise_power=-1.0)
        with pytest.raises(ValueError):
            link_budget(default_geom(), default_rf(), 0.0, 1e3, 30e6)
        with pytest.raises(ValueError):
            link_budget(default_geom(), default_rf(), math.nan, 1e3, 30e6)
        with pytest.raises(ValueError):
            link_budget(default_geom(), default_rf(), 1.0, math.nan, 30e6)

    def test_transmit_gain_floor(self):
        with pytest.raises(ValueError):
            RfParams(f_c=10e9, g_t=0.5, alpha1=2.0, alpha2=2.2, d_ru=10.0)


class TestFixedTerms:
    """link_budget works out what the orbit, the RF and the bandwidth fix once per distinct key."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {name: 0 for name in ("slant_range", "large_scale_gain_satellite", "large_scale_gain_ris_user")}
        for name in calls:
            original = getattr(geometry, name)

            def count(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(geometry, name, count)
        geometry._fixed_terms.cache_clear()
        return calls

    def test_a_power_grid_works_the_orbit_and_rf_out_once(self, counted):
        cfg = ScenarioConfig()
        scenarios = [point.scenario() for point in cfg.grid_points("sweep_tx_power_dbm")]
        assert len(scenarios) == 13
        assert counted == {"slant_range": 1, "large_scale_gain_satellite": 1, "large_scale_gain_ris_user": 1}

    def test_a_build_that_raises_keeps_nothing(self, counted):
        for _ in range(2):
            with pytest.raises(ValueError, match="bandwidth"):
                link_budget(default_geom(), default_rf(), 1.0, 1e3, 0.0)
        assert geometry._fixed_terms.cache_info().currsize == 0
        assert counted["slant_range"] == 2

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_zero_elevation_of_either_sign_gives_the_same_bits(self, counted, first):
        # 0.0 and -0.0 share a key; the entry the first fills serves the other
        p = 10.0 ** (46.0 / 10.0) * 1e-3
        filled, served = (link_budget(default_geom(e), default_rf(), p, 1e3, 30e6).gamma for e in (first, -first))
        assert counted["slant_range"] == 1
        geometry._fixed_terms.cache_clear()
        fresh = link_budget(default_geom(-first), default_rf(), p, 1e3, 30e6).gamma
        assert filled.hex() == served.hex() == fresh.hex()


class TestConstellation:
    def geom(self, r_m_km, elev_deg):
        return OrbitGeometry(r_e=R_E, r_m=r_m_km * 1e3, elevation=math.radians(elev_deg))

    def test_geocentric_angle_reference(self):
        assert geocentric_angle(default_geom()) == pytest.approx(1.0246022885145758, rel=1e-12)

    def test_coverage_area_identity(self):
        g = self.geom(8000, 30)
        ups = geocentric_angle(g)
        assert coverage_area(g) == pytest.approx(2.0 * math.pi * R_E**2 * (1.0 - math.cos(ups)), rel=1e-13)

    def test_min_satellites_reference_values(self):
        assert min_satellites(self.geom(500, 75)) == 10597
        assert min_satellites(self.geom(20000, 18)) == 5
        assert min_satellites(self.geom(20000, 75)) == 102
        assert min_satellites(self.geom(500, 5)) == 44
        assert min_satellites(self.geom(8000, 45)) == 19

    def test_monotone_in_height(self):
        # higher orbit covers more ground, needs fewer satellites
        counts = [min_satellites(self.geom(r, 45)) for r in (500, 1000, 2000, 8000, 20000)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_monotone_in_elevation_mask(self):
        counts = [min_satellites(self.geom(8000, e)) for e in (5, 15, 30, 45, 60, 75, 85)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_zenith_mask_infeasible(self):
        # a 90 degree mask shrinks every footprint to a point
        with pytest.raises(InfeasibleError):
            min_satellites(self.geom(8000, 90))
