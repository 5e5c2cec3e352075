"""Rician amplitude moments and the folded-normal effective-gain law."""

import math

import numpy as np
import pytest
from scipy import stats

from inaclink import (
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
    rician_amplitude_moments,
)


class TestRicianAmplitudeMoments:
    def test_rayleigh_case_exact(self):
        # K = 0: mean sqrt(pi)/2, variance 1 - pi/4 for a unit-power link
        mean, var = rician_amplitude_moments(0.0)
        assert mean == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
        assert var == pytest.approx(1.0 - math.pi / 4.0, rel=1e-13)

    def test_reference_values(self):
        mean1, var1 = rician_amplitude_moments(1.0)
        assert mean1 == pytest.approx(0.9064540255219693, rel=1e-12)
        assert var1 == pytest.approx(0.17834109961501698, rel=1e-11)
        mean4, _ = rician_amplitude_moments(4.0)
        assert mean4 == pytest.approx(0.9526327883244257, rel=1e-12)
        mean100, _ = rician_amplitude_moments(100.0)
        assert mean100 == pytest.approx(0.9975279163715536, rel=1e-9)

    def test_unit_power_identity(self):
        # E[A^2] = 1, so the variance is always 1 - mean^2
        for k in (0.0, 0.3, 1.0, 5.0, 50.0):
            mean, var = rician_amplitude_moments(k)
            assert var == pytest.approx(1.0 - mean * mean, rel=1e-12)

    def test_mean_grows_with_k(self):
        means = [rician_amplitude_moments(k)[0] for k in (0.0, 0.5, 1.0, 2.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(means, means[1:]))
        assert means[-1] < 1.0

    def test_deterministic_limit(self):
        # largest K the default series budget resolves; gap to the unit
        # amplitude closes like 1/(4K), variance like 1/(2K)
        mean, var = rician_amplitude_moments(116.0)
        assert mean == pytest.approx(0.9978655951788267, rel=1e-12)
        assert 1.0 - mean == pytest.approx(1.0 / (4.0 * 116.0), rel=0.02)
        assert var == pytest.approx(1.0 / (2.0 * 116.0), rel=0.02)

    def test_monte_carlo_cross_check(self):
        # 2e5 draws of |s + sigma(z1 + j z2)| against the analytic mean
        rng = np.random.default_rng(321)
        k = 3.0
        s = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        amps = np.hypot(s + sigma * rng.standard_normal(200_000), sigma * rng.standard_normal(200_000))
        mean, var = rician_amplitude_moments(k)
        assert np.mean(amps) == pytest.approx(mean, abs=4.0 * np.std(amps) / math.sqrt(amps.size))
        assert np.var(amps) == pytest.approx(var, rel=0.02)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            rician_amplitude_moments(-0.5)


class TestParamValidation:
    def test_rician_params(self):
        RicianParams(k_r=0.0, k_g=0.0)
        with pytest.raises(ValueError):
            RicianParams(k_r=-1.0, k_g=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RicianParams(k_r=0.0, k_g=bad)
        with pytest.raises(ValueError):
            RicianParams(k_r=0.0, k_g=-0.1)

    def test_ris_array(self):
        RisArray(num_elements=1, amplitude=1.0)
        with pytest.raises(ValueError):
            RisArray(num_elements=0)
        with pytest.raises(ValueError):
            RisArray(num_elements=4, amplitude=0.0)
        with pytest.raises(ValueError):
            RisArray(num_elements=4, amplitude=1.1)
        # beta^2 L must stay a normal double, or v3 underflows to 0
        RisArray(num_elements=4, amplitude=2.0**-512)
        with pytest.raises(ValueError, match="amplitude\\^2 \\* num_elements"):
            RisArray(num_elements=2, amplitude=2.0**-512)
        with pytest.raises(ValueError):
            RisArray(num_elements=128, amplitude=1e-170)


class TestCascadedMoments:
    def test_single_element_rayleigh(self):
        cm = cascaded_moments(RisArray(1, 1.0), RicianParams(0.0, 0.0))
        assert cm.m3 == pytest.approx(math.pi / 4.0, rel=1e-13)
        assert cm.v3 == pytest.approx(1.0 - math.pi**2 / 16.0, rel=1e-12)

    def test_reference_values(self):
        cm = cascaded_moments(RisArray(100, 1.0), RicianParams(1.0, 0.0))
        assert cm.m1 == pytest.approx(0.9064540255219693, rel=1e-12)
        assert cm.m2 == pytest.approx(0.8862269254527579, rel=1e-12)
        assert cm.m3 == pytest.approx(80.33239641026105, rel=1e-12)
        assert cm.v3 == pytest.approx(35.467060869846755, rel=1e-11)
        cm128 = cascaded_moments(RisArray(128, 1.0), RicianParams(1.0, 0.0))
        assert cm128.m3 == pytest.approx(102.82546740513416, rel=1e-12)
        assert cm128.v3 == pytest.approx(45.39783791340385, rel=1e-11)

    def test_unit_power_variance_identity(self):
        # per-element product variance collapses to 1 - (m1 m2)^2
        cm = cascaded_moments(RisArray(37, 1.0), RicianParams(2.0, 0.5))
        assert cm.v3 == pytest.approx(37.0 * (1.0 - (cm.m1 * cm.m2) ** 2), rel=1e-12)

    def test_amplitude_scaling(self):
        full = cascaded_moments(RisArray(64, 1.0), RicianParams(1.0, 0.0))
        half = cascaded_moments(RisArray(64, 0.5), RicianParams(1.0, 0.0))
        assert half.m3 == pytest.approx(0.5 * full.m3, rel=1e-13)
        # the sum scales by beta, so its variance by beta^2
        assert half.v3 == pytest.approx(0.25 * full.v3, rel=1e-13)

    def test_mean_grows_with_elements_and_k(self):
        m_by_l = [cascaded_moments(RisArray(L, 1.0), RicianParams(1.0, 0.0)).m3 for L in (1, 4, 16, 64)]
        assert all(a < b for a, b in zip(m_by_l, m_by_l[1:]))
        m_by_k = [cascaded_moments(RisArray(16, 1.0), RicianParams(k, 0.0)).m3 for k in (0.0, 1.0, 10.0)]
        assert all(a < b for a, b in zip(m_by_k, m_by_k[1:]))


class TestEffectiveGainCdf:
    def test_matches_folded_normal_oracle(self):
        cm = cascaded_moments(RisArray(64, 1.0), RicianParams(1.0, 0.0))
        s = math.sqrt(cm.v3)
        dist = stats.foldnorm(c=cm.m3 / s, scale=s)
        x = np.linspace(0.0, (cm.m3 + 5 * s) ** 2, 300)
        np.testing.assert_allclose(effective_gain_cdf(x, cm), dist.cdf(np.sqrt(x)), rtol=0, atol=1e-13)

    def test_monotone_and_bounded(self):
        cm = cascaded_moments(RisArray(32, 1.0), RicianParams(0.0, 0.0))
        x = np.linspace(0.0, 3000.0, 500)
        f = effective_gain_cdf(x, cm)
        assert np.all(np.diff(f) >= 0.0)
        assert f[0] == 0.0
        assert f[-1] == pytest.approx(1.0, abs=1e-12)
