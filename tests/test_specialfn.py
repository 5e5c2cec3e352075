"""Special-function layer: series forms against scipy and frozen references."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from inaclink import folded_normal_cdf, folded_normal_pdf, kummer_1f1_half
from inaclink import specialfn
from inaclink.errors import ConvergenceError


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1_half(0.0) == 1.0

    def test_negative_axis_reference_values(self):
        # 1F1(-1/2, 1; -K) drives the Rician amplitude mean
        assert kummer_1f1_half(-0.5) == pytest.approx(1.2355820575582632, rel=1e-12)
        assert kummer_1f1_half(-1.0) == pytest.approx(1.4464913440831717, rel=1e-12)
        assert kummer_1f1_half(-4.0) == pytest.approx(2.4036187697641056, rel=1e-12)
        assert kummer_1f1_half(-10.0) == pytest.approx(3.658671608148035, rel=1e-12)
        assert kummer_1f1_half(-100.0) == pytest.approx(11.31203668068241, rel=1e-9)

    def test_against_scipy_hyp1f1(self, monkeypatch):
        monkeypatch.setattr(specialfn, "_1F1_TERMS", 400)
        for x in (-120.0, -50.0, -7.5, -0.1, 0.2, 2.5, 10.0):
            assert kummer_1f1_half(x) == pytest.approx(float(sp.hyp1f1(-0.5, 1.0, x)), rel=1e-9)

    def test_default_budget_boundary(self):
        # the 200-term default resolves arguments down to about -116
        assert math.isfinite(kummer_1f1_half(-116.0))
        with pytest.raises(ConvergenceError):
            kummer_1f1_half(-117.0)

    def test_larger_budget_extends_the_range(self, monkeypatch):
        monkeypatch.setattr(specialfn, "_1F1_TERMS", 400)
        assert kummer_1f1_half(-120.0) == pytest.approx(12.38655307267948, rel=1e-10)

    def test_overflowing_argument_raises(self):
        with pytest.raises(ConvergenceError):
            kummer_1f1_half(-1e9)


class TestFoldedNormal:
    # X = S^2 with S = |N(m3, v3)|, so scipy's foldnorm of S is an
    # independent oracle after the square-root change of variables.

    def test_cdf_against_scipy(self):
        m3, v3 = 2.0, 0.5
        s = math.sqrt(v3)
        dist = stats.foldnorm(c=m3 / s, scale=s)
        x = np.linspace(0.01, 30.0, 200)
        np.testing.assert_allclose(folded_normal_cdf(x, m3, v3), dist.cdf(np.sqrt(x)), rtol=1e-12)

    def test_pdf_against_scipy(self):
        m3, v3 = 2.0, 0.5
        s = math.sqrt(v3)
        dist = stats.foldnorm(c=m3 / s, scale=s)
        x = np.linspace(0.01, 30.0, 200)
        np.testing.assert_allclose(
            folded_normal_pdf(x, m3, v3), dist.pdf(np.sqrt(x)) / (2.0 * np.sqrt(x)), rtol=1e-12
        )

    def test_zero_mean_reduces_to_chi_squared(self):
        # m3 = 0, v3 = 1: X ~ chi2 with one degree of freedom
        x = np.linspace(0.0, 12.0, 60)
        np.testing.assert_allclose(folded_normal_cdf(x, 0.0, 1.0), stats.chi2(1).cdf(x), rtol=0, atol=1e-14)

    def test_deep_tail_keeps_relative_precision(self):
        # erfc evaluation must not cancel at probabilities ~1e-13
        v = folded_normal_cdf(3006.081519398236, 102.82546740513416, 45.39783791340385)
        assert v == pytest.approx(5.255240687063178e-13, rel=1e-9)

    def test_pdf_normalizes(self):
        from scipy.integrate import quad

        total, err = quad(lambda t: folded_normal_pdf(t, 2.0, 0.5), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_is_cdf_derivative(self):
        m3, v3, h = 1.3, 0.7, 1e-6
        for x in (0.4, 1.0, 2.5, 6.0):
            num = (folded_normal_cdf(x + h, m3, v3) - folded_normal_cdf(x - h, m3, v3)) / (2 * h)
            assert num == pytest.approx(folded_normal_pdf(x, m3, v3), rel=1e-7)

    def test_endpoints(self):
        assert folded_normal_cdf(0.0, 1.0, 1.0) == 0.0
        assert folded_normal_cdf(1e6, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert folded_normal_pdf(0.0, 1.0, 1.0) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            folded_normal_cdf(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            folded_normal_pdf(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            folded_normal_cdf(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            folded_normal_pdf(1.0, 1.0, -2.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(folded_normal_cdf(1.0, 1.0, 1.0), float)
        assert isinstance(folded_normal_pdf(1.0, 1.0, 1.0), float)


def _scalar_and_array(x, m3, v3):
    """folded_normal_cdf of a float and of the same value in an array, as exact bits."""
    scalar = folded_normal_cdf(x, m3, v3)
    assert type(scalar) is float
    return scalar.hex(), float(folded_normal_cdf(np.array([x]), m3, v3)[0]).hex()


class TestScalarPath:
    """A float x takes math.sqrt and erfc on floats; an array, numpy.  Same bits."""

    # sqrt(x) = m3 + z sqrt(2 v3), floored at 0: z < -m3 / sqrt(2 v3) gives x = 0,
    # and z near -24 or +24 reaches both tails of the CDF near 1e-250
    @settings(max_examples=500)
    @given(m3=st.floats(0.0, 300.0), log10_v3=st.floats(-8.0, 4.0), z=st.floats(-40.0, 40.0))
    @example(m3=34.0, log10_v3=0.0, z=-23.9)  # far below m3^2: both erfc terms ~1e-252
    @example(m3=34.0, log10_v3=0.0, z=-100.0)  # x = 0
    @example(m3=1.0, log10_v3=0.0, z=30.0)  # far above m3^2: F rounds to 1
    @example(m3=1e-3, log10_v3=-8.0, z=0.5)  # small v3
    def test_float_equals_array(self, m3, log10_v3, z):
        v3 = 10.0**log10_v3
        root = max(m3 + z * math.sqrt(2.0 * v3), 0.0)
        scalar, array = _scalar_and_array(root * root, m3, v3)
        assert scalar == array
        assert scalar != (-0.0).hex()

    def test_nan_propagates(self):
        for x, m3 in ((math.nan, 1.0), (1.0, math.nan)):
            scalar, array = _scalar_and_array(x, m3, 1.0)
            assert scalar == array == math.nan.hex()

    def test_domain_errors_match(self):
        for x, v3 in ((-1e-300, 1.0), (1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError) as scalar:
                folded_normal_cdf(x, 1.0, v3)
            with pytest.raises(ValueError) as array:
                folded_normal_cdf(np.array([x]), 1.0, v3)
            assert str(scalar.value) == str(array.value)

    # the clamp itself, on erfc values the real erfc never returns: out = -0.0
    # (e1 = -0.0, or half a negative subnormal) must read +0.0, as np.maximum gives
    @settings(max_examples=200)
    @given(e1=st.floats(-2.0, 2.0) | st.just(math.nan), e2=st.floats(-2.0, 2.0) | st.just(math.nan))
    @example(e1=-0.0, e2=0.0)
    @example(e1=0.0, e2=5e-324)
    @example(e1=0.0, e2=1e-300)
    def test_clamp_is_np_maximum(self, e1, e2):
        # x = 1, m3 = 0, v3 = 1/2: erfc is called at -1 and at +1
        def erfc(z):
            return np.where(np.asarray(z) < 0.0, e1, e2)

        with mock.patch.object(specialfn, "sp", SimpleNamespace(erfc=erfc)):
            scalar, array = _scalar_and_array(1.0, 0.0, 0.5)
        assert scalar == array == float(np.maximum(0.5 * (np.float64(e1) - e2), 0.0)).hex()
