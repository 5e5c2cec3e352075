"""Special-function layer: series forms against scipy and frozen references."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from inaclink import folded_normal_cdf, kummer_1f1_half
from inaclink import specialfn
from inaclink.errors import ConvergenceError


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1_half(0.0) == 1.0
        # -0.0 passes the x <= 0 check too; the series gives 1 at both zeros
        assert kummer_1f1_half(-0.0) == 1.0

    def test_negative_axis_reference_values(self):
        # 1F1(-1/2, 1; -K) drives the Rician amplitude mean
        assert kummer_1f1_half(-0.5) == pytest.approx(1.2355820575582632, rel=1e-12)
        assert kummer_1f1_half(-1.0) == pytest.approx(1.4464913440831717, rel=1e-12)
        assert kummer_1f1_half(-4.0) == pytest.approx(2.4036187697641056, rel=1e-12)
        assert kummer_1f1_half(-10.0) == pytest.approx(3.658671608148035, rel=1e-12)
        assert kummer_1f1_half(-100.0) == pytest.approx(11.31203668068241, rel=1e-9)

    def test_against_scipy_hyp1f1(self, monkeypatch):
        monkeypatch.setattr(specialfn, "_1F1_STEPS", specialfn._1f1_steps(400))
        for x in (-120.0, -50.0, -7.5, -0.1):
            assert kummer_1f1_half(x) == pytest.approx(float(sp.hyp1f1(-0.5, 1.0, x)), rel=1e-9)

    def test_rejects_positive_and_nan(self):
        # the Rician mean evaluates it at -K only, with K >= 0
        for x in (5e-324, 0.2, 10.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                kummer_1f1_half(x)

    def test_default_budget_boundary(self):
        # the 200-term default resolves arguments down to about -116
        assert math.isfinite(kummer_1f1_half(-116.0))
        with pytest.raises(ConvergenceError):
            kummer_1f1_half(-117.0)

    def test_larger_budget_extends_the_range(self, monkeypatch):
        monkeypatch.setattr(specialfn, "_1F1_STEPS", specialfn._1f1_steps(400))
        assert kummer_1f1_half(-120.0) == pytest.approx(12.38655307267948, rel=1e-10)

    def test_overflowing_argument_raises(self):
        with pytest.raises(ConvergenceError):
            kummer_1f1_half(-1e9)


def _ref_kummer_1f1_half(x):
    """The series loop that the step table replaces, kept verbatim (renamed)."""
    x = float(x)
    if not x <= 0.0:  # NaN fails too
        raise ValueError(f"1F1(-1/2,1;x) is evaluated for x <= 0 only, got {x}")
    # e^x * 1F1(3/2, 1; -x), all-positive terms
    y = -x
    term = 1.0
    total = 1.0
    a = 0.5
    for m in range(1, len(specialfn._1F1_STEPS) + 1):
        a += 1.0  # 1/2 + m, exactly
        term *= a * y / (m * m)
        total += term
        if term <= specialfn._1F1_TOL * total:
            if total < math.inf:
                return math.exp(x) * total
            break  # overflow, which passes the test: the budget cannot resolve this argument
    raise ConvergenceError(
        f"1F1(-1/2,1;{x}) did not reach tol={specialfn._1F1_TOL} in {len(specialfn._1F1_STEPS)} terms"
    )


def _kummer_outcome(f, x):
    """f(x) as exact bits, or the type and message of what it raised."""
    try:
        return f(x).hex()
    except (ValueError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)


#: the last argument the 200-term default resolves, and the first it does not
LAST_RESOLVED = -116.85609134697371
FIRST_UNRESOLVED = math.nextafter(LAST_RESOLVED, -math.inf)


class TestKummerSteps:
    """The series over the step table reads the bits of the loop it replaced."""

    @settings(max_examples=1000)
    @given(x=st.floats(LAST_RESOLVED, 0.0))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=-5e-324)
    @example(x=-1e-300)
    @example(x=LAST_RESOLVED)
    def test_same_bits_as_the_loop(self, x):
        assert _kummer_outcome(kummer_1f1_half, x) == _kummer_outcome(_ref_kummer_1f1_half, x)

    def test_budget_boundary(self):
        assert isinstance(_kummer_outcome(kummer_1f1_half, LAST_RESOLVED), str)
        for x in (FIRST_UNRESOLVED, -117.0, -1e9, -math.inf, 5e-324, math.nan):
            ours = _kummer_outcome(kummer_1f1_half, x)
            assert isinstance(ours, tuple)
            assert ours == _kummer_outcome(_ref_kummer_1f1_half, x)

    def test_patched_budget(self, monkeypatch):
        # a patched step table is the budget, message and all
        monkeypatch.setattr(specialfn, "_1F1_STEPS", specialfn._1f1_steps(400))
        for x in (FIRST_UNRESOLVED, -120.0, -200.0, -400.0, -1e9):
            assert _kummer_outcome(kummer_1f1_half, x) == _kummer_outcome(_ref_kummer_1f1_half, x)
        assert isinstance(_kummer_outcome(kummer_1f1_half, FIRST_UNRESOLVED), str)
        assert _kummer_outcome(kummer_1f1_half, -1e9) == (
            "ConvergenceError", "1F1(-1/2,1;-1000000000.0) did not reach tol=1e-12 in 400 terms")
        monkeypatch.setattr(specialfn, "_1F1_STEPS", specialfn._1f1_steps(10))
        for x in (-0.5, -1.0, -5.0, -50.0):
            assert _kummer_outcome(kummer_1f1_half, x) == _kummer_outcome(_ref_kummer_1f1_half, x)


class TestFoldedNormal:
    # X = S^2 with S = |N(m3, v3)|, so scipy's foldnorm of S is an
    # independent oracle after the square-root change of variables.

    def test_cdf_against_scipy(self):
        m3, v3 = 2.0, 0.5
        s = math.sqrt(v3)
        dist = stats.foldnorm(c=m3 / s, scale=s)
        x = np.linspace(0.01, 30.0, 200)
        np.testing.assert_allclose(folded_normal_cdf(x, m3, v3), dist.cdf(np.sqrt(x)), rtol=1e-12)

    def test_zero_mean_reduces_to_chi_squared(self):
        # m3 = 0, v3 = 1: X ~ chi2 with one degree of freedom
        x = np.linspace(0.0, 12.0, 60)
        np.testing.assert_allclose(folded_normal_cdf(x, 0.0, 1.0), stats.chi2(1).cdf(x), rtol=0, atol=1e-14)

    def test_deep_tail_keeps_relative_precision(self):
        # erfc evaluation must not cancel at probabilities ~1e-13
        v = folded_normal_cdf(3006.081519398236, 102.82546740513416, 45.39783791340385)
        assert v == pytest.approx(5.255240687063178e-13, rel=1e-9)

    def test_endpoints(self):
        assert folded_normal_cdf(0.0, 1.0, 1.0) == 0.0
        assert folded_normal_cdf(1e6, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            folded_normal_cdf(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            folded_normal_cdf(1.0, 1.0, 0.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(folded_normal_cdf(1.0, 1.0, 1.0), float)


def _scalar_and_array(x, m3, v3):
    """folded_normal_cdf of a float and of the same value in an array, as exact bits."""
    scalar = folded_normal_cdf(x, m3, v3)
    assert type(scalar) is float
    return scalar.hex(), float(folded_normal_cdf(np.array([x]), m3, v3)[0]).hex()


class TestScalarPath:
    """A float or int x takes math.sqrt and erfc on floats; an array, numpy.  Same bits."""

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

    def test_int_equals_array(self):
        # an int takes the scalar path too; 2^53 + 1 rounds to 2^53 on either
        for n in (0, 1, 2000, 2**53 + 1):
            scalar, array = _scalar_and_array(n, 34.0, 1.0)
            assert scalar == array

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
        # x = 1, m3 = 0, v3 = 1/2: erfc is called at -1 and at +1, by the
        # float _erfc on the scalar path and by scipy's ufunc on the array path
        def erfc_float(z):
            return e1 if z < 0.0 else e2

        def erfc_array(z):
            return np.where(np.asarray(z) < 0.0, e1, e2)

        with mock.patch.object(specialfn, "_erfc", erfc_float), \
                mock.patch.object(sp, "erfc", erfc_array):
            scalar, array = _scalar_and_array(1.0, 0.0, 0.5)
        assert scalar == array == float(np.maximum(0.5 * (np.float64(e1) - e2), 0.0)).hex()


def _erfc_bits(a):
    """The float _erfc and scipy's erfc at a, as exact bits; NaN reads "nan"."""
    ours, theirs = specialfn._erfc(a), float(sp.erfc(a))
    assert type(ours) is float
    return tuple("nan" if v != v else v.hex() for v in (ours, theirs))


class TestFloatErfc:
    """specialfn._erfc, which the scalar CDF path calls, is scipy's erfc bit for bit."""

    EDGES = [
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300,
        # branch points: 1 - erf below 1, the P/Q and R/S rational forms at 8
        *(f(s * b) for b in (1.0, 8.0) for s in (1.0, -1.0)
          for f in (float, lambda v: math.nextafter(v, -math.inf), lambda v: math.nextafter(v, math.inf))),
        # the MAXLOG underflow to 0 (or 2) lies near 26.64
        *(s * (26.5 + i / 100) for i in range(101) for s in (1.0, -1.0)),
    ]

    def test_edges(self):
        assert [a for a in self.EDGES if len(set(_erfc_bits(a))) != 1] == []

    @settings(max_examples=2000)
    @given(a=st.floats(-30.0, 30.0))
    def test_any_float(self, a):
        ours, theirs = _erfc_bits(a)
        assert ours == theirs
