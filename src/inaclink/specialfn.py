"""Scalar special functions behind the analytic channel formulas.

Provides:
    - erf / erfc wrappers used by every closed form
    - kummer_1f1_half: the confluent hypergeometric function 1F1(-1/2, 1; x),
      i.e. the Laguerre function L_{1/2}(x), which sets the Rician amplitude
      mean
    - folded_normal_pdf / folded_normal_cdf: distribution of the squared
      co-phased channel sum under the CLT

All functions are pure; array inputs are accepted where vectorized use is
natural (the CDF feeds empirical-distribution comparisons over 1e5 points).

folded_normal_cdf has a scalar path for a float x, which is what every
closed-form outage point passes: math.sqrt and scipy's erfc on floats skip
the 0-d array round trip (np.asarray, np.any, 0-d ufuncs, np.maximum) that
costs several times the arithmetic.  It returns the array path's bits: both
square roots are correctly rounded, erfc is the same ufunc loop, and its
clamp keeps np.maximum(out, 0.0)'s rules (NaN propagates; -0.0 and negatives
become +0.0).  Arrays keep the array path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError

__all__ = [
    "SeriesControl",
    "erf",
    "kummer_1f1_half",
    "folded_normal_pdf",
    "folded_normal_cdf",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the hand-rolled series."""

    max_terms: int = 200
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")


#: default budget for the 1F1 series; converges for K up to ~116
DEFAULT_1F1_CONTROL = SeriesControl(max_terms=200, tol=1e-12)


def erf(z):
    """Gauss error function; odd, bounded in (-1, 1). Accepts scalars or arrays."""
    out = sp.erf(z)
    return float(out) if np.isscalar(z) else out


def kummer_1f1_half(x: float, ctrl: SeriesControl = DEFAULT_1F1_CONTROL) -> float:
    """Confluent hypergeometric function 1F1(-1/2, 1; x) = L_{1/2}(x).

    For x <= 0 the direct Maclaurin series cancels catastrophically once
    |x| is large, so the Kummer transform 1F1(a, b; x) = e^x 1F1(b-a, b; -x)
    is used there: its terms are all positive and the sum is stable for the
    whole Rician-K range of interest.
    """
    x = float(x)
    if x == 0.0:
        return 1.0
    if x < 0.0:
        # e^x * 1F1(3/2, 1; -x), all-positive terms
        y = -x
        term = 1.0
        total = 1.0
        for n in range(ctrl.max_terms):
            term *= (1.5 + n) * y / ((n + 1) ** 2)
            total += term
            if not math.isfinite(total):
                break  # overflow: the budget cannot resolve this argument
            if term <= ctrl.tol * total:
                return math.exp(x) * total
        raise ConvergenceError(
            f"1F1(-1/2,1;{x}) did not reach tol={ctrl.tol} in {ctrl.max_terms} terms"
        )
    # x > 0: direct series; after n=0 every term has the same sign
    term = 1.0
    total = 1.0
    for n in range(ctrl.max_terms):
        term *= (n - 0.5) * x / ((n + 1) ** 2)
        total += term
        if not math.isfinite(total):
            break
        if abs(term) <= ctrl.tol * abs(total):
            return total
    raise ConvergenceError(
        f"1F1(-1/2,1;{x}) did not reach tol={ctrl.tol} in {ctrl.max_terms} terms"
    )


def _check_gain_domain(x, v3: float) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("power gain x must be >= 0")
    if v3 <= 0.0:
        raise ValueError(f"variance v3 must be > 0, got {v3}")
    return arr


def folded_normal_pdf(x, m3: float, v3: float):
    """Density of the squared channel sum: x = s^2 with s ~ N(m3, v3) folded at 0.

    f(x) = (1 / (2 sqrt(2 pi v3 x))) [exp(-(sqrt(x)+m3)^2/(2 v3))
                                      + exp(-(sqrt(x)-m3)^2/(2 v3))]

    At x = 0 the density has an integrable x^(-1/2) singularity; +inf is
    returned there so quadrature callers can apply endpoint handling.
    """
    arr = _check_gain_domain(x, v3)
    scalar = np.isscalar(x)
    arr = np.atleast_1d(arr)
    out = np.full(arr.shape, np.inf)
    pos = arr > 0.0
    r = np.sqrt(arr[pos])
    norm = 1.0 / (2.0 * np.sqrt(2.0 * np.pi * v3 * arr[pos]))
    out[pos] = norm * (
        np.exp(-((r + m3) ** 2) / (2.0 * v3)) + np.exp(-((r - m3) ** 2) / (2.0 * v3))
    )
    return float(out[0]) if scalar else out


def folded_normal_cdf(x, m3: float, v3: float):
    """CDF of the squared channel sum.

    F(x) = 1/2 [erf((sqrt(x)+m3)/sqrt(2 v3)) - erf((m3-sqrt(x))/sqrt(2 v3))],
    evaluated through erfc so the deep-outage tail (F ~ 1e-12 and below)
    keeps full relative precision instead of cancelling.
    """
    if isinstance(x, float):
        if x < 0.0:
            raise ValueError("power gain x must be >= 0")
        if v3 <= 0.0:
            raise ValueError(f"variance v3 must be > 0, got {v3}")
        r = math.sqrt(x)
        s = math.sqrt(2.0 * v3)
        out = float(0.5 * (sp.erfc((m3 - r) / s) - sp.erfc((m3 + r) / s)))
        # np.maximum(out, 0.0): NaN stays NaN, where max(out, 0.0) would keep -0.0
        return out if out > 0.0 or out != out else 0.0
    arr = _check_gain_domain(x, v3)
    r = np.sqrt(arr)
    s = math.sqrt(2.0 * v3)
    out = 0.5 * (sp.erfc((m3 - r) / s) - sp.erfc((m3 + r) / s))
    # guard tiny negative round-off at x = 0
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(x) else out
