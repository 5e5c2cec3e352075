"""Scalar special functions behind the analytic channel formulas.

Provides:
    - kummer_1f1_half: the confluent hypergeometric function 1F1(-1/2, 1; x),
      i.e. the Laguerre function L_{1/2}(x), which sets the Rician amplitude
      mean
    - folded_normal_cdf: distribution of the squared co-phased channel sum
      under the CLT

All functions are pure; array inputs are accepted where vectorized use is
natural (the CDF feeds empirical-distribution comparisons over 1e5 points).

folded_normal_cdf has a scalar path for a float x, which is what every
closed-form outage point passes: math.sqrt and the float _erfc skip the 0-d
array round trip (np.asarray, np.any, 0-d ufuncs, np.maximum) that costs
several times the arithmetic.  It returns the array path's bits: both square
roots are correctly rounded, _erfc is scipy's erfc bit for bit, and its clamp
keeps np.maximum(out, 0.0)'s rules (NaN propagates; -0.0 and negatives become
+0.0).  Arrays keep the array path, which imports numpy and scipy's erfc when
first called; the closed forms therefore load neither numpy nor
scipy.special, the two costliest imports of a fresh process.

_erfc is the Cephes ndtr.c erfc (with its erf below 1) that scipy's erfc
ufunc runs: the same coefficients in the same Horner order, math.exp, and
the underflow to 0 or 2 past MAXLOG.  math.erfc is not a substitute: it
differs from scipy's erfc in the last bits on 42% of uniform draws on
[-6, 6], and it returns subnormals where Cephes underflows to 0
(math.erfc(27.0) = 5.2e-319), while many closed-form outage probabilities
are exactly 0.0.  With it, 11 of the 3460 evaluable points of the
benchmark's point-query catalogue moved by more than 1e-9 relative.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

__all__ = [
    "kummer_1f1_half",
    "folded_normal_cdf",
]


#: relative tolerance of the 1F1 series
_1F1_TOL = 1e-12


def _1f1_steps(terms: int) -> tuple[tuple[float, float], ...]:
    """(1/2 + m, m^2) of the series steps m = 1..terms, as floats.

    Both are exact (m^2 < 2^53), so a * y / m^2 rounds as it would with an
    int m^2, and the series loop spends no interpreter work per step on
    counting a and m, which took about a third of a call's time.
    """
    return tuple((0.5 + m, float(m * m)) for m in range(1, terms + 1))


#: the steps of the series, built once; their count is its term budget,
#: which resolves arguments down to about -116.86
_1F1_STEPS = _1f1_steps(200)


def kummer_1f1_half(x: float) -> float:
    """Confluent hypergeometric function 1F1(-1/2, 1; x) = L_{1/2}(x) for x <= 0.

    The direct Maclaurin series cancels catastrophically once |x| is large,
    so the Kummer transform 1F1(a, b; x) = e^x 1F1(b-a, b; -x) is used: its
    terms are all positive and the sum is stable for the whole Rician-K
    range of interest.  The Rician mean is its only caller, at x = -K.
    """
    x = float(x)
    if not x <= 0.0:  # NaN fails too
        raise ValueError(f"1F1(-1/2,1;x) is evaluated for x <= 0 only, got {x}")
    steps = _1F1_STEPS
    tol = _1F1_TOL
    # e^x * 1F1(3/2, 1; -x), all-positive terms
    y = -x
    term = 1.0
    total = 1.0
    for a, m_sq in steps:
        term *= a * y / m_sq
        total += term
        if term <= tol * total:
            if total < math.inf:
                return math.exp(x) * total
            break  # overflow, which passes the test: the budget cannot resolve this argument
    raise ConvergenceError(
        f"1F1(-1/2,1;{x}) did not reach tol={_1F1_TOL} in {len(steps)} terms"
    )


#: Cephes MAXLOG, ln(DBL_MAX): erfc underflows to 0 (or 2) once a^2 exceeds it
_MAXLOG = 7.09782712893383996843e2


def _erfc(a: float) -> float:
    """scipy's erfc of a float, bit for bit (Cephes ndtr.c; see the module docstring).

    The polynomials are written out as expressions: Horner loops over
    coefficient tables cost several times as much per call.
    """
    x = -a if a < 0.0 else a
    if x < 1.0:
        # 1 - erf(a), with Cephes erf's odd rational function in a^2
        z = a * a
        return 1.0 - a * (
            (((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
              + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
            + 5.55923013010394962768e4
        ) / (
            ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
              + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z
            + 4.92673942608635921086e4
        )
    # NaN falls through every comparison and comes out of the R/S branch
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = (((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
                  + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
              + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x + 5.57535335369399327526e2
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
                + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
              + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
               + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
             + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
               + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
             + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    y = z * p / q
    return 2.0 - y if a < 0.0 else y


def folded_normal_cdf(x, m3: float, v3: float):
    """CDF of the squared channel sum.

    F(x) = 1/2 [erf((sqrt(x)+m3)/sqrt(2 v3)) - erf((m3-sqrt(x))/sqrt(2 v3))],
    evaluated through erfc so the deep-outage tail (F ~ 1e-12 and below)
    keeps full relative precision instead of cancelling.
    """
    if v3 <= 0.0:
        raise ValueError(f"variance v3 must be > 0, got {v3}")
    if isinstance(x, float):
        if x < 0.0:
            raise ValueError("power gain x must be >= 0")
        r = math.sqrt(x)
        s = math.sqrt(2.0 * v3)
        out = 0.5 * (_erfc((m3 - r) / s) - _erfc((m3 + r) / s))
        # np.maximum(out, 0.0): NaN stays NaN, where max(out, 0.0) would keep -0.0
        return out if out > 0.0 or out != out else 0.0
    import numpy as np
    from scipy.special import erfc  # only ks_distance passes arrays, after it has sampled

    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("power gain x must be >= 0")
    r = np.sqrt(arr)
    s = math.sqrt(2.0 * v3)
    out = 0.5 * (erfc((m3 - r) / s) - erfc((m3 + r) / s))
    # guard tiny negative round-off at x = 0
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(x) else out
