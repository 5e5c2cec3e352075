"""NOMA superposition analysis: SINRs, outage, capacity, diversity.

Two power-allocation scenarios share one machinery and differ only in the
decode order, which `first_decoded` states once:

    CO: the multi-cast (navigation) signal carries more power and is decoded
        first under uni-cast interference; the uni-cast signal is decoded
        interference-free after SIC.
    NO: the roles swap - the uni-cast signal is decoded first, the
        multi-cast signal after SIC.

`sinr(gain, sc, signal)` builds either SINR from the signal's own and the
other signal's power share; feasibility, outage thresholds, hardened
capacities and the Monte Carlo outage events all follow the same order.

A `Scenario` is built from its physical inputs alone: mode, power split,
rate targets, link budget, RIS array and Rician factors.  It derives its
CLT moments, its feasibility and both outage thresholds once, on first
use, and keeps them on the instance (`functools.cached_property` writes
past the frozen dataclass's `__setattr__`), since one `analyze`-style point
reads them from every closed form; the moments therefore always belong to
the `ris` and `rician` stored beside them.  Nothing is cached across
instances: `dataclasses.replace` and `with_tx_power` build a new scenario
that derives its own values, and there is no cache keyed on inputs.

Closed-form outage follows from the folded-normal gain law evaluated at a
threshold omega assembled from the rate targets and the link budget; the
asymptotic form replaces erf by its Maclaurin series and is only valid while
(m3 + sqrt(omega)) / sqrt(2 v3) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import (
    ChannelMoments,
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
)
from .errors import (
    ConvergenceError,
    DegenerateGeometryError,
    InfeasibleError,
    RegionError,
)
from .geometry import LinkBudget

__all__ = [
    "PowerSplit",
    "RateTargets",
    "OutageResult",
    "Scenario",
    "first_decoded",
    "sinr",
    "outage_threshold",
    "outage_closed_form",
    "outage_asymptotic",
    "capacity_hardened",
    "DiversityEstimate",
    "diversity_order_estimate",
]

MODES = ("CO", "NO")
SIGNALS = ("multicast", "unicast")

#: sum-to-one slack for the power split
_SPLIT_TOL = 1e-9

#: term budget and relative tolerance of the asymptotic outage series
_SERIES_TERMS = 60
_SERIES_TOL = 1e-12


@dataclass(frozen=True)
class PowerSplit:
    """Power shares of the superposed signals; alpha_m_sq + alpha_u_sq = 1."""

    alpha_m_sq: float
    alpha_u_sq: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_m_sq < 1.0 or not 0.0 < self.alpha_u_sq < 1.0:
            raise ValueError("power shares must lie in (0, 1)")
        if abs(self.alpha_m_sq + self.alpha_u_sq - 1.0) > _SPLIT_TOL:
            raise ValueError(
                f"power shares must sum to 1, got {self.alpha_m_sq + self.alpha_u_sq}"
            )

    def shares(self, signal: str) -> tuple[float, float]:
        """(own, other) power share of a signal."""
        if signal == "multicast":
            return self.alpha_m_sq, self.alpha_u_sq
        return self.alpha_u_sq, self.alpha_m_sq


@dataclass(frozen=True)
class RateTargets:
    """Target rates in bps/Hz; eps = 2^R - 1 is the SINR threshold."""

    r_m: float
    r_u: float

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not (0.0 < self.r_m < math.inf and 0.0 < self.r_u < math.inf):
            raise ValueError("target rates must be finite and > 0")

    @property
    def eps_m(self) -> float:
        return 2.0**self.r_m - 1.0

    @property
    def eps_u(self) -> float:
        return 2.0**self.r_u - 1.0

    def rate(self, signal: str) -> float:
        return self.r_m if signal == "multicast" else self.r_u

    def eps(self, signal: str) -> float:
        return self.eps_m if signal == "multicast" else self.eps_u


@dataclass(frozen=True)
class OutageResult:
    """Outage probability with its provenance.

    method is one of {"closed_form", "asymptotic"}; infeasible marks the
    degenerate case where the SIC order cannot reach the target at any SNR
    and the probability saturates at 1.
    """

    value: float
    method: str
    infeasible: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"outage probability must be in [0, 1], got {self.value}")
        if self.method not in ("closed_form", "asymptotic"):
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified operating point of either mode.

    ris and rician give the CLT moments that every analytic result reads,
    and the Monte Carlo oracle draws raw channel realizations from them.
    """

    mode: str
    split: PowerSplit
    targets: RateTargets
    budget: LinkBudget
    ris: RisArray
    rician: RicianParams

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @cached_property
    def moments(self) -> ChannelMoments:
        """CLT moments of the cascaded channel sum."""
        return cascaded_moments(self.ris, self.rician)

    @cached_property
    def feasible(self) -> bool:
        """Whether the first-decoded signal can out-power its interference."""
        first = first_decoded(self.mode)
        own, other = self.split.shares(first)
        return own - other * self.targets.eps(first) > 0.0

    @cached_property
    def _thresholds(self) -> dict[str, float]:
        """Outage threshold omega of each signal; only a feasible scenario has them."""
        rho2, gamma = self.budget.noise_power, self.budget.gamma
        first_signal = first_decoded(self.mode)
        own, other = self.split.shares(first_signal)
        eps = self.targets.eps(first_signal)
        first = eps * rho2 / ((own - other * eps) * gamma)
        (second_signal,) = set(SIGNALS) - {first_signal}
        second = self.targets.eps(second_signal) * rho2 / (self.split.shares(second_signal)[0] * gamma)
        return {first_signal: first, second_signal: max(first, second)}

    def with_tx_power(self, p: float) -> "Scenario":
        """Same scenario at a different transmit power."""
        return replace(self, budget=self.budget.rescaled(p))


# --- decode order and instantaneous SINRs -----------------------------------


def first_decoded(mode: str) -> str:
    """The signal SIC decodes first: multi-cast in CO, uni-cast in NO."""
    return "multicast" if mode == "CO" else "unicast"


def _check_signal(signal: str) -> None:
    if signal not in SIGNALS:
        raise ValueError(f"signal must be one of {SIGNALS}, got {signal!r}")


def sinr(gain, sc: Scenario, signal: str):
    """SINR of a signal at a scalar or array gain, following the decode order.

    The first-decoded signal sees the other signal as interference; the
    second is decoded interference-free after SIC.  gamma and rho^2 come
    from the budget.
    """
    _check_signal(signal)
    own, other = sc.split.shares(signal)
    a = own * gain * sc.budget.gamma
    if signal == first_decoded(sc.mode):
        return a / (other * gain * sc.budget.gamma + sc.budget.noise_power)
    return a / sc.budget.noise_power


def outage_threshold(sc: Scenario, signal: str) -> float:
    """Gain threshold omega below which the (mode, signal) pair is in outage.

    The first-decoded signal contributes eps rho^2 / ((share - other * eps)
    gamma); the second-decoded signal must also survive the first decode, so
    its threshold is the max of both stages.  Raises InfeasibleError when
    the SIC feasibility condition fails (no finite threshold exists).
    """
    _check_signal(signal)
    if not sc.feasible:
        raise InfeasibleError(
            f"power split cannot decode the first {sc.mode} signal at any SNR"
        )
    return sc._thresholds[signal]


def outage_closed_form(sc: Scenario, signal: str) -> OutageResult:
    """Closed-form outage probability: folded-normal CDF at the threshold.

    An infeasible power split yields OP = 1 (tagged) so sweeps can render the
    degenerate region; outage_threshold raises for it instead.
    """
    _check_signal(signal)
    if not sc.feasible:
        return OutageResult(value=1.0, method="closed_form", infeasible=True)
    omega = outage_threshold(sc, signal)
    return OutageResult(value=float(effective_gain_cdf(omega, sc.moments)), method="closed_form")


def outage_asymptotic(sc: Scenario, signal: str) -> OutageResult:
    """Series form of the outage probability, valid in the low-SNR region.

    Expands both erf terms of the closed form as Maclaurin series; only the
    odd powers of sqrt(omega) survive:

        (2/sqrt(pi)) sum_n (-1)^n / (n! (2n+1) (2 v3)^((2n+1)/2))
                     sum_{k odd <= 2n+1} C(2n+1, k) m3^(2n+1-k) omega^(k/2)

    Requires (m3 + sqrt(omega)) / sqrt(2 v3) < 1; outside that region the
    expansion does not represent erf and RegionError is raised.
    """
    _check_signal(signal)
    if not sc.feasible:
        return OutageResult(value=1.0, method="asymptotic", infeasible=True)
    omega = outage_threshold(sc, signal)
    m3, v3 = sc.moments.m3, sc.moments.v3
    root = math.sqrt(omega)
    z = (m3 + root) / math.sqrt(2.0 * v3)
    if not z < 1.0:
        raise RegionError(
            f"asymptotic outage needs (m3+sqrt(omega))/sqrt(2 v3) < 1, got {z:.4f}"
        )
    if omega == 0.0:
        return OutageResult(value=0.0, method="asymptotic")
    total = 0.0
    for n in range(_SERIES_TERMS):
        inner = 0.0
        for k in range(1, 2 * n + 2, 2):
            inner += math.comb(2 * n + 1, k) * m3 ** (2 * n + 1 - k) * root**k
        term = (
            (-1.0) ** n
            / (math.factorial(n) * (2 * n + 1) * (2.0 * v3) ** (n + 0.5))
            * inner
        )
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            value = (2.0 / math.sqrt(math.pi)) * total
            return OutageResult(value=min(max(value, 0.0), 1.0), method="asymptotic")
    raise ConvergenceError(
        f"asymptotic outage series did not reach tol={_SERIES_TOL} in {_SERIES_TERMS} terms"
    )


def capacity_hardened(sc: Scenario, signal: str) -> float:
    """Channel capacity with the gain hardened to its deterministic limit m3^2.

    The first-decoded signal is interference limited and its capacity is a
    constant in p; the second-decoded signal sees a clean channel and gains
    exactly 1 bps/Hz per power doubling at high SNR.
    """
    _check_signal(signal)
    own, other = sc.split.shares(signal)
    if signal == first_decoded(sc.mode):
        return math.log2(1.0 + own / other)
    return math.log2(1.0 + own * (sc.moments.m3**2 * sc.budget.gamma / sc.budget.noise_power))


@dataclass(frozen=True)
class DiversityEstimate:
    """Measured high-SNR slope next to the amplitude-mean prediction m3."""

    slope: float
    m3_prediction: float
    points_used: int


def diversity_order_estimate(
    sc: Scenario, signal: str, snr_grid
) -> DiversityEstimate:
    """Least-squares slope of -log10(OP) against log10(p / rho^2).

    Only grid points whose closed-form OP lies in (1e-6, 0.5) enter the fit,
    and those points must span at least two decades of SNR; otherwise the
    grid cannot support a slope estimate and DegenerateGeometryError is
    raised.  The slope is reported next to m3 without asserting equality.
    """
    _check_signal(signal)
    snrs = [float(s) for s in snr_grid]
    if any(s <= 0.0 for s in snrs):
        raise ValueError("snr grid entries must be > 0")
    pts: list[tuple[float, float]] = []
    for s in snrs:
        p = s * sc.budget.noise_power
        res = outage_closed_form(sc.with_tx_power(p), signal)
        if res.infeasible:
            continue
        if 1e-6 < res.value < 0.5:
            pts.append((math.log10(s), -math.log10(res.value)))
    if len(pts) < 2:
        raise DegenerateGeometryError(
            "fewer than 2 grid points fall in the OP window (1e-6, 0.5)"
        )
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if xs.max() - xs.min() < 2.0:
        raise DegenerateGeometryError(
            f"usable grid spans {xs.max() - xs.min():.2f} decades, need >= 2"
        )
    slope = float(np.polyfit(xs, ys, 1)[0])
    return DiversityEstimate(
        slope=slope, m3_prediction=sc.moments.m3, points_used=len(pts)
    )
