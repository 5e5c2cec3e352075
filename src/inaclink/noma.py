"""NOMA superposition analysis: SINRs, outage and capacity.

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
rate targets, link budget, RIS array and Rician factors.  It works out
both outage thresholds (and so its feasibility) when it is built, in
`__post_init__`: they are a few float operations that every closed form
reads, and a plain attribute spares each read the Python-level `__get__`
and lock of `functools.cached_property`.  The CLT moments stay a lazy
`cached_property`: they sum two 1F1 series, which raise ConvergenceError
for a Rician K past the series budget, and a command that reads no moments
(`constellation`, say) must not fail on such a K.  Either way the values
are kept on the instance (past the frozen dataclass's `__setattr__`) and
always belong to the inputs stored beside them.  Nothing is cached across
instances: `dataclasses.replace` builds a new scenario that derives its
own values, and there is no cache keyed on inputs.  A different transmit
power is a different link budget, so it comes from the config
(`replace(cfg, tx_power_dbm=...).scenario()`).

Closed-form outage follows from the folded-normal gain law evaluated at a
threshold omega assembled from the rate targets and the link budget; the
asymptotic form replaces erf by its Maclaurin series and is only valid while
(m3 + sqrt(omega)) / sqrt(2 v3) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .channel import (
    ChannelMoments,
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
)
from .errors import (
    ConvergenceError,
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
        # written so that NaN fails too; 2^R - 1 overflows from R = 1024
        if not (0.0 < self.r_m < 1024.0 and 0.0 < self.r_u < 1024.0):
            raise ValueError("target rates must be finite and in (0, 1024) bps/Hz, where 2^R - 1 is finite")

    def rate(self, signal: str) -> float:
        return self.r_m if signal == "multicast" else self.r_u

    def eps(self, signal: str) -> float:
        return 2.0 ** self.rate(signal) - 1.0


@dataclass(frozen=True)
class OutageResult:
    """Outage probability, in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"outage probability must be in [0, 1], got {self.value}")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified operating point of either mode.

    ris and rician give the CLT moments that every analytic result reads,
    and the Monte Carlo oracle draws raw channel realizations from them.
    Both outage thresholds are worked out on construction, where they
    cannot fail (an underflowing denominator gives +inf); the moments are
    worked out on first read, since they fail past the 1F1 budget.
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
        object.__setattr__(self, "_thresholds", self._derive_thresholds())

    @cached_property
    def moments(self) -> ChannelMoments:
        """CLT moments of the cascaded channel sum."""
        return cascaded_moments(self.ris, self.rician)

    @property
    def feasible(self) -> bool:
        """Whether the first-decoded signal can out-power its interference."""
        return self._thresholds is not None

    def _derive_thresholds(self) -> dict[str, float] | None:
        """Outage threshold omega of each signal; None when the scenario is infeasible."""
        rho2, gamma = self.budget.noise_power, self.budget.gamma
        first_signal = first_decoded(self.mode)
        second_signal = "unicast" if first_signal == "multicast" else "multicast"
        own, other = self.split.shares(first_signal)
        eps = self.targets.eps(first_signal)
        if not own - other * eps > 0.0:
            return None
        first = _omega(eps * rho2, (own - other * eps) * gamma)
        second = _omega(self.targets.eps(second_signal) * rho2, self.split.shares(second_signal)[0] * gamma)
        return {first_signal: first, second_signal: max(first, second)}


# --- decode order and instantaneous SINRs -----------------------------------


def first_decoded(mode: str) -> str:
    """The signal SIC decodes first: multi-cast in CO, uni-cast in NO."""
    return "multicast" if mode == "CO" else "unicast"


def _omega(numerator: float, denominator: float) -> float:
    """A threshold eps rho^2 / (share gamma); +inf where the share times a
    subnormal gamma underflows to 0, since no finite gain then decodes."""
    return numerator / denominator if denominator > 0.0 else math.inf


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

    An infeasible power split yields OP = 1 so sweeps can render the
    degenerate region; outage_threshold raises for it instead.
    """
    _check_signal(signal)
    if not sc.feasible:
        return OutageResult(value=1.0)
    omega = outage_threshold(sc, signal)
    return OutageResult(value=float(effective_gain_cdf(omega, sc.moments)))


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
        return OutageResult(value=1.0)
    omega = outage_threshold(sc, signal)
    m3, v3 = sc.moments.m3, sc.moments.v3
    root = math.sqrt(omega)
    s = math.sqrt(2.0 * v3)
    z = (m3 + root) / s
    if not z < 1.0:
        raise RegionError(
            f"asymptotic outage needs (m3+sqrt(omega))/sqrt(2 v3) < 1, got {z:.4f}"
        )
    # in units of sqrt(2 v3) both bases lie in [0, 1) and the divisor is
    # n! (2n+1): no factor overflows, and none underflows to a zero divisor
    a, r = m3 / s, root / s
    total = 0.0
    for n in range(_SERIES_TERMS):
        inner = 0.0
        for k in range(1, 2 * n + 2, 2):
            inner += math.comb(2 * n + 1, k) * a ** (2 * n + 1 - k) * r**k
        term = (-1.0) ** n / (math.factorial(n) * (2 * n + 1)) * inner
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            value = (2.0 / math.sqrt(math.pi)) * total
            return OutageResult(value=min(max(value, 0.0), 1.0))
    raise ConvergenceError(
        f"asymptotic outage series did not reach tol={_SERIES_TOL} in {_SERIES_TERMS} terms"
    )


def capacity_hardened(sc: Scenario, signal: str) -> float:
    """Channel capacity with the gain hardened to its deterministic limit m3^2.

    The first-decoded signal gets log2(1 + own/other), the p -> inf ceiling
    with the noise dropped (1.32 bps/Hz at the default config, where Monte
    Carlo reads 2.8e-4 to 4.4e-3); the second-decoded signal sees a clean
    channel and gains exactly 1 bps/Hz per power doubling at high SNR.
    """
    _check_signal(signal)
    own, other = sc.split.shares(signal)
    if signal == first_decoded(sc.mode):
        return math.log2(1.0 + own / other)
    return math.log2(1.0 + own * (sc.moments.m3**2 * sc.budget.gamma / sc.budget.noise_power))

