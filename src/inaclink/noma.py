"""NOMA superposition analysis: SINRs, outage and capacity.

Two power-allocation scenarios share one machinery and differ only in the
decode order and default power split, both read from one table by `mode_spec`:

    CO: the multi-cast (navigation) signal carries more power (0.6/0.4) and
        is decoded first under uni-cast interference; the uni-cast signal is
        decoded interference-free after SIC.
    NO: the roles swap - the uni-cast signal carries more power (0.1/0.9)
        and is decoded first, the multi-cast signal after SIC.

A `Scenario` applies that order once, when it is built: `role(sc, signal)`
returns the signal's record of its own and the other signal's power share,
whether SIC decodes it first, its target rate and its outage threshold
omega (None when the split cannot decode the first signal at any SNR).
`sinr`, feasibility, the outage thresholds and closed forms, the hardened
capacities and the Monte Carlo outage events read only that record, and
`role` is the one place that rejects a signal name outside SIGNALS.

A `Scenario` is built from its physical inputs alone: mode, power split,
rate targets, link budget, RIS array and Rician factors.  Its two records
cannot fail to build (an underflowing denominator gives omega = +inf).
Construction computes only those two records, reading each signal's share
and rate straight from the split and the targets in decode order; the
split, the targets and the orbit, RF and bandwidth terms of the link budget
are computed once and shared between points (by `config` and
`geometry.link_budget`).  Like every record of the package (`_record`), a
`Scenario` is a frozen dataclass whose `__init__` stores its fields in the
instance dict, not through `object.__setattr__`; its `__post_init__`
stores the two role records there the same way.
The CLT moments are lazy: they sum two 1F1 series, which raise
ConvergenceError for a Rician K past the series budget, and a command that
reads no moments (`constellation`, say) must not fail on such a K.  Their
first read goes through a small descriptor that keeps them in the
instance's dict (past the frozen `__setattr__`) unless it raises; it takes
no lock, as `functools.cached_property` does on Python 3.11, and later
reads find the dict entry first.  Derived values are never shared between
scenarios, but inputs may be: they are frozen, and `config` hands equal
configs the same objects.  A different transmit power is a different link
budget, so it comes from the config (`replace(cfg, tx_power_dbm=...).scenario()`).

Closed-form outage follows from the folded-normal gain law evaluated at a
threshold omega assembled from the rate targets and the link budget; the
asymptotic form replaces erf by its Maclaurin series and is only valid while
(m3 + sqrt(omega)) / sqrt(2 v3) < 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._record import record
from .channel import (
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
    "mode_spec",
    "role",
    "sinr",
    "outage_threshold",
    "outage_closed_form",
    "outage_asymptotic",
    "capacity_hardened",
]

#: each mode's signals in SIC decode order and its default (alpha_m_sq, alpha_u_sq)
_MODE_TABLE = {"CO": (("multicast", "unicast"), (0.6, 0.4)), "NO": (("unicast", "multicast"), (0.1, 0.9))}
MODES = tuple(_MODE_TABLE)
SIGNALS = ("multicast", "unicast")

#: sum-to-one slack for the power split
_SPLIT_TOL = 1e-9

#: term budget and relative tolerance of the asymptotic outage series
_SERIES_TERMS = 60
_SERIES_TOL = 1e-12


@record
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


@record
class RateTargets:
    """Target rates in bps/Hz; eps = 2^R - 1 is the SINR threshold."""

    r_m: float
    r_u: float

    def __post_init__(self) -> None:
        # written so that NaN fails too; 2^R - 1 overflows from R = 1024
        if not (0.0 < self.r_m < 1024.0 and 0.0 < self.r_u < 1024.0):
            raise ValueError("target rates must be finite and in (0, 1024) bps/Hz, where 2^R - 1 is finite")


@record
class OutageResult:
    """Outage probability, in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"outage probability must be in [0, 1], got {self.value}")


#: a signal's part in its scenario's decode order, as `role` returns it
_Role = namedtuple("_Role", "own other first rate omega")


class _LazyMoments:
    """`Scenario.moments`, the CLT ChannelMoments: the first read keeps them in the instance's dict,
    which shadows this non-data descriptor from then on; a read that raises keeps nothing."""

    def __get__(self, sc: Scenario | None, owner=None):
        if sc is None:
            return self
        moments = sc.__dict__["moments"] = cascaded_moments(sc.ris, sc.rician)
        return moments


@record
class Scenario:
    """One fully-specified operating point of either mode.

    ris and rician give the CLT moments that every analytic result reads,
    and the Monte Carlo oracle draws raw channel realizations from them.
    Each signal's `role` record is worked out on construction; the moments
    are worked out on first read, since they fail past the 1F1 budget.
    """

    mode: str
    split: PowerSplit
    targets: RateTargets
    budget: LinkBudget
    ris: RisArray
    rician: RicianParams

    def __post_init__(self) -> None:
        first, second = mode_spec(self.mode)[0]
        split, targets, budget = self.split, self.targets, self.budget
        if first == "multicast":
            own, other, rate_first, rate_second = split.alpha_m_sq, split.alpha_u_sq, targets.r_m, targets.r_u
        else:
            own, other, rate_first, rate_second = split.alpha_u_sq, split.alpha_m_sq, targets.r_u, targets.r_m
        eps = _eps(rate_first)
        omega_first = omega_second = None
        if own - other * eps > 0.0:
            omega_first = _omega(eps * budget.noise_power, (own - other * eps) * budget.gamma)
            # the second-decoded signal must pass both stages; its own share is the first's other share
            omega_second = max(omega_first, _omega(_eps(rate_second) * budget.noise_power, other * budget.gamma))
        self.__dict__["_roles"] = {first: _Role(own, other, True, rate_first, omega_first),
                                   second: _Role(other, own, False, rate_second, omega_second)}

    moments = _LazyMoments()

    @property
    def feasible(self) -> bool:
        """Whether the first-decoded signal can out-power its interference."""
        # both signals' thresholds are None together
        return self._roles["multicast"].omega is not None


# --- decode order and instantaneous SINRs -----------------------------------


def mode_spec(mode: str) -> tuple[tuple[str, str], tuple[float, float]]:
    """A mode's signals in decode order and its default (alpha_m_sq, alpha_u_sq); ValueError outside MODES."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _MODE_TABLE[mode]


def role(sc: Scenario, signal: str) -> _Role:
    """A signal's record in sc's decode order: its own and the other signal's
    power share, whether SIC decodes it first, its target rate and its outage
    threshold omega (None when sc is infeasible); ValueError outside SIGNALS."""
    try:
        return sc._roles[signal]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"signal must be one of {SIGNALS}, got {signal!r}") from None


def _omega(numerator: float, denominator: float) -> float:
    """A threshold eps rho^2 / (share gamma); +inf where the share times a
    subnormal gamma underflows to 0, since no finite gain then decodes."""
    return numerator / denominator if denominator > 0.0 else math.inf


def _eps(rate: float) -> float:
    """SINR threshold 2^R - 1 of a target rate R in bps/Hz."""
    return 2.0 ** rate - 1.0


def sinr(gain, sc: Scenario, signal: str):
    """SINR of a signal at a scalar or array gain, following the decode order.

    The first-decoded signal sees the other signal as interference; the
    second is decoded interference-free after SIC.  gamma and rho^2 come
    from the budget.
    """
    r = role(sc, signal)
    a = r.own * gain * sc.budget.gamma
    if r.first:
        return a / (r.other * gain * sc.budget.gamma + sc.budget.noise_power)
    return a / sc.budget.noise_power


def outage_threshold(sc: Scenario, signal: str) -> float:
    """Gain threshold omega below which the (mode, signal) pair is in outage.

    The first-decoded signal contributes eps rho^2 / ((share - other * eps)
    gamma); the second-decoded signal must also survive the first decode, so
    its threshold is the max of both stages.  Raises InfeasibleError when
    the SIC feasibility condition fails (no finite threshold exists).
    """
    omega = role(sc, signal).omega
    if omega is None:
        raise InfeasibleError(
            f"power split cannot decode the first {sc.mode} signal at any SNR"
        )
    return omega


def outage_closed_form(sc: Scenario, signal: str) -> OutageResult:
    """Closed-form outage probability: folded-normal CDF at the threshold.

    An infeasible power split yields OP = 1 so sweeps can render the
    degenerate region; outage_threshold raises for it instead.
    """
    omega = role(sc, signal).omega
    if omega is None:
        return OutageResult(1.0)
    return OutageResult(float(effective_gain_cdf(omega, sc.moments)))


def outage_asymptotic(sc: Scenario, signal: str) -> OutageResult:
    """Series form of the outage probability, valid in the low-SNR region.

    Expands both erf terms of the closed form as Maclaurin series; only the
    odd powers of sqrt(omega) survive:

        (2/sqrt(pi)) sum_n (-1)^n / (n! (2n+1) (2 v3)^((2n+1)/2))
                     sum_{k odd <= 2n+1} C(2n+1, k) m3^(2n+1-k) omega^(k/2)

    Requires (m3 + sqrt(omega)) / sqrt(2 v3) < 1; outside that region the
    expansion does not represent erf and RegionError is raised.
    """
    omega = role(sc, signal).omega
    if omega is None:
        return OutageResult(1.0)
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
            return OutageResult(min(max(value, 0.0), 1.0))
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
    r = role(sc, signal)
    if r.first:
        return math.log2(1.0 + r.own / r.other)
    return math.log2(1.0 + r.own * (sc.moments.m3**2 * sc.budget.gamma / sc.budget.noise_power))

