"""Rician per-link moments and the cascaded RIS channel statistics.

The co-phased satellite-RIS-user channel sums L element-wise amplitude
products beta |h_l| |g_l|.  With unit-power Rician links, each amplitude has
mean m = sqrt(pi / (4 (1+K))) L_{1/2}(-K) and variance v = 1 - m^2; the CLT
then gives the sum a normal law with

    m3 = beta L m1 m2
    v3 = beta^2 L (m1^2 v2 + m2^2 v1 + v1 v2)

and the squared sum (the power gain) the folded-normal law of specialfn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specialfn

__all__ = [
    "RicianParams",
    "RisArray",
    "ChannelMoments",
    "rician_amplitude_moments",
    "cascaded_moments",
    "effective_gain_cdf",
]


@dataclass(frozen=True)
class RicianParams:
    """Rician K factors: satellite-RIS (k_r) and RIS-user (k_g).

    K = 0 is pure NLoS (Rayleigh); larger K means a stronger LoS component.
    """

    k_r: float
    k_g: float

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 <= self.k_r < math.inf:
            raise ValueError("k_r must be finite and >= 0")
        if not 0.0 <= self.k_g < math.inf:
            raise ValueError("k_g must be finite and >= 0")


@dataclass(frozen=True)
class RisArray:
    """RIS element count and the uniform amplitude coefficient beta."""

    num_elements: int
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in (0, 1], got {self.amplitude}")
        # below a normal double the CLT variance beta^2 L (...) underflows to 0
        if not self.amplitude * self.amplitude * self.num_elements >= 2.0**-1022:
            raise ValueError(
                f"amplitude^2 * num_elements must be >= 2^-1022, got amplitude={self.amplitude}, "
                f"num_elements={self.num_elements}")


@dataclass(frozen=True)
class ChannelMoments:
    """Per-link amplitude moments and the cascaded CLT moments."""

    m1: float  # satellite-RIS amplitude mean
    v1: float  # satellite-RIS amplitude variance
    m2: float  # RIS-user amplitude mean
    v2: float  # RIS-user amplitude variance
    m3: float  # cascaded sum mean
    v3: float  # cascaded sum variance


def rician_amplitude_moments(k: float) -> tuple[float, float]:
    """Mean and variance of a unit-power Rician amplitude with factor K.

    mean = sqrt(pi / (4 (1+K))) * 1F1(-1/2, 1; -K); variance = 1 - mean^2.
    K = 0 reduces to Rayleigh (mean sqrt(pi)/2); K -> inf approaches a
    deterministic unit amplitude.
    """
    if k < 0.0:
        raise ValueError(f"Rician factor must be >= 0, got {k}")
    mean = math.sqrt(math.pi / (4.0 * (1.0 + k))) * specialfn.kummer_1f1_half(-k)
    return mean, 1.0 - mean * mean


def cascaded_moments(ris: RisArray, rp: RicianParams) -> ChannelMoments:
    """CLT moments of the co-phased sum of L amplitude products."""
    m1, v1 = rician_amplitude_moments(rp.k_r)
    m2, v2 = rician_amplitude_moments(rp.k_g)
    beta_l = ris.amplitude * ris.num_elements
    return ChannelMoments(
        m1=m1,
        v1=v1,
        m2=m2,
        v2=v2,
        m3=beta_l * m1 * m2,
        v3=ris.amplitude * beta_l * (m1 * m1 * v2 + m2 * m2 * v1 + v1 * v2),
    )


def effective_gain_cdf(x, cm: ChannelMoments):
    """CDF of the cascaded power gain |h~|^2 at x (scalar or array)."""
    return specialfn.folded_normal_cdf(x, cm.m3, cm.v3)
