"""Orbital geometry, large-scale fading, and constellation sizing.

Everything here is deterministic: slant range from the elevation angle via
the law of cosines, free-space path gains for the satellite and RIS-user
legs, the aggregate link budget, and the spherical-cap coverage math that
sizes a minimal constellation.

Internal units are strictly SI (meters, Hz, watts); dB and km appear only
at configuration and report boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError

__all__ = [
    "SPEED_OF_LIGHT",
    "OrbitGeometry",
    "RfParams",
    "LinkBudget",
    "slant_range",
    "large_scale_gain_satellite",
    "large_scale_gain_ris_user",
    "noise_power_watts",
    "link_budget",
    "geocentric_angle",
    "coverage_area",
    "min_satellites",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: thermal noise density at ~290 K, dBm per Hz of bandwidth
NOISE_DENSITY_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class OrbitGeometry:
    """Earth radius, satellite height above the surface, and elevation angle."""

    r_e: float  # Earth radius, m
    r_m: float  # satellite height above surface, m
    elevation: float  # elevation angle theta, rad

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 < self.r_e < math.inf:
            raise ValueError(f"r_e must be finite and > 0, got {self.r_e}")
        if not 0.0 < self.r_m < math.inf:
            raise ValueError(f"r_m must be finite and > 0, got {self.r_m}")
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValueError(f"elevation must be in [0, pi/2], got {self.elevation}")


@dataclass(frozen=True)
class RfParams:
    """Carrier and path-loss parameters of the two hops."""

    f_c: float  # carrier frequency, Hz
    g_t: float  # transmit antenna gain, linear
    alpha1: float  # satellite-side path-loss exponent
    alpha2: float  # RIS-user path-loss exponent
    d_ru: float  # RIS-to-user distance, m

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not self.f_c > 0.0:
            raise ValueError(f"f_c must be > 0, got {self.f_c}")
        if not self.g_t >= 1.0:
            raise ValueError(f"g_t must be >= 1 (linear), got {self.g_t}")
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise ValueError("path-loss exponents must be > 0")
        if not self.d_ru > 0.0:
            raise ValueError(f"d_ru must be > 0, got {self.d_ru}")


@dataclass(frozen=True)
class LinkBudget:
    """Aggregate deterministic gain and noise power of one scenario.

    gamma = l(d) * l(d_RU) * p * g_sp multiplies the random squared channel
    sum; noise_power is the AWGN power over the receive bandwidth.  The
    transmit power p is kept only inside gamma: another power is another
    budget, built by `link_budget` (from a config, its `tx_power_dbm`).
    """

    gamma: float  # aggregate deterministic gain, linear
    noise_power: float  # rho^2, W

    def __post_init__(self) -> None:
        # a float product overflows to inf without raising; NaN fails too
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError(f"noise_power must be finite and > 0, got {self.noise_power}")


def slant_range(geom: OrbitGeometry) -> float:
    """Satellite-to-user distance for an elevation angle theta.

    d = sqrt(r_e^2 sin^2(theta) + r_m^2 + 2 r_e r_m) - r_e sin(theta);
    at zenith this collapses to exactly r_m.
    """
    s = geom.r_e * math.sin(geom.elevation)
    return math.sqrt(s * s + geom.r_m * geom.r_m + 2.0 * geom.r_e * geom.r_m) - s


def large_scale_gain_satellite(d: float, rf: RfParams) -> float:
    """Satellite-side large-scale gain G_T (c / (4 pi f_c))^2 d^(-alpha1)."""
    if not d > 0.0:  # NaN fails too
        raise ValueError(f"distance must be > 0, got {d}")
    wavelength_term = SPEED_OF_LIGHT / (4.0 * math.pi * rf.f_c)
    return rf.g_t * wavelength_term**2 * d**-rf.alpha1


def large_scale_gain_ris_user(rf: RfParams) -> float:
    """RIS-to-user large-scale gain (c / (4 pi f_c))^2 d_RU^(-alpha2)."""
    wavelength_term = SPEED_OF_LIGHT / (4.0 * math.pi * rf.f_c)
    return wavelength_term**2 * rf.d_ru**-rf.alpha2


def noise_power_watts(bandwidth: float) -> float:
    """Thermal AWGN power over `bandwidth` Hz: -174 dBm/Hz + 10 log10(BW), in watts."""
    if not bandwidth > 0.0:  # NaN fails too
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    dbm = NOISE_DENSITY_DBM_PER_HZ + 10.0 * math.log10(bandwidth)
    return 10.0 ** (dbm / 10.0) * 1e-3


def link_budget(
    geom: OrbitGeometry, rf: RfParams, p: float, g_sp: float, bandwidth: float
) -> LinkBudget:
    """Compose the deterministic link budget of one scenario."""
    if not p > 0.0:  # NaN fails too
        raise ValueError(f"tx power must be > 0, got {p}")
    if not g_sp > 0.0:
        raise ValueError(f"spread gain must be > 0, got {g_sp}")
    d = slant_range(geom)
    # multiply the mantissas and sum the exponents: a partial product that the
    # spread gain would scale back up cannot underflow to 0 on the way; where
    # every partial product is normal this is the left-to-right product, bit for bit
    mantissa, exponent = 1.0, 0
    for factor in (large_scale_gain_satellite(d, rf), large_scale_gain_ris_user(rf), p, g_sp):
        m, e = math.frexp(factor)
        mantissa *= m
        exponent += e
    try:
        gamma = math.ldexp(mantissa, exponent)
    except OverflowError:
        gamma = math.inf  # for LinkBudget to reject with its message
    return LinkBudget(gamma=gamma, noise_power=noise_power_watts(bandwidth))


def geocentric_angle(geom: OrbitGeometry) -> float:
    """Geocentric half-angle of the satellite's visibility cap.

    upsilon = arccos((r_e / (r_e + r_m)) cos(theta)) - theta; zero at zenith.
    """
    ratio = geom.r_e / (geom.r_e + geom.r_m)
    return math.acos(ratio * math.cos(geom.elevation)) - geom.elevation


def coverage_area(geom: OrbitGeometry) -> float:
    """Spherical-cap ground area 2 pi r_e^2 (1 - cos(upsilon)), m^2."""
    upsilon = geocentric_angle(geom)
    return 2.0 * math.pi * geom.r_e**2 * (1.0 - math.cos(upsilon))


def min_satellites(geom: OrbitGeometry) -> int:
    """Ideal non-overlapping cap count covering the full sphere.

    N = ceil(4 pi r_e^2 / A) = ceil(2 / (1 - cos(upsilon))); real
    constellations need overlap, so this is a lower bound by construction.
    """
    upsilon = geocentric_angle(geom)
    denom = 1.0 - math.cos(upsilon)
    if denom <= 0.0:
        raise InfeasibleError(
            "coverage area is zero at zenith-only visibility (elevation = pi/2)"
        )
    return math.ceil(2.0 / denom)
