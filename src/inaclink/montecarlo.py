"""Independent Monte Carlo oracle for the analytic channel and NOMA formulas.

Draws physical Rician link realizations, applies the RIS co-phasing (which
reduces to summing amplitude products), simulates SIC decoding, and reports
empirical outage/capacity/distribution estimates with confidence intervals.

Determinism contract: trial i consumes exactly 4 L uniform doubles from a
Philox counter-based stream keyed by master_seed, starting at counter block
L * i (Philox emits 4 doubles per block).  Normals are produced by applying
the inverse normal CDF to those uniforms; numpy's ziggurat normals would
consume a data-dependent number of words and break the fixed stride.  As a
result the gain vector is bit-identical no matter how trials are split into
blocks or distributed, and every downstream estimate is too.  A run is set
by a config.McConfig, which holds only the trial count and the master seed:
a block is as many trials as fit in _MAX_BLOCK_DOUBLES, and the block size
never changes the gains.

Since trial i starts where trial i - 1 ends, the draw at (L, trials) is the
first 4 L trials doubles of the seed's stream: a run of n trials is a prefix
of a run of 2n, and at the same trial count the draw of an L that divides a
larger L' is a prefix of the draw of L'.  The element sweeps share the stream
that way: sample_cascaded_gains_by_array draws the largest L of a grid once
and reads every L that divides it from the same normals, bit-identical to
one sample_cascaded_gains call per array.

Sampler version 2 (SAMPLER_VERSION) keeps that stream of uniforms and
normals and changes only the transform.  Each link stays a power
|s + sigma (z1 + j z2)|^2 (scale, shift when K > 0, square, add); the two
links' powers are multiplied and one square root per element gives the
amplitude product that the L-element sum reduces.  Version 1 took two
hypot calls and multiplied the amplitudes; the version 2 gains lie within
1.1e-15 relative of version 1's (measured for L = 1..1024 and K up to
316), but they are not bit-identical to it, which is why the version
changed.

Because each block of trials is keyed by its own counter, a call that draws
at least 2**17 uniform doubles is split into at least one block per usable
CPU, and its blocks are sampled concurrently, each writing its own slice of
the result; the gains are bit-identical to a serial run.  The floor is
measured: on a 2-core host a two-way split cost ~1 ms of thread start-up,
broke even near 2**16 doubles and saved 30-45% from 2**17 up.  A smaller
call, a one-trial call, or a process with one usable CPU starts no thread.

scipy.special's ndtri is imported when the sampler is called, on the
calling thread before any worker starts, not at module import: importing
inaclink, or running a command that draws nothing, never loads
scipy.special, whose import costs a fresh process more than numpy's own.
This module, and numpy with it, is itself loaded only when one of its names
is first used: inaclink re-exports them lazily.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import Generator, Philox

from .channel import RicianParams, RisArray, cascaded_moments, effective_gain_cdf
from .noma import Scenario, first_decoded, sinr

if TYPE_CHECKING:
    from .config import McConfig

__all__ = [
    "SAMPLER_VERSION",
    "McEstimate",
    "sample_cascaded_gains",
    "sample_cascaded_gains_by_array",
    "outage_events",
    "wilson_half_width",
    "mc_outage",
    "mc_capacity",
    "ks_distance",
]

#: version of the transform from uniforms to gains; bumped whenever the
#: gains of a given seed change
SAMPLER_VERSION = 2

#: 95% two-sided normal quantile
_Z95 = 1.959963984540054

#: cap on doubles materialized per sampling block (~34 MB)
_MAX_BLOCK_DOUBLES = 1 << 22

#: doubles a call must draw before it is split across CPUs
_MIN_SPLIT_DOUBLES = 1 << 17

#: threads that sample blocks concurrently: the CPUs this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with a 95% confidence half-width."""

    mean: float
    half_width: float

    def __post_init__(self) -> None:
        if not self.half_width >= 0.0:  # NaN fails too
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")


def _uniform_block(master_seed: int, start_trial: int, n_trials: int, words_per_trial: int) -> np.ndarray:
    """Uniforms for trials [start_trial, start_trial + n_trials), shape (n, words)."""
    bg = Philox(key=master_seed)
    # one Philox counter block yields 4 doubles; words_per_trial is 4 L
    bg.advance(start_trial * (words_per_trial // 4))
    u = Generator(bg).random(n_trials * words_per_trial)
    # random() can emit exactly 0.0, which the inverse CDF maps to -inf
    np.maximum(u, 2.0**-53, out=u)
    return u.reshape(n_trials, words_per_trial)


def _rician_powers(z1: np.ndarray, z2: np.ndarray, k: float) -> np.ndarray:
    """Unit-power Rician powers |s + sigma (z1 + j z2)|^2 with LoS phase 0.

    Works in place on fresh contiguous arrays: the same arithmetic written
    into z's strided column slices took 1.8x as long per 4096 x 128 block.
    """
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = sigma * z1
    if k > 0.0:
        re += math.sqrt(k / (k + 1.0))
    re *= re
    im = sigma * z2
    im *= im
    re += im
    return re


def sample_cascaded_gains(ris: RisArray, rp: RicianParams, mc: McConfig) -> np.ndarray:
    """Power gains (sum_l beta |h_l| |g_l|)^2 for mc.trials independent trials."""
    return sample_cascaded_gains_by_array((ris,), rp, mc)[ris]


def sample_cascaded_gains_by_array(
    arrays: Iterable[RisArray], rp: RicianParams, mc: McConfig
) -> dict[RisArray, np.ndarray]:
    """The gains of several RIS arrays, drawn in one pass and keyed by array.

    Each array's gains equal sample_cascaded_gains(array, rp, mc) bit for
    bit.  The draw at (L, trials) is the first 4 L trials doubles of the
    seed's stream, so the largest L of a grid draws the stream once and every
    L that divides it reads a prefix of the same normals; an L that does not
    divide it starts the next such group.
    """
    arrays = dict.fromkeys(arrays)
    sums: dict[int, np.ndarray] = {}
    pending = sorted({ris.num_elements for ris in arrays}, reverse=True)
    while pending:
        group = [L for L in pending if pending[0] % L == 0]
        pending = [L for L in pending if pending[0] % L]
        sums.update(_element_sums(group, rp, mc))
    gains = {}
    for ris in arrays:
        total = ris.amplitude * sums[ris.num_elements]
        gains[ris] = total * total
    return gains


def _element_sums(group: list[int], rp: RicianParams, mc: McConfig) -> dict[int, np.ndarray]:
    """Row sums sum_l |h_l| |g_l| of every L in group, largest first, from one draw.

    Every L divides group[0], so a block of group[0]-element trials holds a
    whole number of L-element trials; L reads the first 4 L rows doubles of
    the block as its rows trials.
    """
    from scipy.special import ndtri  # here, on the calling thread, before any worker starts

    top = group[0]
    words = 4 * top
    block = max(1, _MAX_BLOCK_DOUBLES // words)
    if mc.trials * words < _MIN_SPLIT_DOUBLES:
        workers = 1
    else:
        # at least one block per usable CPU
        block = min(block, -(-mc.trials // _WORKERS))
        workers = min(_WORKERS, -(-mc.trials // block))
    if workers > 1:
        # the blocks in flight share the memory cap
        block = max(1, min(block, _MAX_BLOCK_DOUBLES // (workers * words)))
    sums = {L: np.empty(mc.trials) for L in group}

    def fill(start: int) -> None:
        # runs on worker threads, so it calls no public inaclink function:
        # span tracers that wrap those assume serial calls
        n = min(block, mc.trials - start)
        u = _uniform_block(mc.master_seed, start, n, words)
        z = ndtri(u, out=u).reshape(-1)
        for L in group:
            first = start * (top // L)
            rows = min(n * (top // L), mc.trials - first)
            if rows <= 0:
                continue
            zl = z[: 4 * L * rows].reshape(rows, 4 * L)
            power = _rician_powers(zl[:, :L], zl[:, L : 2 * L], rp.k_r)
            power *= _rician_powers(zl[:, 2 * L : 3 * L], zl[:, 3 * L :], rp.k_g)
            # one square root per element: |h_l| |g_l| = sqrt(|h_l|^2 |g_l|^2)
            sums[L][first : first + rows] = np.sum(np.sqrt(power, out=power), axis=1)

    starts = range(0, mc.trials, block)
    if workers == 1:
        for start in starts:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() waits for every block and re-raises the first error
            list(pool.map(fill, starts))
    return sums


def outage_events(gains: np.ndarray, sc: Scenario, signal: str) -> np.ndarray:
    """Boolean outage indicators, one per trial, following the SIC order.

    The first-decoded signal is in outage when its own rate misses its
    target.  The second-decoded signal is in outage when the first decode
    fails (SIC impossible) or when, after SIC, its own rate misses.
    """
    first = first_decoded(sc.mode)
    first_fail = np.log2(1.0 + sinr(gains, sc, first)) < sc.targets.rate(first)
    if signal == first:
        return first_fail
    second_fail = np.log2(1.0 + sinr(gains, sc, signal)) < sc.targets.rate(signal)
    return first_fail | (~first_fail & second_fail)


def wilson_half_width(successes: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, n], got successes={successes}, n={n}")
    p = successes / n
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))) / (1.0 + z2 / n)


def mc_outage(gains: np.ndarray, sc: Scenario, signal: str) -> McEstimate:
    """Empirical outage frequency over sampled gains, with a Wilson 95% half-width."""
    n = len(gains)
    count = int(np.count_nonzero(outage_events(gains, sc, signal)))
    return McEstimate(mean=count / n, half_width=wilson_half_width(count, n))


def mc_capacity(gains: np.ndarray, sc: Scenario, signal: str) -> McEstimate:
    """Empirical mean rate log2(1 + SINR) over sampled gains, with a normal-approximation half-width."""
    n = len(gains)
    rates = np.log2(1.0 + sinr(gains, sc, signal))
    hw = _Z95 * float(np.std(rates, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return McEstimate(mean=float(np.mean(rates)), half_width=hw)


def ks_distance(ris: RisArray, rp: RicianParams, mc: McConfig) -> float:
    """Kolmogorov-Smirnov distance between sampled gains and the CLT closed form.

    Needs at least 1e4 trials for the empirical CDF to resolve the 0.01-0.02
    accuracy band being measured.
    """
    if mc.trials < 10_000:
        raise ValueError(f"ks_distance needs >= 1e4 trials, got {mc.trials}")
    gains = np.sort(sample_cascaded_gains(ris, rp, mc))
    cm = cascaded_moments(ris, rp)
    f = effective_gain_cdf(gains, cm)
    n = mc.trials
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))
