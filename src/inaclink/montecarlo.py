"""Independent Monte Carlo oracle for the analytic channel and NOMA formulas.

Draws physical Rician link realizations, applies the RIS co-phasing (which
reduces to summing amplitude products), simulates SIC decoding, and reports
empirical outage/capacity/distribution estimates with confidence intervals.
The decoding reads each signal's `noma.role` record, the same decode order,
shares and target rates that the closed forms read.

Determinism contract: trial i consumes exactly 4 L uniform doubles from a
Philox counter-based stream keyed by master_seed, starting at counter block
L * i (Philox emits 4 doubles per block).  Normals are produced by applying
the inverse normal CDF to those uniforms; numpy's ziggurat normals would
consume a data-dependent number of words and break the fixed stride.  As a
result the gain vector is bit-identical no matter how trials are split into
blocks or distributed, and every downstream estimate is too.  A run is set
by a config.McConfig, which holds only the trial count and the master seed.

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

Because each block of trials is keyed by its own counter, a call cuts the
trials of each group of L that divide the group's largest, top, into blocks
of max(1, min(_BLOCK_DOUBLES // 4 top, ceil(trials / _WORKERS))) trials: a
block holds at most _BLOCK_DOUBLES = 2^18 uniforms (2 MB, one core's L2
cache) unless one trial needs more, and each group gets at least one block
per usable CPU (a call of fewer trials than CPUs gets one block per trial).
The blocks of all groups form one lazy stream, each cut only when one of at
most _WORKERS threads takes it; a thread writes its block's own slice of
the result and takes the next.  The gains are bit-identical to a pool of
one, at most _WORKERS blocks are in flight, and no per-block record is
kept.  A failed block, or an interrupt of the caller, closes the stream:
each worker stops once the block it holds is done.  A block whose uniforms
cannot be allocated raises InfeasibleError naming its L; a trial count
whose one double per trial cannot be allocated raises it naming the count,
before any block is cut.  There is no serial path, so a small call pays
the pool's start-up: 0.2-0.6 ms on a 2-core host (1 and 100 trials, L = 8).

Importing this module loads neither numpy nor scipy.special.  The sampler
imports numpy, numpy.random and scipy.special's ndtri when it is called,
on the calling thread before any worker starts; each estimator imports
numpy when it is called.  So `sweeps` imports the sampler's names at module
level, and a command that draws nothing (`analyze`, `constellation`) loads
no numpy: numpy's import is most of a fresh process's start-up, and
scipy.special's costs more than numpy's own.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING

from ._record import record
from .channel import RicianParams, RisArray, cascaded_moments, effective_gain_cdf
from .errors import InfeasibleError
from .noma import SIGNALS, Scenario, role, sinr

if TYPE_CHECKING:
    import numpy as np

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

#: uniforms per sampling block: 2^18 doubles are 2 MB, one core's L2 cache on
#: the 2-core Xeon where ks-grid ran within noise at 2^17, 2^18 and 2^19
_BLOCK_DOUBLES = 1 << 18

#: threads that sample blocks concurrently: the CPUs this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@record
class McEstimate:
    """Point estimate with a 95% confidence half-width."""

    mean: float
    half_width: float

    def __post_init__(self) -> None:
        if not self.half_width >= 0.0:  # NaN fails too
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")


def _uniform_block(master_seed: int, start_trial: int, n_trials: int, words_per_trial: int) -> np.ndarray:
    """Uniforms for trials [start_trial, start_trial + n_trials), shape (n, words)."""
    import numpy as np
    from numpy.random import Generator, Philox

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
    # here, on the calling thread, before any worker starts: a worker's _uniform_block only looks them up
    import numpy as np
    import numpy.random  # noqa: F401
    from scipy.special import ndtri

    arrays = dict.fromkeys(arrays)
    try:
        sums = {ris.num_elements: np.empty(mc.trials) for ris in arrays}
    except (MemoryError, ValueError):  # ValueError: numpy sizes no array of 2^63 or more items
        raise InfeasibleError(
            f"{mc.trials} trials need one double each, more than this host can allocate") from None
    groups = []
    pending = sorted(sums, reverse=True)
    # numpy sizes no array past intp's largest byte count; 4 L doubles are 32 L bytes
    if pending and 32 * pending[0] > np.iinfo(np.intp).max:
        raise InfeasibleError(f"one trial at L = {pending[0]} needs 4 L doubles, more than numpy can size")
    while pending:
        group = [L for L in pending if pending[0] % L == 0]
        pending = [L for L in pending if pending[0] % L]
        groups.append((group, max(1, min(_BLOCK_DOUBLES // (4 * group[0]), -(-mc.trials // _WORKERS)))))
    # each block is cut when a worker takes it, so no block exists before
    stream = ((group, start, min(size, mc.trials - start))
              for group, size in groups for start in range(0, mc.trials, size))

    def fill(block: tuple[list[int], int, int]) -> None:
        # runs on worker threads, so it calls no public inaclink function:
        # span tracers that wrap those assume serial calls.  Every L of the
        # group divides top, so the block's n top-element trials hold
        # n top / L whole L-element trials, read from the front of the block
        group, start, n = block
        top = group[0]
        try:
            u = _uniform_block(mc.master_seed, start, n, 4 * top)
        except MemoryError:
            # a block holds at most _BLOCK_DOUBLES uniforms unless one trial needs more: L is too large
            raise InfeasibleError(
                f"one trial at L = {top} needs 4 L doubles, more than this host can allocate") from None
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

    lock = threading.Lock()

    def drain() -> None:
        # a worker samples blocks until the stream ends or is closed
        while True:
            with lock:
                block = next(stream, None)
            if block is None:
                return
            fill(block)

    workers = min(_WORKERS, mc.trials)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:  # around the submits too: an interrupt can land while a worker starts
            tasks = [pool.submit(drain) for _ in range(workers)]
            wait(tasks, return_when=FIRST_EXCEPTION)
        finally:
            # after a failed block or an interrupt, each worker stops once its block is done
            with lock:
                stream.close()
    for task in tasks:
        task.result()  # re-raises a worker's error
    gains = {}
    for ris in arrays:
        total = ris.amplitude * sums[ris.num_elements]
        gains[ris] = total * total
    return gains


def outage_events(gains: np.ndarray, sc: Scenario, signal: str) -> np.ndarray:
    """Boolean outage indicators, one per trial, following the SIC order of the signal's `role`.

    A signal is in outage when its own rate misses its target.  The
    second-decoded signal is also in outage when the first decode fails,
    since SIC then cannot remove the first signal.
    """
    import numpy as np

    r = role(sc, signal)
    fail = np.log2(1.0 + sinr(gains, sc, signal)) < r.rate
    if r.first:
        return fail
    (first,) = (s for s in SIGNALS if s != signal)
    return (np.log2(1.0 + sinr(gains, sc, first)) < role(sc, first).rate) | fail


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
    import numpy as np

    n = len(gains)
    count = int(np.count_nonzero(outage_events(gains, sc, signal)))
    return McEstimate(mean=count / n, half_width=wilson_half_width(count, n))


def mc_capacity(gains: np.ndarray, sc: Scenario, signal: str) -> McEstimate:
    """Empirical mean rate log2(1 + SINR) over sampled gains, with a normal-approximation half-width."""
    import numpy as np

    n = len(gains)
    rates = np.log2(1.0 + sinr(gains, sc, signal))
    hw = _Z95 * float(np.std(rates, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return McEstimate(mean=float(np.mean(rates)), half_width=hw)


def ks_distance(ris: RisArray, rp: RicianParams, mc: McConfig) -> float:
    """Kolmogorov-Smirnov distance between sampled gains and the CLT closed form.

    Needs at least 1e4 trials for the empirical CDF to resolve the 0.01-0.02
    accuracy band being measured.
    """
    import numpy as np

    if mc.trials < 10_000:
        raise ValueError(f"ks_distance needs >= 1e4 trials, got {mc.trials}")
    gains = np.sort(sample_cascaded_gains(ris, rp, mc))
    cm = cascaded_moments(ris, rp)
    f = effective_gain_cdf(gains, cm)
    n = mc.trials
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))
