"""Host-speed probes: fixed reference kernels timed between a workload's ops.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every instruction by up to about 1.7x, in spells of seconds to minutes, so
two runs of the same code can differ by more than any useful bound.  A
probe is a fixed piece of work that uses no inaclink code: `bulk` is the
sampler's kind of work (Philox uniforms, ndtri, hypot, a reduction and a
sort over large arrays) and `scalar` the solver's and closed forms' kind
(Gauss-Newton steps on stacked design rows with lstsq, small dataclasses, a
series loop in Python, scalar scipy calls).  Each workload mixes them to
match its own work.

A run times a probe at the start, after every PROBE_EVERY_S of op time and
at the end.  Each op's latency is scaled by the probe's nominal time over
the mean of the two probes around it: the result reads in seconds of a
host on which the probe takes its nominal time (about the typical speed of
the 2-core box of the seed numbers).  A change to inaclink cannot move a probe, so
it moves the scaled latencies as it moves the raw ones.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

#: op time between two probes
PROBE_EVERY_S = 1.0


def bulk() -> float:
    """Array work of the sampler's kind: 2e6 uniforms to a sorted reduction."""
    u = Generator(Philox(key=2024)).random((4, 500_000))
    z = special.ndtri(u)
    amplitude = np.hypot(z[0] + 1.0, z[1]) * np.hypot(z[2] + 1.0, z[3])
    total = np.sort(amplitude.reshape(-1, 16).sum(axis=1))
    return float(total[len(total) // 2])


@dataclasses.dataclass(frozen=True)
class _Point:
    a: float = 1.0
    b: float = 2.0


#: eight anchors some 2e7 m away, as in a pseudorange scene
_ANCHORS = [np.array([math.cos(k), math.sin(k), 0.3 * k]) * 2.0e7 for k in range(8)]


def scalar() -> float:
    """Per-call work of the solver's and closed forms' kind.

    Each step stacks the design rows of a Gauss-Newton position step and
    solves them with lstsq, then sums a short series in Python.
    """
    acc = 0.0
    x = np.zeros(4)
    for i in range(200):
        rows = []
        for anchor in _ANCHORS:
            d = anchor - x[:3]
            rows.append(np.append(-d / np.linalg.norm(d), 1.0))
        b = np.array([float(np.linalg.norm(anchor - x[:3])) for anchor in _ANCHORS]) * 1e-9 + i * 1e-3
        dx, _, rank, _ = np.linalg.lstsq(np.vstack(rows), b, rcond=None)
        acc += float(dx @ dx) + rank
        p = dataclasses.replace(_Point(), a=1.0 + i * 1e-3)
        term, total = 1.0, 1.0
        for k in range(1, 40):
            term *= (p.a + k - 1) / ((p.b + k - 1) * k) * 0.5
            total += term
        acc += total + math.log1p(p.a) + float(special.erfc(p.a))
    return acc


#: nominal seconds of each kernel, about their typical time on the box of the seed numbers
NOMINAL_S = {"bulk": 0.100, "scalar": 0.035}
KERNELS = {"bulk": bulk, "scalar": scalar}


class Probe:
    """Times a fixed mix of kernels; `scale` turns raw seconds into nominal ones."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = kernels
        self.nominal = sum(NOMINAL_S[k] for k in kernels)
        self.times: list[float] = []
        self.since = 0.0  # op time since the last probe

    def measure(self) -> None:
        t0 = time.perf_counter()
        for name in self.kernels:
            KERNELS[name]()
        self.times.append(time.perf_counter() - t0)
        self.since = 0.0

    def after_op(self, seconds: float) -> int:
        """Account one op's time; probe if due.  Returns the index of the op's opening probe."""
        opening = len(self.times) - 1
        self.since += seconds
        if self.since >= PROBE_EVERY_S:
            self.measure()
        return opening

    def scale(self, seconds: float, opening: int) -> float:
        """`seconds` measured between probes `opening` and `opening + 1`, at nominal host speed."""
        return seconds * self.nominal / (0.5 * (self.times[opening] + self.times[opening + 1]))

    def warm_up(self) -> None:
        """Run the kernels once untimed, so imports and first-call costs are paid."""
        for name in self.kernels:
            KERNELS[name]()
