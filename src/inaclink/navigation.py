"""Pseudorange synthesis and iterative least-squares positioning.

The receiver sees four measurements: three direct navigation-satellite
pseudoranges and one RIS-relayed link whose satellite-RIS leg r_tauR is a
known constant subtracted by the receiver, leaving a RIS-anchored range.
The solver linearizes the range model at the current state estimate
(x, y, z, c dt) and applies Gauss-Newton steps from a cold start at the
origin, until the residual cost falls below the fixed stop `_LOSS` (1e-6 m^2)
or the caller's iteration cap is spent.  Each step is the least-squares
solution of the 4x4 linearized system by LAPACK's SVD-based gelsd, not a
normal-equation solve.

The step calls gelsd through `numpy.linalg.lapack_lite`: the same LAPACK
build, routine, workspace query and rcond (eps * 4) as `np.linalg.lstsq`, so
each step has the bytes and rank `lstsq` gives, at half its cost per step
(lstsq's wrapper copies and checks cost more than the LAPACK call).
lapack_lite hands LAPACK the raw buffers, and LAPACK reads a C-order array as
its column-major transpose, so the solver keeps the design matrix transposed
(row j of `ut` is column j of U); gelsd overwrites that buffer, and the
right-hand side with the step, in place.  `scipy.linalg.lapack.dgelsd` is as
fast, but importing `scipy.linalg` costs 60-75 ms on a fresh `inaclink
position`; `np.linalg.solve` (LU, not SVD) moves 1 of the benchmark's 400
catalogue fixes by more than ~6 mm.

A `NavScene` works out what depends on the scene alone once, when it is
built: the relay leg `r_tauR`, the `anchors()` stack and the model
pseudoranges at the truth (its overflow check needs them, and
`synthesize_pseudoranges` adds the noise to them).  The three records
(`_record`) keep their vectors as tuples of Python floats, which each
`__post_init__` converts from any sequence or array and stores in the
instance dict: they are immutable, and compare and hash by value as any
dataclass of floats does.

`lsm_solve` builds its design matrix and model pseudoranges inline, but its
arithmetic is that of stacking design rows [(x - a)/|x - a|, 1] and calling
`predicted_pseudoranges`, so a fix is bit-identical to the row-by-row loop:
same state bytes, iteration count and final cost.  That holds only because
each range keeps its own norm.  The design rows and the RIS-relayed range
take |d| as sqrt(d . d) (what a 1-D `np.linalg.norm` does); the direct ranges
as sqrt(np.add.reduce(d * d, axis=1)) (what `norm(axis=1)` does).  The two
sum in another order and can differ in the last bit (on about one random row
in ten with numpy 2.4 and OpenBLAS on x86-64).  Synthesis is the same model
at the truth plus noise, and `dilution_of_precision` stacks the same rows.

Three calls of each iteration stay in numpy for their bits: the design-row
norms (one stacked matmul), the cost `b.dot(b)` and the gelsd step.  The
first two run OpenBLAS's ddot, which fuses multiply-adds; Python 3.11 floats
have none, and a float sum of four squares differs from ddot on about one
random residual in four.  The rest is Python float code, which rounds as the
ufuncs do: the differences, the square roots, the direct ranges (add.reduce
over a length-3 row adds left to right, (d0^2 + d1^2) + d2^2, as floats do;
a test pins numpy's order), the residual, the design entries and the state
update.  Each buffer that numpy or LAPACK reads (the differences, the
residual and U transposed) is written by one `struct.pack_into`, and the
norms and the step are read back by one `tolist()` each.  U's clock entries
are |d| / |d|, exactly 1 for a finite |d|; after an overflow to inf they are 1.

Float arithmetic raises no `FloatingPointError`, but no overflow goes
unreported, since the floats cannot overflow before a numpy call does.  The
matmul and `b.dot(b)` report under `np.errstate(over="raise")`; while
they do not, each |d| and |b| is below sqrt(max double), about 1.3e154.  A
full-rank gelsd step is at most |b| / (rcond * sigma_max) < |b| / (4 eps),
below 2e169 (U's rows have norm sqrt(2), so sigma_max >= 1): it cannot push
the clock past the largest double, and a position it pushes past 1.3e154
overflows the next matmul.  So each difference is of a position within
2e169 of the origin and an anchor within 1.3e154 of it (else the first
matmul overflowed), and each design entry |d_j| / |d| is at most 1.

SNR enters through a delay-estimation noise model: sigma scales as
1/sqrt(SNR) down to a code-resolution floor, so navigation accuracy
improves with RIS gain and then plateaus.
"""

from __future__ import annotations

import math
import struct
from dataclasses import field

import numpy as np
from numpy.linalg import lapack_lite

from ._record import record
from .errors import DegenerateGeometryError
from .geometry import SPEED_OF_LIGHT

__all__ = [
    "NavScene",
    "PseudorangeSet",
    "PositionFix",
    "synthesize_pseudoranges",
    "predicted_pseudoranges",
    "lsm_solve",
    "dilution_of_precision",
    "range_noise_from_snr",
]


def _floats(x, name: str, shape: tuple) -> tuple:
    """x as a tuple of Python floats (of 3-tuples for a 2-D shape), checked to have this shape."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return tuple(map(tuple, arr.tolist())) if len(shape) == 2 else tuple(arr.tolist())


@record
class NavScene:
    """Scene truth: anchor positions, the user, and the receiver clock bias.

    Keeps each position as a tuple of floats, and `anchors()` and the
    pseudoranges at the truth (module notes); a scene whose pseudoranges
    overflow is rejected."""

    sat_positions: tuple  # three navigation satellites, each (x, y, z), m
    inac_sat_position: tuple  # INAC satellite (x, y, z), m
    ris_position: tuple  # RIS (x, y, z), m
    true_user: tuple  # user (x, y, z), m
    clock_bias: float  # receiver clock offset, s
    #: known satellite-RIS leg length of the relayed measurement, m
    r_tau_r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.__dict__
        d["sat_positions"] = sats = _floats(self.sat_positions, "sat_positions", (3, 3))
        for name in ("inac_sat_position", "ris_position", "true_user"):
            d[name] = _floats(d[name], name, (3,))
        leg = np.subtract(self.inac_sat_position, self.ris_position)
        d["r_tau_r"] = math.sqrt(leg.dot(leg))  # |leg| as a 1-D `np.linalg.norm` takes it
        d["_anchors"] = (*sats, self.ris_position)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = predicted_pseudoranges(self, (*self.true_user, SPEED_OF_LIGHT * self.clock_bias)).tolist()
        if not all(map(math.isfinite, rho)):
            raise ValueError("the pseudoranges at the true user overflow a double")
        d["_rho_at_truth"] = tuple(rho)

    def anchors(self) -> tuple:
        """Anchor points of the four measurements: three satellites, then the RIS."""
        return self._anchors


@record
class PseudorangeSet:
    """Four measured pseudoranges, m."""

    rho: tuple  # four floats

    def __post_init__(self) -> None:
        rho = _floats(self.rho, "rho", (4,))
        if not all(map(math.isfinite, rho)):
            raise ValueError("pseudoranges must be finite")
        self.__dict__["rho"] = rho


@record
class PositionFix:
    """Solved state (x, y, z, c dt in meters), iterations used, final cost.

    The state is kept as a 4-tuple of floats, converted from any sequence
    or array of four values.  `converged` is True iff the final cost is
    below the stop `_LOSS`; a fix that ran to the iteration cap without
    getting there is returned as it stands, with `converged` False.
    """

    state: tuple
    iterations_used: int
    final_cost: float
    converged: bool

    def __post_init__(self) -> None:
        self.__dict__["state"] = _floats(self.state, "state", (4,))

    @property
    def position(self) -> tuple:
        return self.state[:3]

    @property
    def clock_bias_s(self) -> float:
        return self.state[3] / SPEED_OF_LIGHT


def synthesize_pseudoranges(
    scene: NavScene, noise_sigma: float, rng: np.random.Generator
) -> PseudorangeSet:
    """Measured pseudoranges: the model at the scene's truth plus Gaussian noise.

    Rows 1-3: |sat_i - user| + c dt + noise.  Row 4 relays through the RIS:
    r_tauR + |ris - user| + c dt + noise.  noise_sigma is in meters.
    """
    if not noise_sigma >= 0.0:  # NaN fails too
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    return PseudorangeSet(rho=np.add(scene._rho_at_truth, noise_sigma * rng.standard_normal(4)))


def predicted_pseudoranges(scene: NavScene, state: tuple | np.ndarray) -> np.ndarray:
    """Model pseudoranges at a trial state (x, y, z, c dt), a sequence or array of four."""
    pos, clock = state[:3], state[3]
    out = np.empty(4)
    out[:3] = np.linalg.norm(np.subtract(scene.sat_positions, pos), axis=1) + clock
    out[3] = scene.r_tau_r + np.linalg.norm(np.subtract(scene.ris_position, pos)) + clock
    return out


#: rcond=None in np.linalg.lstsq: eps times the larger side of the 4x4 system
_RCOND = float(np.finfo(float).eps) * 4
#: LAPACK's integer.  lapack_lite takes iwork only as an np.intc array, but an
#: ILP64 LAPACK writes 8-byte integers into it, so iwork is sized in these.
_LAPACK_INT = np.dtype(np.int64 if lapack_lite._ilp64 else np.intc)


def _gelsd_workspace_size() -> tuple[int, int]:
    """(lwork, liwork) of a 4x4 gelsd with one right-hand side, from LAPACK's size query."""
    work = np.empty(1)
    iwork = np.zeros(1, _LAPACK_INT).view(np.intc)
    lapack_lite.dgelsd(4, 4, 1, np.empty((4, 4)), 4, np.empty(4), 4, np.empty(4), _RCOND, 0,
                       work, -1, iwork, 0)
    return int(work[0]), int(iwork.view(_LAPACK_INT)[0])


#: the query's answer depends only on the system's size, which never changes
_LWORK, _LIWORK = _gelsd_workspace_size()

#: the solver's stop: a residual cost below this many m^2 accepts the state
_LOSS = 1e-6

#: write 12, 4 or 16 floats into the buffer an ndarray exposes, in one call
_pack12, _pack4, _pack16 = (struct.Struct(f"{n}d").pack_into for n in (12, 4, 16))


def lsm_solve(pr: PseudorangeSet, scene: NavScene, iters: int = 20) -> PositionFix:
    """Iterative least-squares position/clock solution from the origin.

    Each iteration evaluates the residual b = rho - predicted(x), starting
    at x = 0 (the Earth's centre, no clock offset); if its quadratic cost is
    below _LOSS the state is accepted, otherwise the step dx = argmin
    |U dx - b| is applied, with U the stacked design rows, solved by
    LAPACK's gelsd (SVD).  After `iters` steps (an integer >= 1) the cost
    at the last state is reported as it stands.  Only the known geometry of
    the scene (satellite and RIS positions) is used; truth fields never
    leak into the solve.  Bit-identical to stacking the design rows and
    calling `predicted_pseudoranges` each iteration (see the module notes).

    The state, differences, ranges, residual and design entries are Python
    floats.  An iteration makes three numpy calls, each for bits that floats
    cannot reproduce: the stacked matmul of the row norms, the cost
    `b.dot(b)` and gelsd, called through `numpy.linalg.lapack_lite`.  Each
    buffer they read (d, b, and U transposed into the C-order `ut`, which
    LAPACK reads as column-major U) is written by one `struct.pack_into`;
    gelsd overwrites `ut`, and `b` with the step.  A rank below 4 raises
    DegenerateGeometryError, a nonzero gelsd info LinAlgError, as
    `np.linalg.lstsq` would.
    """
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22), (a30, a31, a32) = scene.anchors()
    r_tau_r, loss = scene.r_tau_r, _LOSS
    rho0, rho1, rho2, rho3 = pr.rho
    buf = np.empty(40 + _LWORK + _LIWORK)  # the one scratch buffer of the solve, cut into views
    d = buf[:12].reshape(4, 3)  # row i: the linearization point minus anchor i
    ut = buf[12:28].reshape(4, 4)  # design matrix, transposed
    # d . d of each row, residual in and step out, singular values, workspaces
    dots, b, s, work = buf[28:32], buf[32:36], buf[36:40], buf[40:40 + _LWORK]
    iwork = buf[40 + _LWORK:].view(np.intc)  # room for _LIWORK LAPACK integers of up to 8 bytes
    # the rows of d as stacked (1x3) and (3x1) matrices, and the dots as their (1x1) products
    rows, cols, dots_out = d[:, None, :], d[:, :, None], dots[:, None, None]
    matmul, dgelsd, sqrt = np.matmul, lapack_lite.dgelsd, math.sqrt
    x0 = x1 = x2 = clock = 0.0  # the start: the origin, with no clock offset
    for k in range(1, iters + 2):  # pass iters + 1 only scores the last step
        d00, d01, d02 = x0 - a00, x1 - a01, x2 - a02
        d10, d11, d12 = x0 - a10, x1 - a11, x2 - a12
        d20, d21, d22 = x0 - a20, x1 - a21, x2 - a22
        d30, d31, d32 = x0 - a30, x1 - a31, x2 - a32
        _pack12(d, 0, d00, d01, d02, d10, d11, d12, d20, d21, d22, d30, d31, d32)
        # |d| as sqrt(d . d), as a 1-D norm takes it: a stacked (1x3)(3x1)
        # matmul runs the same dot kernel as a 1-D ndarray.dot, row by row
        matmul(rows, cols, dots_out)
        dot0, dot1, dot2, dot3 = dots.tolist()
        r0, r1, r2, r3 = sqrt(dot0), sqrt(dot1), sqrt(dot2), sqrt(dot3)
        # direct ranges in norm(axis=1)'s order, as predicted_pseudoranges takes them
        _pack4(b, 0, rho0 - (sqrt((d00 * d00 + d01 * d01) + d02 * d02) + clock),
               rho1 - (sqrt((d10 * d10 + d11 * d11) + d12 * d12) + clock),
               rho2 - (sqrt((d20 * d20 + d21 * d21) + d22 * d22) + clock),
               rho3 - (r_tau_r + r3 + clock))
        # cblas_ddot, as b @ b calls it: it fuses multiply-adds, so floats cannot match it
        cost = float(b.dot(b))
        if cost < loss or k > iters:
            break
        if 0.0 in (r0, r1, r2, r3):
            raise DegenerateGeometryError("linearization point coincides with the anchor")
        if math.inf in (r0, r1, r2, r3):  # an overflowed |d|: |d| / |d| would be NaN
            c0 = c1 = c2 = c3 = 1.0
        else:  # |d| / |d|: exactly 1 for a finite |d|, NaN for a NaN one
            c0, c1, c2, c3 = r0 / r0, r1 / r1, r2 / r2, r3 / r3
        # U's rows [d / |d|, 1], transposed into ut
        _pack16(ut, 0, d00 / r0, d10 / r1, d20 / r2, d30 / r3, d01 / r0, d11 / r1, d21 / r2, d31 / r3,
                d02 / r0, d12 / r1, d22 / r2, d32 / r3, c0, c1, c2, c3)
        res = dgelsd(4, 4, 1, ut, 4, b, 4, s, _RCOND, 0, work, _LWORK, iwork, 0)
        if res["info"]:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        if res["rank"] < 4:
            raise DegenerateGeometryError("design matrix is rank deficient")
        s0, s1, s2, s3 = b.tolist()
        x0 += s0
        x1 += s1
        x2 += s2
        clock += s3
    return PositionFix(state=(x0, x1, x2, clock), iterations_used=min(k, iters), final_cost=cost,
                       converged=cost < loss)


def dilution_of_precision(scene: NavScene) -> tuple[float, float]:
    """(GDOP, PDOP) from the design matrix at the scene's true user position.

    GDOP uses the full trace of (U^T U)^{-1}; PDOP only the position block.
    Unit range noise maps to state error with these amplification factors.
    U's rows take |d| as sqrt(d . d), as `lsm_solve`'s do.  A user on an anchor
    or a singular U^T U raises DegenerateGeometryError.
    """
    diff = np.subtract(scene.true_user, scene.anchors())
    r = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])).reshape(4, 1)
    if not r.all():
        raise DegenerateGeometryError("user coincides with an anchor: no DOP")
    u = np.hstack((diff / r, np.ones((4, 1))))
    try:
        q = np.linalg.inv(u.T @ u)
    except np.linalg.LinAlgError:
        raise DegenerateGeometryError("design matrix is singular: no DOP") from None
    g, p = float(np.trace(q)), float(np.trace(q[:3, :3]))
    if not (0.0 < g < math.inf and 0.0 < p < math.inf):  # NaN fails too
        raise DegenerateGeometryError(f"design matrix is near singular: DOP traces {g!r}, {p!r}")
    return math.sqrt(g), math.sqrt(p)


def range_noise_from_snr(snr: float, bandwidth: float, floor: float | None = None) -> float:
    """Pseudorange noise sigma (m) from the post-despreading SNR.

    sigma = c / (2 BW sqrt(2 snr)), floored at the code-resolution limit
    (default c / (2 BW)).  snr = 0 models the absent RIS link and yields an
    infinite sigma (position error unbounded); a NaN or negative snr or floor is rejected.
    """
    # written so that NaN fails each check
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if not snr >= 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    if floor is None:
        floor = SPEED_OF_LIGHT / (2.0 * bandwidth)
    elif not 0.0 <= floor < math.inf:
        raise ValueError(f"floor must be finite and >= 0, got {floor}")
    if snr == 0.0:
        return math.inf
    sigma = SPEED_OF_LIGHT / (2.0 * bandwidth * math.sqrt(2.0 * snr))
    return max(sigma, floor)
