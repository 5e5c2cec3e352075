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
`synthesize_pseudoranges` adds the noise to them).  Its arrays and the
pseudoranges of a `PseudorangeSet` are read-only copies of the inputs, so a
write through the caller's array cannot get round the checks made at
construction or leave the kept values stale.

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
random residual in four.  add.reduce over a length-3 row adds left to right,
(d0^2 + d1^2) + d2^2, as floats do (a test pins numpy's order), so the direct
ranges and the residual are floats, read with one `ndarray.tolist()` per
iteration.  The differences, square roots, design entries and state update
round the same either way; they stay one numpy call each, on views of one
buffer per solve, which costs less than floats and reports an overflow
through numpy's errstate.  U's clock entries come out of the divide as
|d| / |d|, exactly 1 for a finite |d|; after an overflow to inf they are filled.

SNR enters through a delay-estimation noise model: sigma scales as
1/sqrt(SNR) down to a code-resolution floor, so navigation accuracy
improves with RIS gain and then plateaus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

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


def _readonly(x) -> np.ndarray:
    """A read-only float copy of x, so no write through the caller's array reaches it."""
    arr = np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


def _vec3(x) -> np.ndarray:
    arr = _readonly(x)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def _norm(d: np.ndarray) -> float:
    """|d| of a 3-vector as a 1-D `np.linalg.norm` takes it: sqrt(d . d)."""
    return math.sqrt(d.dot(d))


@dataclass(frozen=True)
class NavScene:
    """Scene truth: anchor positions, the user, and the receiver clock bias.

    Keeps read-only copies of its arrays, `anchors()` and the pseudoranges at
    the truth (module notes); a scene whose pseudoranges overflow is rejected."""

    sat_positions: np.ndarray  # (3, 3) navigation satellites, m
    inac_sat_position: np.ndarray  # (3,) INAC satellite, m
    ris_position: np.ndarray  # (3,) RIS, m
    true_user: np.ndarray  # (3,) user, m
    clock_bias: float  # receiver clock offset, s
    #: known satellite-RIS leg length of the relayed measurement, m
    r_tau_r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sats = _readonly(self.sat_positions)
        if sats.shape != (3, 3):
            raise ValueError(f"sat_positions must be (3, 3), got {sats.shape}")
        object.__setattr__(self, "sat_positions", sats)
        object.__setattr__(self, "inac_sat_position", _vec3(self.inac_sat_position))
        object.__setattr__(self, "ris_position", _vec3(self.ris_position))
        object.__setattr__(self, "true_user", _vec3(self.true_user))
        object.__setattr__(self, "r_tau_r", _norm(self.inac_sat_position - self.ris_position))
        object.__setattr__(self, "_anchors", _readonly(np.concatenate((sats, self.ris_position[None]))))
        with np.errstate(over="ignore", invalid="ignore"):
            rho = predicted_pseudoranges(self, np.append(self.true_user, SPEED_OF_LIGHT * self.clock_bias))
        if not np.isfinite(rho).all():
            raise ValueError("the pseudoranges at the true user overflow a double")
        object.__setattr__(self, "_rho_at_truth", _readonly(rho))

    def anchors(self) -> np.ndarray:
        """Anchor points of the four measurements: three satellites, then the RIS."""
        return self._anchors


@dataclass(frozen=True)
class PseudorangeSet:
    """Four measured pseudoranges, m."""

    rho: np.ndarray  # (4,)

    def __post_init__(self) -> None:
        rho = _readonly(self.rho)
        if rho.shape != (4,):
            raise ValueError(f"rho must have shape (4,), got {rho.shape}")
        if not all(map(math.isfinite, rho.tolist())):
            raise ValueError("pseudoranges must be finite")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class PositionFix:
    """Solved state (x, y, z, c dt in meters), iterations used, final cost.

    `converged` is True iff the final cost is below the stop `_LOSS`; a fix
    that ran to the iteration cap without getting there is returned as it
    stands, with `converged` False.
    """

    state: np.ndarray
    iterations_used: int
    final_cost: float
    converged: bool

    @property
    def position(self) -> np.ndarray:
        return self.state[:3]

    @property
    def clock_bias_s(self) -> float:
        return float(self.state[3]) / SPEED_OF_LIGHT


def synthesize_pseudoranges(
    scene: NavScene, noise_sigma: float, rng: np.random.Generator
) -> PseudorangeSet:
    """Measured pseudoranges: the model at the scene's truth plus Gaussian noise.

    Rows 1-3: |sat_i - user| + c dt + noise.  Row 4 relays through the RIS:
    r_tauR + |ris - user| + c dt + noise.  noise_sigma is in meters.
    """
    if not noise_sigma >= 0.0:  # NaN fails too
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    return PseudorangeSet(rho=scene._rho_at_truth + noise_sigma * rng.standard_normal(4))


def predicted_pseudoranges(scene: NavScene, state: np.ndarray) -> np.ndarray:
    """Model pseudoranges at a trial state (x, y, z, c dt)."""
    pos = state[:3]
    out = np.empty(4)
    out[:3] = np.linalg.norm(scene.sat_positions - pos, axis=1) + state[3]
    out[3] = scene.r_tau_r + np.linalg.norm(scene.ris_position - pos) + state[3]
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

    gelsd is called through `numpy.linalg.lapack_lite` on views of one buffer
    this call allocates: U is kept transposed in the C-order `ut`, which
    LAPACK reads as column-major U, and rebuilt each step because gelsd
    overwrites `ut`; the residual `b` comes back as the step.  A rank below
    4 raises DegenerateGeometryError, a nonzero gelsd info LinAlgError, as
    `np.linalg.lstsq` would.
    """
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    anchors, r_tau_r, loss = scene.anchors(), scene.r_tau_r, _LOSS
    rho0, rho1, rho2, rho3 = pr.rho.tolist()
    buf = np.empty(48 + _LWORK + _LIWORK)  # the one scratch buffer of the solve, cut into views
    # rows 0-3: the linearization point minus anchor i, then its |d|; row 4: the state
    diff = buf[:20].reshape(5, 4)
    ut = buf[20:36].reshape(4, 4)  # design matrix, transposed
    # residual in and step out, d . d of each row, singular values, workspaces
    b, dots, s, work = buf[36:40], buf[40:44], buf[44:48], buf[48:48 + _LWORK]
    iwork = buf[48 + _LWORK:].view(np.intc)  # room for _LIWORK LAPACK integers of up to 8 bytes
    subtract, matmul, sqrt, divide, dgelsd = np.subtract, np.matmul, np.sqrt, np.divide, lapack_lite.dgelsd
    x = diff[4]
    x.fill(0.0)  # the start: the origin, with no clock offset
    # views made once: the state's position, d and |d|, the rows of d as stacked
    # (1x3) and (3x1) matrices, [d, |d|] transposed, and b's items
    position, d, r, flat = x[:3], diff[:4, :3], diff[:4, 3], buf[:20]
    rows, cols, dots_out = d[:, None, :], d[:, :, None], dots[:, None, None]
    diff_t, b_items = diff[:4].T, memoryview(b)  # a memoryview sets an item in half an ndarray's time
    for k in range(1, iters + 2):  # pass iters + 1 only scores the last step
        subtract(position, anchors, d)
        # |d| as sqrt(d . d), as a 1-D norm takes it: a stacked (1x3)(3x1)
        # matmul runs the same dot kernel as a 1-D ndarray.dot, row by row
        matmul(rows, cols, dots_out)
        sqrt(dots, r)
        d00, d01, d02, r0, d10, d11, d12, r1, d20, d21, d22, r2, _, _, _, r3, _, _, _, clock = flat.tolist()
        # direct ranges in norm(axis=1)'s order, as predicted_pseudoranges takes them
        b_items[0] = rho0 - (math.sqrt((d00 * d00 + d01 * d01) + d02 * d02) + clock)
        b_items[1] = rho1 - (math.sqrt((d10 * d10 + d11 * d11) + d12 * d12) + clock)
        b_items[2] = rho2 - (math.sqrt((d20 * d20 + d21 * d21) + d22 * d22) + clock)
        b_items[3] = rho3 - (r_tau_r + r3 + clock)
        # cblas_ddot, as b @ b calls it: it fuses multiply-adds, so floats cannot match it
        cost = float(b.dot(b))
        if cost < loss or k > iters:
            break
        if 0.0 in (r0, r1, r2, r3):
            raise DegenerateGeometryError("linearization point coincides with the anchor")
        if math.inf in (r0, r1, r2, r3):  # an overflowed |d|: |d| / |d| would be NaN
            divide(d.T, r, ut[:3])
            ut[3].fill(1.0)
        else:  # [d, |d|] / |d|: U's rows [d / |d|, 1], transposed into ut
            divide(diff_t, r, ut)
        res = dgelsd(4, 4, 1, ut, 4, b, 4, s, _RCOND, 0, work, _LWORK, iwork, 0)
        if res["info"]:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        if res["rank"] < 4:
            raise DegenerateGeometryError("design matrix is rank deficient")
        x += b
    return PositionFix(state=x.copy(), iterations_used=min(k, iters), final_cost=cost, converged=cost < loss)


def dilution_of_precision(scene: NavScene) -> tuple[float, float]:
    """(GDOP, PDOP) from the design matrix at the scene's true user position.

    GDOP uses the full trace of (U^T U)^{-1}; PDOP only the position block.
    Unit range noise maps to state error with these amplification factors.
    U's rows take |d| as sqrt(d . d), as `lsm_solve`'s do.  A user on an anchor
    or a singular U^T U raises DegenerateGeometryError.
    """
    diff = scene.true_user - scene.anchors()
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
