"""Pseudorange synthesis and iterative least-squares positioning.

The receiver sees four measurements: three direct navigation-satellite
pseudoranges and one RIS-relayed link whose satellite-RIS leg r_tauR is a
known constant subtracted by the receiver, leaving a RIS-anchored range.
The solver linearizes the range model at the current state estimate
(x, y, z, c dt) and applies Gauss-Newton steps from a cold start at the
origin; each step is the least-squares solution of the 4x4 linearized system
by LAPACK's SVD-based gelsd, not a normal-equation solve.

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

`lsm_solve` builds its design matrix and model pseudoranges inline, but its
arithmetic is that of `design_row` and `predicted_pseudoranges`, so a fix is
bit-identical to the row-by-row loop: same state bytes, iteration count and
final cost.  That holds only because each range keeps its own norm.  The
design rows and the RIS-relayed range take |d| as sqrt(d . d) (what a 1-D
`np.linalg.norm` does); the three direct ranges take it as
sqrt(np.add.reduce(d * d, axis=1)) (what `norm(axis=1)` does).  The two sum
in a different order and can differ in the last bit (on about one random row
in ten with numpy 2.4 and OpenBLAS on x86-64).

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
    "LsmControl",
    "PositionFix",
    "synthesize_pseudoranges",
    "design_row",
    "predicted_pseudoranges",
    "lsm_solve",
    "dilution_of_precision",
    "range_noise_from_snr",
]


def _vec3(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class NavScene:
    """Scene truth: anchor positions, the user, and the receiver clock bias."""

    sat_positions: np.ndarray  # (3, 3) navigation satellites, m
    inac_sat_position: np.ndarray  # (3,) INAC satellite, m
    ris_position: np.ndarray  # (3,) RIS, m
    true_user: np.ndarray  # (3,) user, m
    clock_bias: float  # receiver clock offset, s

    def __post_init__(self) -> None:
        sats = np.asarray(self.sat_positions, dtype=float)
        if sats.shape != (3, 3):
            raise ValueError(f"sat_positions must be (3, 3), got {sats.shape}")
        object.__setattr__(self, "sat_positions", sats)
        object.__setattr__(self, "inac_sat_position", _vec3(self.inac_sat_position))
        object.__setattr__(self, "ris_position", _vec3(self.ris_position))
        object.__setattr__(self, "true_user", _vec3(self.true_user))

    @property
    def r_tau_r(self) -> float:
        """Known satellite-RIS leg length of the relayed measurement, m."""
        return float(np.linalg.norm(self.inac_sat_position - self.ris_position))

    def anchors(self) -> np.ndarray:
        """Anchor points of the four measurements: three satellites, then the RIS."""
        return np.vstack([self.sat_positions, self.ris_position])

    def translated(self, t) -> "NavScene":
        """The whole scene shifted by a vector (used by equivariance checks)."""
        t = _vec3(t)
        return NavScene(
            sat_positions=self.sat_positions + t,
            inac_sat_position=self.inac_sat_position + t,
            ris_position=self.ris_position + t,
            true_user=self.true_user + t,
            clock_bias=self.clock_bias,
        )


@dataclass(frozen=True)
class PseudorangeSet:
    """Four measured pseudoranges and their noise standard deviations, m."""

    rho: np.ndarray  # (4,)
    sigma: np.ndarray  # (4,)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        sigma = np.broadcast_to(np.asarray(self.sigma, dtype=float), (4,)).copy()
        if rho.shape != (4,):
            raise ValueError(f"rho must have shape (4,), got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("pseudoranges must be finite")
        if np.any(sigma < 0.0):
            raise ValueError("sigma must be >= 0")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class LsmControl:
    """Iteration budget, stop threshold on the residual cost, initial state."""

    iters: int = 20
    loss: float = 1e-6  # m^2
    x0: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self) -> None:
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.loss <= 0.0:
            raise ValueError(f"loss must be > 0, got {self.loss}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (4,):
            raise ValueError(f"x0 must have shape (4,), got {x0.shape}")
        object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class PositionFix:
    """Solved state (x, y, z, c dt in meters), iterations used, final cost.

    `converged` is True iff the final cost is below the control's loss
    threshold; a fix that ran to the iteration cap without getting there
    is returned as it stands, with `converged` False.
    """

    state: np.ndarray
    iterations_used: int
    final_cost: float
    converged: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        if self.final_cost < 0.0:
            raise ValueError("final_cost must be >= 0")

    @property
    def position(self) -> np.ndarray:
        return self.state[:3]

    @property
    def clock_bias_s(self) -> float:
        return float(self.state[3]) / SPEED_OF_LIGHT


def synthesize_pseudoranges(
    scene: NavScene, noise_sigma, rng: np.random.Generator
) -> PseudorangeSet:
    """Measured pseudoranges of the scene with Gaussian range noise.

    Rows 1-3: |sat_i - user| + c dt + noise.  Row 4 relays through the RIS:
    r_tauR + |ris - user| + c dt + noise.
    """
    sigma = np.broadcast_to(np.asarray(noise_sigma, dtype=float), (4,)).copy()
    if np.any(sigma < 0.0):
        raise ValueError("noise_sigma must be >= 0")
    clock_m = SPEED_OF_LIGHT * scene.clock_bias
    ranges = np.empty(4)
    ranges[:3] = np.linalg.norm(scene.sat_positions - scene.true_user, axis=1)
    ranges[3] = scene.r_tau_r + np.linalg.norm(scene.ris_position - scene.true_user)
    rho = ranges + clock_m + sigma * rng.standard_normal(4)
    return PseudorangeSet(rho=rho, sigma=sigma)


def design_row(anchor_position, linearization_point) -> np.ndarray:
    """Gradient row of one predicted pseudorange at the linearization point.

    [(x0 - xa)/r, (y0 - ya)/r, (z0 - za)/r, 1] - the unit vector from the
    anchor to the linearization point plus the clock column.  For the
    RIS-relayed measurement the anchor is the RIS itself (its satellite leg
    is constant and drops out of the gradient).
    """
    anchor = _vec3(anchor_position)
    point = _vec3(linearization_point)
    diff = point - anchor
    r = float(np.linalg.norm(diff))
    if r == 0.0:
        raise DegenerateGeometryError("linearization point coincides with the anchor")
    return np.append(diff / r, 1.0)


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


def _gelsd_workspace(ut: np.ndarray, b: np.ndarray, s: np.ndarray):
    """(work, lwork, iwork) for a 4x4 gelsd with one right-hand side, from its size query."""
    work = np.empty(1)
    iwork = np.zeros(1, _LAPACK_INT).view(np.intc)
    lapack_lite.dgelsd(4, 4, 1, ut, 4, b, 4, s, _RCOND, 0, work, -1, iwork, 0)
    lwork, liwork = int(work[0]), int(iwork.view(_LAPACK_INT)[0])
    return np.empty(lwork), lwork, np.zeros(liwork, _LAPACK_INT).view(np.intc)


def lsm_solve(pr: PseudorangeSet, scene: NavScene, ctrl: LsmControl = LsmControl()) -> PositionFix:
    """Iterative least-squares position/clock solution.

    Each iteration evaluates the residual b = rho - predicted(x); if its
    quadratic cost is below ctrl.loss the state is accepted, otherwise the
    step dx = argmin |U dx - b| is applied, with U the stacked design rows,
    solved by LAPACK's gelsd (SVD).  After ctrl.iters steps the cost at
    the last state is reported as it stands.  Only the known geometry of
    the scene (satellite and RIS positions) is used; truth fields never
    leak into the solve.  Bit-identical to stacking `design_row` and
    calling `predicted_pseudoranges` each iteration (see the module notes).

    gelsd is called through `numpy.linalg.lapack_lite` on buffers this call
    owns: U is kept transposed in the C-order `ut`, which LAPACK reads as
    column-major U, and its clock row is reset each step because gelsd
    overwrites `ut`; the residual `b` comes back as the step.  A rank below
    4 raises DegenerateGeometryError, a nonzero gelsd info LinAlgError, as
    `np.linalg.lstsq` would.
    """
    anchors = scene.anchors()
    r_tau_r = scene.r_tau_r
    rho = pr.rho
    diff = np.empty((4, 3))  # linearization point minus each anchor
    predicted = np.empty(4)
    ut = np.empty((4, 4))  # design matrix, transposed
    b = np.empty(4)  # residual in, step out
    s = np.empty(4)  # singular values
    work, lwork, iwork = _gelsd_workspace(ut, b, s)
    dgelsd = lapack_lite.dgelsd
    x = ctrl.x0.copy()
    for k in range(1, ctrl.iters + 2):  # pass iters + 1 only scores the last step
        np.subtract(x[:3], anchors, out=diff)
        # |d| as sqrt(d . d), as design_row takes it: a stacked (1x3)(3x1)
        # matmul runs the same dot kernel as a 1-D ndarray.dot, row by row
        r = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())
        sats = diff[:3]  # direct ranges: norm(axis=1)'s form, as predicted_pseudoranges takes it
        predicted[:3] = np.sqrt(np.add.reduce(sats * sats, axis=1)) + x[3]
        predicted[3] = r_tau_r + r[3] + x[3]
        np.subtract(rho, predicted, out=b)
        cost = float(b @ b)
        if cost < ctrl.loss or k > ctrl.iters:
            break
        if not r.all():
            raise DegenerateGeometryError("linearization point coincides with the anchor")
        np.divide(diff.T, r, out=ut[:3])
        ut[3] = 1.0  # the clock column
        res = dgelsd(4, 4, 1, ut, 4, b, 4, s, _RCOND, 0, work, lwork, iwork, 0)
        if res["info"]:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        if res["rank"] < 4:
            raise DegenerateGeometryError("design matrix is rank deficient")
        x += b
    return PositionFix(state=x, iterations_used=min(k, ctrl.iters), final_cost=cost,
                       converged=cost < ctrl.loss)


def dilution_of_precision(scene: NavScene, state: np.ndarray | None = None) -> tuple[float, float]:
    """(GDOP, PDOP) from the design matrix at a state (default: scene truth).

    GDOP uses the full trace of (U^T U)^{-1}; PDOP only the position block.
    Unit range noise maps to state error with these amplification factors.
    """
    if state is None:
        state = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
    u = np.vstack([design_row(anchor, state[:3]) for anchor in scene.anchors()])
    q = np.linalg.inv(u.T @ u)
    return float(math.sqrt(np.trace(q))), float(math.sqrt(np.trace(q[:3, :3])))


def range_noise_from_snr(snr: float, bandwidth: float, floor: float | None = None) -> float:
    """Pseudorange noise sigma (m) from the post-despreading SNR.

    sigma = c / (2 BW sqrt(2 snr)), floored at the code-resolution limit
    (default c / (2 BW)).  snr = 0 models the absent RIS link and yields an
    infinite sigma (position error unbounded); negative snr is rejected.
    """
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    if floor is None:
        floor = SPEED_OF_LIGHT / (2.0 * bandwidth)
    if snr == 0.0:
        return math.inf
    sigma = SPEED_OF_LIGHT / (2.0 * bandwidth * math.sqrt(2.0 * snr))
    return max(sigma, floor)
