"""Every command's report, and deterministic CSV reports.

One table maps each report name to its builder, in this order; run_sweep is
the only path from a name to its report, and the last seven names are the
figure sweeps, FIGURE_IDS:

    analyze          closed forms at the configured point (quantity,value)
    simulate         Monte Carlo vs closed forms at the configured point
    position         one synthetic positioning fix at the configured point
    op-vs-power      outage vs transmit power (closed form, asymptotic, MC)
    op-vs-elements   outage vs RIS element count
    cap-vs-power     capacity vs transmit power (hardened limit vs MC)
    cap-vs-elements  capacity vs element count, all four hardened curves
                     plus MC for the configured mode (CO/NO crossing)
    outage-vs-split  NO-mode outage vs the uni-cast power share
    constellation    minimal satellite count over height x elevation
    nav-accuracy     positioning RMSE vs element count for both modes

A figure runs grid value x as the config with the grid's scalar key set to
x (ScenarioConfig.grid_points), through the config's own builders, which
validation calls on every grid value first.  nav-accuracy reseeds its
noise per level, so every level scales the same draws.
Asymptotic cells outside the series validity region are reported as NA,
not zero.  Per-point numeric failures are recorded in-row so a sweep never
aborts halfway.  Reports serialize to RFC-4180-style CSV and are
byte-reproducible for a fixed config and seed.

Importing this module loads no numpy: `navigation`, numpy and its Philox
generator are imported inside the builders that use them (position and
nav-accuracy), and the Monte Carlo names load numpy only when called.  So
`analyze` and `constellation`, which compute closed forms only, run
without it.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import noma
from .config import ScenarioConfig
from .errors import DegenerateGeometryError, InfeasibleError, NumericError
from .geometry import coverage_area, geocentric_angle, min_satellites, slant_range
from .montecarlo import mc_capacity, mc_outage, sample_cascaded_gains, sample_cascaded_gains_by_array
from .noma import Scenario

if TYPE_CHECKING:
    from numpy.random import Generator

    from .navigation import NavScene

__all__ = ["FIGURE_IDS", "SweepReport", "run_sweep", "emit_csv", "report_to_csv_text"]

#: seed-domain separators so navigation noise never aliases channel draws
_NAV_SEED_SALT = 0x6E61765F
_POSITION_SEED_SALT = 0x706F7369


@dataclass(frozen=True)
class SweepReport:
    """One sweep: the independent variable grid plus aligned result columns.

    Values are floats/ints, str (written as is) or None; None renders as NA
    (used for out-of-region asymptotics and per-point numeric failures).
    """

    x_name: str
    x: list
    columns: dict[str, list]

    def __post_init__(self) -> None:
        for name, values in self.columns.items():
            if len(values) != len(self.x):
                raise ValueError(f"column {name} has {len(values)} rows, grid has {len(self.x)}")


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def report_to_csv_text(report: SweepReport) -> str:
    """Render a report as RFC-4180 CSV text (CRLF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([report.x_name, *report.columns.keys()])
    for i, x in enumerate(report.x):
        writer.writerow([_fmt(x), *(_fmt(col[i]) for col in report.columns.values())])
    return buf.getvalue()


def emit_csv(report: SweepReport, path) -> None:
    """Write the report to a path or file-like object."""
    text = report_to_csv_text(report)
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- report builders ---------------------------------------------------------


@dataclass(frozen=True)
class _McFigure:
    """A figure of analytic columns next to Monte Carlo, per signal, over one grid.

    analytic maps a column suffix to f(scenario, signal); by_mode does the
    same for columns of both modes, written first; estimator(gains,
    scenario, signal) is the Monte Carlo estimate at each grid point of the
    configured mode (a grid may fix its own mode).
    """

    x_name: str
    grid: str  # ScenarioConfig field that holds the grid
    analytic: dict[str, Callable[[Scenario, str], object]]
    estimator: Callable
    by_mode: dict[str, Callable[[Scenario, str], object]] = field(default_factory=dict)

    def __call__(self, cfg: ScenarioConfig) -> SweepReport:
        modes = noma.MODES if self.by_mode else (cfg.mode,)
        points = {m: [p.scenario() for p in replace(cfg, mode=m).grid_points(self.grid)] for m in modes}
        cols: dict[str, list] = {
            f"{m.lower()}_{sig}_{name}": [column(sc, sig) for sc in points[m]]
            for m in modes for sig in noma.SIGNALS for name, column in self.by_mode.items()
        }
        cols.update({
            f"{sig}_{name}": [] for sig in noma.SIGNALS for name in (*self.analytic, "mc", "mc_half_width")
        })
        # the gains depend on the RIS array alone
        gains = sample_cascaded_gains_by_array(
            [sc.ris for sc in points[cfg.mode]], cfg.rician_params(), cfg.mc_config())
        for sc in points[cfg.mode]:
            for sig in noma.SIGNALS:
                for name, column in self.analytic.items():
                    cols[f"{sig}_{name}"].append(column(sc, sig))
                est = self.estimator(gains[sc.ris], sc, sig)
                cols[f"{sig}_mc"].append(est.mean)
                cols[f"{sig}_mc_half_width"].append(est.half_width)
        return SweepReport(self.x_name, list(getattr(cfg, self.grid)), cols)


# The table holds these functions, not the library's: each looks the library
# function up when called, so a wrapper installed on the module attribute
# (a monkeypatch, a span tracer) sees the call.


def _closed_form(sc: Scenario, signal: str) -> float:
    return noma.outage_closed_form(sc, signal).value


def _asymptotic_or_none(sc: Scenario, signal: str):
    try:
        return noma.outage_asymptotic(sc, signal).value
    except NumericError:
        return None


def _hardened(sc: Scenario, signal: str) -> float:
    return noma.capacity_hardened(sc, signal)


def _mc_outage(gains, sc: Scenario, signal: str):
    return mc_outage(gains, sc, signal)


def _mc_capacity(gains, sc: Scenario, signal: str):
    return mc_capacity(gains, sc, signal)


_OUTAGE_COLUMNS = {"closed_form": _closed_form, "asymptotic": _asymptotic_or_none}


def _table(rows: dict[str, object]) -> SweepReport:
    """A two-column quantity,value report; a str value is written as is."""
    return SweepReport("quantity", list(rows), {"value": list(rows.values())})


def _analyze(cfg: ScenarioConfig) -> SweepReport:
    sc = cfg.scenario()
    cm = sc.moments
    rows: dict[str, object] = {
        "mode": cfg.mode,
        "slant_range_m": slant_range(cfg.orbit()),
        "gamma": sc.budget.gamma,
        "noise_power_w": sc.budget.noise_power,
        "m1": cm.m1, "v1": cm.v1,
        "m2": cm.m2, "v2": cm.v2,
        "m3": cm.m3, "v3": cm.v3,
        "hardened_gain": cm.m3 ** 2,
    }
    for sig in noma.SIGNALS:
        rows[f"{sig}_omega"] = noma.outage_threshold(sc, sig)
        rows[f"{sig}_op_closed_form"] = _closed_form(sc, sig)
        rows[f"{sig}_op_asymptotic"] = _asymptotic_or_none(sc, sig)
        rows[f"{sig}_capacity_hardened"] = _hardened(sc, sig)
    rows["diversity_m3_prediction"] = cm.m3
    return _table(rows)


def _simulate(cfg: ScenarioConfig) -> SweepReport:
    sc = cfg.scenario()
    mc = cfg.mc_config()
    gains = sample_cascaded_gains(sc.ris, sc.rician, mc)
    rows: dict[str, object] = {"mode": cfg.mode, "trials": mc.trials, "seed": mc.master_seed}
    for sig in noma.SIGNALS:
        est = mc_outage(gains, sc, sig)
        cap = mc_capacity(gains, sc, sig)
        rows[f"{sig}_op_closed_form"] = _closed_form(sc, sig)
        rows[f"{sig}_op_mc"] = est.mean
        rows[f"{sig}_op_mc_half_width"] = est.half_width
        rows[f"{sig}_capacity_hardened"] = _hardened(sc, sig)
        rows[f"{sig}_capacity_mc"] = cap.mean
        rows[f"{sig}_capacity_mc_half_width"] = cap.half_width
    return _table(rows)


def _fix(scene: NavScene, sigma: float, rng: Generator, iters: int) -> tuple:
    """A fix from pseudoranges drawn at noise sigma, and its squared position error.

    A fix that overflows a double (at a vanishing SNR, or from a scene ~1e154 m
    or more from the solver's start at the origin) is an InfeasibleError naming sigma."""
    import numpy as np

    from . import navigation

    pr = navigation.synthesize_pseudoranges(scene, sigma, rng)
    try:
        with np.errstate(over="raise", invalid="raise"):
            fix = navigation.lsm_solve(pr, scene, iters)
            err = fix.position - scene.true_user
            return fix, float(err @ err)
    except FloatingPointError as exc:
        raise InfeasibleError(f"the position fix overflows a double at sigma_m = {sigma:.3g}") from exc


def _position(cfg: ScenarioConfig) -> SweepReport:
    from numpy.random import Generator, Philox

    from . import navigation

    scene = cfg.nav_scene()
    sc = cfg.scenario()
    snr = noma.sinr(sc.moments.m3 ** 2, sc, "multicast")
    if not snr > 0.0:
        raise InfeasibleError("the RIS-relayed link has zero SNR: its pseudorange cannot be measured")
    sigma = navigation.range_noise_from_snr(float(snr), cfg.bandwidth_hz)
    rng = Generator(Philox(key=cfg.seed ^ _POSITION_SEED_SALT))
    fix, sq_err = _fix(scene, sigma, rng, 20)
    gdop, pdop = navigation.dilution_of_precision(scene)
    return _table({
        "sigma_m": sigma,
        "gdop": gdop,
        "pdop": pdop,
        "solved_x_m": fix.state[0],
        "solved_y_m": fix.state[1],
        "solved_z_m": fix.state[2],
        "solved_clock_m": fix.state[3],
        "iterations_used": fix.iterations_used,
        "final_cost_m2": fix.final_cost,
        "position_error_m": math.sqrt(sq_err),
        "clock_error_s": fix.clock_bias_s - scene.clock_bias,
    })


def _sweep_constellation(cfg: ScenarioConfig) -> SweepReport:
    xs: list[float] = []
    cols: dict[str, list] = {
        "elevation_deg": [],
        "geocentric_angle_rad": [],
        "coverage_area_km2": [],
        "min_satellites": [],
    }
    for at_height in cfg.grid_points("sweep_r_m_km"):
        for point in at_height.grid_points("sweep_elevation_deg"):
            geom = point.orbit()
            xs.append(point.r_m_km)
            cols["elevation_deg"].append(point.elevation_deg)
            cols["geocentric_angle_rad"].append(geocentric_angle(geom))
            cols["coverage_area_km2"].append(coverage_area(geom) / 1e6)
            try:
                cols["min_satellites"].append(min_satellites(geom))
            except NumericError:
                cols["min_satellites"].append(None)
    return SweepReport("r_m_km", xs, cols)


_NAV_INTEGRATION_GAIN = 1.0e6  # correlator samples accumulated per range estimate
_NAV_CHIP_FRACTION = 0.01  # code-tracking resolution floor, as a fraction of one chip


def _nav_sigma(cfg: ScenarioConfig, sc: Scenario | None) -> float:
    """Pseudorange noise at a grid point's scenario via the hardened SNR.

    The delay estimator integrates _NAV_INTEGRATION_GAIN correlator samples,
    so the SNR entering the ranging bound is the hardened signal SNR times
    that gain; the floor is a fixed fraction of the code chip length.
    """
    from . import navigation

    if sc is None:
        return math.inf  # no RIS: the relayed link does not exist
    snr = noma.sinr(sc.moments.m3 ** 2, sc, "multicast")
    chip = navigation.SPEED_OF_LIGHT / cfg.bandwidth_hz
    return navigation.range_noise_from_snr(
        float(snr) * _NAV_INTEGRATION_GAIN, cfg.bandwidth_hz,
        floor=_NAV_CHIP_FRACTION * chip)


def _sweep_nav_accuracy(cfg: ScenarioConfig) -> SweepReport:
    from numpy.random import Generator, Philox

    scene = cfg.nav_scene()
    reps = cfg.nav_repetitions
    # the RMSE depends on sigma alone, and cells on the chip floor share one
    rmse_by_sigma = {math.inf: math.inf}

    def rmse(sigma: float):
        if sigma not in rmse_by_sigma:
            # a fresh generator per sigma: every sigma scales the same noise draws
            rng = Generator(Philox(key=cfg.seed ^ _NAV_SEED_SALT))
            sq = 0.0
            try:
                for _ in range(reps):
                    sq += _fix(scene, sigma, rng, 12)[1]
                rmse_by_sigma[sigma] = math.sqrt(sq / reps)
            except (DegenerateGeometryError, InfeasibleError):
                rmse_by_sigma[sigma] = None  # NA: a solve at this sigma hit a degenerate geometry or overflowed
        return rmse_by_sigma[sigma]

    cols: dict[str, list] = {}
    for mode in noma.MODES:
        points = replace(cfg, mode=mode).grid_points("sweep_nav_elements")
        sigmas = [_nav_sigma(cfg, None if p is None else p.scenario()) for p in points]
        cols[f"{mode.lower()}_sigma_m"] = sigmas
        cols[f"{mode.lower()}_rmse_m"] = [rmse(sigma) for sigma in sigmas]
    return SweepReport("elements", list(cfg.sweep_nav_elements), cols)


#: every report: the three points, then the figures in the order the CLI lists them
_REPORTS: dict[str, Callable[[ScenarioConfig], SweepReport]] = {
    "analyze": _analyze,
    "simulate": _simulate,
    "position": _position,
    "op-vs-power": _McFigure("tx_power_dbm", "sweep_tx_power_dbm", _OUTAGE_COLUMNS, _mc_outage),
    "op-vs-elements": _McFigure("elements", "sweep_elements_op", _OUTAGE_COLUMNS, _mc_outage),
    "cap-vs-power": _McFigure("tx_power_dbm", "sweep_tx_power_dbm", {"hardened": _hardened}, _mc_capacity),
    # both modes' hardened curves, for the CO/NO crossing
    "cap-vs-elements": _McFigure(
        "elements", "sweep_elements_cap", {}, _mc_capacity, by_mode={"hardened": _hardened}),
    "outage-vs-split": _McFigure(
        "alpha_u_sq", "sweep_alpha_u_sq", {"closed_form": _closed_form}, _mc_outage),
    "constellation": _sweep_constellation,
    "nav-accuracy": _sweep_nav_accuracy,
}
#: the figures that `reproduce` runs: every report after the three points
FIGURE_IDS = tuple(_REPORTS)[3:]


def run_sweep(config: ScenarioConfig, figure_id: str) -> SweepReport:
    """Build the report that a command or figure id names."""
    build = _REPORTS.get(figure_id)
    if build is None:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {tuple(_REPORTS)}")
    return build(config)
