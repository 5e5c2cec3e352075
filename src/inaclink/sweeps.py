"""Figure-reproduction sweeps and deterministic CSV reports.

Each figure id maps to one parameter sweep over the configured scenario:

    op-vs-power      outage vs transmit power (closed form, asymptotic, MC)
    op-vs-elements   outage vs RIS element count
    cap-vs-power     capacity vs transmit power (hardened limit vs MC)
    cap-vs-elements  capacity vs element count, all four hardened curves
                     plus MC for the configured mode (CO/NO crossing)
    outage-vs-split  NO-mode outage vs the uni-cast power share
    constellation    minimal satellite count over height x elevation
    nav-accuracy     positioning RMSE vs element count for both modes

Asymptotic cells outside the series validity region are reported as NA, not
zero.  Per-point numeric failures are recorded in-row so a sweep never
aborts halfway.  Reports serialize to RFC-4180-style CSV and are
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from . import navigation, noma
from .config import ScenarioConfig
from .errors import DegenerateGeometryError, NumericError
from .geometry import OrbitGeometry, coverage_area, geocentric_angle, min_satellites
from .montecarlo import mc_capacity, mc_outage, sample_cascaded_gains_by_array
# not called here, but kept a name of this module: bench/tests/test_bench_trace.py
# checks that a tracer restores this alias of the sampler
from .montecarlo import sample_cascaded_gains
from .noma import PowerSplit, Scenario

__all__ = ["FIGURE_IDS", "SweepReport", "run_sweep", "emit_csv", "report_to_csv_text"]

FIGURE_IDS = (
    "op-vs-power",
    "op-vs-elements",
    "cap-vs-power",
    "cap-vs-elements",
    "outage-vs-split",
    "constellation",
    "nav-accuracy",
)

#: seed-domain separator so navigation noise never aliases channel draws
_NAV_SEED_SALT = 0x6E61765F


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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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


# --- per-figure sweep builders ----------------------------------------------


@dataclass(frozen=True)
class _McFigure:
    """A figure of analytic columns next to Monte Carlo, per signal, over one grid.

    at(cfg, base, x) is the scenario at grid value x, where base is the
    configured scenario in the figure's mode; analytic maps a column suffix
    to f(scenario, signal); estimator(gains, scenario, signal) is the Monte
    Carlo estimate.
    """

    x_name: str
    grid: str  # ScenarioConfig field that holds the grid
    at: Callable[[ScenarioConfig, Scenario, object], Scenario]
    analytic: dict[str, Callable[[Scenario, str], object]]
    estimator: Callable
    mode: str | None = None  # None: the configured mode


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


def _at_power(cfg: ScenarioConfig, base: Scenario, dbm: float) -> Scenario:
    return base.with_tx_power(10.0 ** (dbm / 10.0) * 1e-3)


_OUTAGE_COLUMNS = {"closed_form": _closed_form, "asymptotic": _asymptotic_or_none}

_MC_FIGURES = {
    "op-vs-power": _McFigure("tx_power_dbm", "sweep_tx_power_dbm", _at_power, _OUTAGE_COLUMNS, _mc_outage),
    "op-vs-elements": _McFigure(
        "elements", "sweep_elements_op",
        lambda cfg, base, L: cfg.scenario(elements=L), _OUTAGE_COLUMNS, _mc_outage),
    "cap-vs-power": _McFigure(
        "tx_power_dbm", "sweep_tx_power_dbm", _at_power, {"hardened": _hardened}, _mc_capacity),
    # NO mode: CO saturates immediately over the uni-cast share
    "outage-vs-split": _McFigure(
        "alpha_u_sq", "sweep_alpha_u_sq",
        lambda cfg, base, a_u: replace(base, split=PowerSplit(alpha_m_sq=1.0 - a_u, alpha_u_sq=a_u)),
        {"closed_form": _closed_form}, _mc_outage, mode="NO"),
}


def _run_mc_figure(cfg: ScenarioConfig, figure_id: str) -> SweepReport:
    fig = _MC_FIGURES[figure_id]
    base = cfg.scenario(mode=fig.mode)
    grid = list(getattr(cfg, fig.grid))
    cols: dict[str, list] = {
        f"{sig}_{name}": [] for sig in noma.SIGNALS for name in (*fig.analytic, "mc", "mc_half_width")
    }
    scenarios = [fig.at(cfg, base, x) for x in grid]
    # the gains depend on the RIS array alone
    gains = sample_cascaded_gains_by_array([sc.ris for sc in scenarios], base.rician, cfg.mc_config())
    for sc in scenarios:
        for sig in noma.SIGNALS:
            for name, column in fig.analytic.items():
                cols[f"{sig}_{name}"].append(column(sc, sig))
            est = fig.estimator(gains[sc.ris], sc, sig)
            cols[f"{sig}_mc"].append(est.mean)
            cols[f"{sig}_mc_half_width"].append(est.half_width)
    return SweepReport(fig.x_name, grid, cols)


def _sweep_cap_vs_elements(cfg: ScenarioConfig) -> SweepReport:
    cols: dict[str, list] = {
        name: []
        for name in (
            "co_multicast_hardened",
            "co_unicast_hardened",
            "no_multicast_hardened",
            "no_unicast_hardened",
            "multicast_mc",
            "multicast_mc_half_width",
            "unicast_mc",
            "unicast_mc_half_width",
        )
    }
    points = [{mode: cfg.scenario(mode=mode, elements=L) for mode in noma.MODES}
              for L in cfg.sweep_elements_cap]
    gains = sample_cascaded_gains_by_array(
        [by_mode[cfg.mode].ris for by_mode in points], cfg.rician_params(), cfg.mc_config())
    for by_mode in points:
        for mode, sc in by_mode.items():
            for sig in noma.SIGNALS:
                cols[f"{mode.lower()}_{sig}_hardened"].append(noma.capacity_hardened(sc, sig))
        sc = by_mode[cfg.mode]
        for sig in noma.SIGNALS:
            est = mc_capacity(gains[sc.ris], sc, sig)
            cols[f"{sig}_mc"].append(est.mean)
            cols[f"{sig}_mc_half_width"].append(est.half_width)
    return SweepReport("elements", list(cfg.sweep_elements_cap), cols)


def _sweep_constellation(cfg: ScenarioConfig) -> SweepReport:
    xs: list[float] = []
    cols: dict[str, list] = {
        "elevation_deg": [],
        "geocentric_angle_rad": [],
        "coverage_area_km2": [],
        "min_satellites": [],
    }
    r_e = cfg.r_e_km * 1e3
    for r_m_km in cfg.sweep_r_m_km:
        for elev_deg in cfg.sweep_elevation_deg:
            geom = OrbitGeometry(r_e=r_e, r_m=r_m_km * 1e3, elevation=math.radians(elev_deg))
            xs.append(r_m_km)
            cols["elevation_deg"].append(elev_deg)
            cols["geocentric_angle_rad"].append(geocentric_angle(geom))
            cols["coverage_area_km2"].append(coverage_area(geom) / 1e6)
            try:
                cols["min_satellites"].append(min_satellites(geom))
            except NumericError:
                cols["min_satellites"].append(None)
    return SweepReport("r_m_km", xs, cols)


_NAV_INTEGRATION_GAIN = 1.0e6  # correlator samples accumulated per range estimate
_NAV_CHIP_FRACTION = 0.01  # code-tracking resolution floor, as a fraction of one chip


def _nav_sigma(cfg: ScenarioConfig, mode: str, elements: int) -> float:
    """Pseudorange noise for a mode and element count via the hardened SNR.

    The delay estimator integrates _NAV_INTEGRATION_GAIN correlator samples,
    so the SNR entering the ranging bound is the hardened signal SNR times
    that gain; the floor is a fixed fraction of the code chip length.
    """
    if elements < 1:
        return math.inf  # no RIS: the relayed link does not exist
    sc = cfg.scenario(mode=mode, elements=elements)
    snr = noma.sinr(sc.moments.m3 ** 2, sc, "multicast")
    chip = navigation.SPEED_OF_LIGHT / cfg.bandwidth_hz
    return navigation.range_noise_from_snr(
        float(snr) * _NAV_INTEGRATION_GAIN, cfg.bandwidth_hz,
        floor=_NAV_CHIP_FRACTION * chip)


def _sweep_nav_accuracy(cfg: ScenarioConfig) -> SweepReport:
    scene = cfg.nav_scene()
    reps = cfg.nav_repetitions
    rng = Generator(Philox(key=cfg.seed ^ _NAV_SEED_SALT))
    noise = rng.standard_normal((reps, 4))  # shared across modes and grid points
    truth_state = np.append(scene.true_user, navigation.SPEED_OF_LIGHT * scene.clock_bias)
    clean_rho = navigation.predicted_pseudoranges(scene, truth_state)
    ctrl = navigation.LsmControl(iters=12, loss=1e-6)
    # the RMSE depends on sigma alone, and cells on the chip floor share one
    rmse_by_sigma = {math.inf: math.inf}

    def rmse(sigma: float):
        if sigma not in rmse_by_sigma:
            sq = 0.0
            try:
                for i in range(reps):
                    pr = navigation.PseudorangeSet(rho=clean_rho + sigma * noise[i], sigma=np.full(4, sigma))
                    fix = navigation.lsm_solve(pr, scene, ctrl)
                    err = fix.position - scene.true_user
                    sq += float(err @ err)
                rmse_by_sigma[sigma] = math.sqrt(sq / reps)
            except DegenerateGeometryError:
                rmse_by_sigma[sigma] = None  # NA: a solve at this sigma hit a degenerate geometry
        return rmse_by_sigma[sigma]

    cols: dict[str, list] = {"co_sigma_m": [], "co_rmse_m": [], "no_sigma_m": [], "no_rmse_m": []}
    for L in cfg.sweep_nav_elements:
        for mode in noma.MODES:
            sigma = _nav_sigma(cfg, mode, L)
            cols[f"{mode.lower()}_sigma_m"].append(sigma)
            cols[f"{mode.lower()}_rmse_m"].append(rmse(sigma))
    return SweepReport("elements", list(cfg.sweep_nav_elements), cols)


_SWEEPS = {
    "cap-vs-elements": _sweep_cap_vs_elements,
    "constellation": _sweep_constellation,
    "nav-accuracy": _sweep_nav_accuracy,
}


def run_sweep(config: ScenarioConfig, figure_id: str) -> SweepReport:
    """Execute the sweep matching a figure id."""
    if figure_id in _MC_FIGURES:
        return _run_mc_figure(config, figure_id)
    if figure_id not in _SWEEPS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    return _SWEEPS[figure_id](config)
