"""Properties over the valid config space, drawn key by key from config._FIELDS.

Each key is drawn from a stated physical range, written in its boundary
units; `link.spread_gain_db` reaches 600 dB so that the double-overflow edge
of the link gain lies inside the drawn space.  Examples are derandomized by
tests/conftest.py, so every run sees the same configs.
"""

import contextlib
import io
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from inaclink import FIGURE_IDS, cli, noma, run_sweep
from inaclink.config import _CODECS, _FIELDS, parse_config_text
from inaclink.errors import ConfigError


def _decades(lo: float, hi: float):
    """Log-uniform floats in [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


#: tx power in dBm, from a weak beacon up to past where 10^(dBm/10) overflows a double
POWERS_DBM = st.floats(-3500.0, 3100.0)
ELEMENTS = st.integers(1, 2**20)

#: the drawn value of each config key, in its boundary units
VALUES = {
    "orbit.r_e_km": st.floats(6350.0, 6400.0),
    "orbit.r_m_km": st.floats(300.0, 40000.0),  # LEO to beyond GEO
    "orbit.elevation_deg": st.floats(0.0, 90.0),
    "rf.f_c_ghz": _decades(0.1, 100.0),
    "rf.g_t_dbi": st.floats(0.0, 60.0),
    "rf.alpha1": st.floats(1.5, 4.0),
    "rf.alpha2": st.floats(1.5, 4.0),
    "rf.d_ru_m": _decades(1.0, 1000.0),
    "link.bandwidth_mhz": _decades(0.1, 1000.0),
    "link.tx_power_dbm": st.floats(-50.0, 70.0),
    "link.spread_gain_db": st.floats(0.0, 600.0),
    "ris.elements": st.integers(1, 4096),
    # a reflection coefficient, down to where beta^2 L leaves the normal doubles
    "ris.amplitude": _decades(1e-160, 1.0),
    "fading.k_r": _decades(1e-3, 100.0),
    "fading.k_g": _decades(1e-3, 100.0),
    "noma.mode": st.sampled_from(noma.MODES),
    "noma.alpha_u_sq": st.floats(0.01, 0.99),
    "noma.multicast_rate_bpshz": _decades(1e-5, 10.0),
    "noma.unicast_rate_bpshz": _decades(1e-5, 10.0),
    "mc.trials": st.integers(1, 400),  # few, so that a Monte Carlo command takes milliseconds
    "mc.seed": st.integers(0, 2**64 - 1),
    "nav.repetitions": st.integers(1, 20),
    "sweep.tx_power_dbm": st.floats(-50.0, 70.0),
    "sweep.elements_op": st.integers(1, 4096),
    "sweep.elements_cap": st.integers(1, 4096),
    "sweep.alpha_u_sq": st.floats(0.01, 0.99),
    "sweep.r_m_km": st.floats(300.0, 40000.0),
    "sweep.elevation_deg": st.floats(0.0, 90.0),
    "sweep.nav_elements": st.integers(0, 4096),  # 0: no RIS
}
#: keys not drawn: a scene file is a path, and scene parsing has its own tests
UNDRAWN = {"nav.scene_file"}


def _strategy(key: str):
    """A drawn value of key, a list of one to four values for a grid."""
    value = VALUES[key]
    if _FIELDS[key].type.startswith("tuple"):
        return st.lists(value, min_size=1, max_size=4).map(tuple)
    return value


#: a config as the keys it sets, each to a drawn value; unset keys keep their defaults, but
#: mc.trials is always set, so that a Monte Carlo figure runs at the drawn count
CONFIGS = st.fixed_dictionaries({"mc.trials": VALUES["mc.trials"]},
                                optional={key: _strategy(key) for key in VALUES.keys() - {"mc.trials"}})


def _text(values: dict) -> str:
    return "".join(f"{key} = {_CODECS[_FIELDS[key].type][1](v)}\n" for key, v in values.items())


def _validates(values: dict) -> bool:
    try:
        parse_config_text(_text(values))
    except ConfigError:
        return False
    return True


def _builds(build) -> bool:
    try:
        build()
    except (ValueError, OverflowError):
        return False
    return True


def test_every_key_is_drawn_or_named():
    assert VALUES.keys() | UNDRAWN == _FIELDS.keys()
    assert not VALUES.keys() & UNDRAWN


#: each grid checked against its scalar key, at values of that key the grid accepts
GRID_VALUES = st.one_of(
    st.tuples(st.just("sweep.tx_power_dbm"), POWERS_DBM),
    st.tuples(st.sampled_from(["sweep.elements_op", "sweep.elements_cap", "sweep.nav_elements"]), ELEMENTS),
)
SCALAR_OF = {"sweep.tx_power_dbm": "link.tx_power_dbm", "sweep.elements_op": "ris.elements",
             "sweep.elements_cap": "ris.elements", "sweep.nav_elements": "ris.elements"}


@settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much])
@example(values={"link.spread_gain_db": 600.0}, grid_value=("sweep.tx_power_dbm", 2745.0))
# a link that builds only at its own gain: at the default gain this power underflows
@example(values={"rf.f_c_ghz": 0.1, "rf.g_t_dbi": 60.0, "rf.d_ru_m": 1.0, "link.spread_gain_db": 600.0},
         grid_value=("sweep.tx_power_dbm", -3050.0))
@given(values=CONFIGS, grid_value=GRID_VALUES)
def test_a_grid_value_validates_iff_its_scalar_key_builds(values, grid_value):
    # the point a figure runs at grid value x is the scenario with the scalar key set to x
    assume(_validates(values))
    grid, x = grid_value
    scalar = SCALAR_OF[grid]
    cfg = replace(parse_config_text(_text(values)), **{_FIELDS[scalar].name: x})
    builds = _builds(cfg.scenario)
    assert _validates({**values, grid: (x,)}) == builds
    assert _validates({**values, scalar: x}) == builds


COMMANDS = [["analyze"], ["position"], ["simulate", "--trials", "200"], ["constellation"],
            *(["reproduce", figure] for figure in FIGURE_IDS)]


def _run(command, config_path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, "--config", str(config_path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=40)
@given(values=CONFIGS)
# m3 ~ 1e-30 and v3 ~ 1e-60, so (2 v3)^(n+1/2) alone underflows to 0 within the asymptotic series
@example(values={"mc.trials": 100, "rf.f_c_ghz": 0.1, "rf.g_t_dbi": 60.0, "rf.alpha1": 1.5, "rf.d_ru_m": 1.0,
                 "link.bandwidth_mhz": 0.1, "link.tx_power_dbm": 70.0, "link.spread_gain_db": 600.0,
                 "ris.elements": 1, "ris.amplitude": 1e-30, "fading.k_r": 0.001, "fading.k_g": 0.001,
                 "noma.multicast_rate_bpshz": 1e-5, "noma.unicast_rate_bpshz": 1e-5})
# gamma is subnormal, so a share times gamma underflows to 0 in an outage threshold's denominator
@example(values={"mc.trials": 100, "link.tx_power_dbm": -2990.0})
def test_a_command_exits_by_class_and_reruns_byte_identical(tmp_path_factory, command, values):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(_text(values), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = _run(command, path)
        assert first[0] in (0, 2, 3)
        assert _run(command, path) == first


@settings(max_examples=100, suppress_health_check=[HealthCheck.filter_too_much])
@given(values=CONFIGS, powers=st.lists(VALUES["sweep.tx_power_dbm"], min_size=2, max_size=6, unique=True),
       elements=st.lists(VALUES["sweep.elements_op"], min_size=2, max_size=6, unique=True))
def test_closed_form_op_does_not_increase_along_power_or_elements(values, powers, elements):
    values = {**values, "sweep.tx_power_dbm": tuple(sorted(powers)),
              "sweep.elements_op": tuple(sorted(elements))}
    assume(_validates(values))
    cfg = replace(parse_config_text(_text(values)), trials=1)  # the Monte Carlo columns are not read
    for figure in ("op-vs-power", "op-vs-elements"):
        report = run_sweep(cfg, figure)
        for sig in noma.SIGNALS:
            col = report.columns[f"{sig}_closed_form"]
            assert all(a >= b for a, b in zip(col, col[1:])), (figure, sig, col)


#: rounding slack of an MC capacity, in bps/Hz per bps/Hz of the value and at least 1e-12.  Shared
#: draws make each trial's rate nondecreasing in power, but the first-decoded SINR is a quotient of
#: two rounded products: where it saturates at own/other, its true rise is below an ulp and it may
#: read a few ulp lower, as may 1 + SINR and the mean's sum, all far inside this slack
MC_CAPACITY_SLACK = 1e-12


@settings(max_examples=100, suppress_health_check=[HealthCheck.filter_too_much])
@given(values=CONFIGS, powers=st.lists(VALUES["sweep.tx_power_dbm"], min_size=2, max_size=6, unique=True))
# saturated: NO's first-decoded unicast MC reads 3.321928094887362, then one ulp lower
@example(values={"mc.trials": 280, "mc.seed": 479707, "noma.mode": "NO", "ris.elements": 1784,
                 "ris.amplitude": 0.1, "rf.alpha2": 3.661277255548886, "link.spread_gain_db": 402.08741070851687},
         powers=[9.396035249380015, 35.464342008261])
def test_capacity_does_not_decrease_along_power(values, powers):
    values = {**values, "sweep.tx_power_dbm": tuple(sorted(powers))}
    assume(_validates(values))
    report = run_sweep(parse_config_text(_text(values)), "cap-vs-power")
    for sig in noma.SIGNALS:
        col = report.columns[f"{sig}_hardened"]
        assert all(a <= b for a, b in zip(col, col[1:])), (sig, col)
        col = report.columns[f"{sig}_mc"]
        assert all(a - MC_CAPACITY_SLACK * max(1.0, abs(a)) <= b for a, b in zip(col, col[1:])), (sig, col)
