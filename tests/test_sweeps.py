"""Figure sweeps: grid wiring, column content, CSV rendering, reproducibility."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from inaclink import FIGURE_IDS, ScenarioConfig, SweepReport, emit_csv, run_sweep
from inaclink import capacity_hardened, navigation, outage_closed_form, sample_cascaded_gains, sweeps
from inaclink.config import parse_config_text
from inaclink.errors import DegenerateGeometryError
from inaclink.montecarlo import outage_events, wilson_half_width
from inaclink.sweeps import report_to_csv_text
from test_cli import GOLDEN_CONFIG, GOLDEN_DIR


class TestRegistry:
    def test_figure_ids(self):
        # the order of the figure table: the README and the CLI list it
        assert FIGURE_IDS == (
            "op-vs-power",
            "op-vs-elements",
            "cap-vs-power",
            "cap-vs-elements",
            "outage-vs-split",
            "constellation",
            "nav-accuracy",
        )

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown figure id") as info:
            run_sweep(ScenarioConfig(), "op-vs-frequency")
        # the message lists every report name: the three point commands, then the figures
        for name in ("analyze", "simulate", "position", *FIGURE_IDS):
            assert repr(name) in str(info.value)

    @pytest.mark.parametrize("name", ["analyze", "simulate", "position"])
    def test_point_report_is_the_commands_csv(self, name):
        # run_sweep alone, without the CLI, gives the recorded bytes of the command
        text = report_to_csv_text(run_sweep(parse_config_text(GOLDEN_CONFIG), name))
        assert text.encode("utf-8") == (GOLDEN_DIR / f"{name}.csv").read_bytes()

    def test_report_column_length_checked(self):
        with pytest.raises(ValueError):
            SweepReport("x", [1, 2, 3], {"y": [1.0]})


class TestCsvRendering:
    def report(self):
        return SweepReport("x", [1, 2], {"a": [0.5, None], "b": [3, 4], "c": [1.25e-13, math.inf]})

    def test_header_na_and_crlf(self):
        text = report_to_csv_text(self.report())
        lines = text.split("\r\n")
        assert lines[0] == "x,a,b,c"
        assert lines[1] == "1,0.5,3,1.25e-13"
        assert lines[2] == "2,NA,4,inf"
        assert text.endswith("\r\n")

    def test_emit_to_file_object(self):
        buf = io.StringIO()
        emit_csv(self.report(), buf)
        assert buf.getvalue() == report_to_csv_text(self.report())

    def test_emit_to_path_preserves_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.report(), str(path))
        assert path.read_bytes() == report_to_csv_text(self.report()).encode()


class TestOpVsPower:
    def test_columns_match_direct_evaluation(self):
        cfg = replace(ScenarioConfig(), trials=4000)
        rep = run_sweep(cfg, "op-vs-power")
        assert rep.x == list(cfg.sweep_tx_power_dbm)
        base = cfg.scenario()
        gains = sample_cascaded_gains(base.ris, base.rician, cfg.mc_config())
        for i, dbm in enumerate(rep.x):
            sc = replace(cfg, tx_power_dbm=dbm).scenario()
            assert rep.columns["multicast_closed_form"][i] == outage_closed_form(sc, "multicast").value
            n = np.count_nonzero(outage_events(gains, sc, "unicast"))
            assert rep.columns["unicast_mc"][i] == n / cfg.trials
            assert rep.columns["unicast_mc_half_width"][i] == wilson_half_width(n, cfg.trials)

    def test_outage_falls_with_power(self):
        cfg = replace(ScenarioConfig(), trials=4000)
        rep = run_sweep(cfg, "op-vs-power")
        for sig in ("multicast", "unicast"):
            col = rep.columns[f"{sig}_closed_form"]
            assert all(a >= b for a, b in zip(col, col[1:]))
            assert col[-1] < 0.01 < col[0]
            interior = [v for v in col if v < 1.0]
            assert all(a > b for a, b in zip(interior, interior[1:]))


class TestOpVsElements:
    def test_grid_and_closed_form_ladder(self):
        cfg = replace(ScenarioConfig(), trials=2000)
        rep = run_sweep(cfg, "op-vs-elements")
        assert rep.x == [8, 16, 32, 64, 128, 256]
        col = rep.columns["multicast_closed_form"]
        assert col[:3] == [1.0, 1.0, 1.0]  # too few elements: certain outage
        assert col[3] == pytest.approx(0.763247, rel=1e-5)
        assert col[4] == pytest.approx(5.255240687063178e-13, rel=1e-9)
        assert all(a >= b for a, b in zip(col, col[1:]))

    def test_asymptotic_out_of_region_renders_na(self):
        cfg = replace(ScenarioConfig(), trials=2000)
        rep = run_sweep(cfg, "op-vs-elements")
        assert all(v is None for v in rep.columns["multicast_asymptotic"])
        text = report_to_csv_text(rep)
        assert ",NA," in text


class TestCapVsElements:
    def test_hardened_curves_cross(self):
        cfg = replace(ScenarioConfig(), trials=500)
        rep = run_sweep(cfg, "cap-vs-elements")
        diff = [
            a - b
            for a, b in zip(rep.columns["co_unicast_hardened"], rep.columns["no_unicast_hardened"])
        ]
        assert diff[0] < 0.0 < diff[-1]  # the CO uni-cast curve overtakes

    def test_interference_limited_rows_are_flat(self):
        cfg = replace(ScenarioConfig(), trials=500)
        rep = run_sweep(cfg, "cap-vs-elements")
        for v in rep.columns["co_multicast_hardened"]:
            assert v == pytest.approx(math.log2(2.5), rel=1e-14)
        for v in rep.columns["no_unicast_hardened"]:
            assert v == pytest.approx(math.log2(10.0), rel=1e-14)

    def test_mc_capacity_grows_with_elements(self):
        cfg = replace(ScenarioConfig(), trials=500)
        rep = run_sweep(cfg, "cap-vs-elements")
        col = rep.columns["unicast_mc"]
        assert all(a < b for a, b in zip(col, col[1:]))
        assert all(hw > 0.0 for hw in rep.columns["unicast_mc_half_width"])


class TestOutageVsSplit:
    def test_unicast_outage_falls_with_its_share(self):
        cfg = replace(ScenarioConfig(), trials=2000)
        rep = run_sweep(cfg, "outage-vs-split")
        assert rep.x == list(cfg.sweep_alpha_u_sq)
        col = rep.columns["unicast_closed_form"]
        assert all(a > b for a, b in zip(col, col[1:]))
        assert col[0] == pytest.approx(4.017e-3, rel=1e-3)
        assert col[-1] == pytest.approx(4.812e-10, rel=1e-3)

    def test_multicast_outage_turns_around(self):
        # starving the multi-cast signal eventually saturates its outage
        cfg = replace(ScenarioConfig(), trials=2000)
        rep = run_sweep(cfg, "outage-vs-split")
        col = rep.columns["multicast_closed_form"]
        assert min(col) < col[0]
        assert col[-1] == 1.0

    def test_runs_no_mode_whatever_the_configured_mode(self):
        # the grid point sets the mode, so the configured one changes no byte
        cfg = replace(ScenarioConfig(), trials=2000)
        co = report_to_csv_text(run_sweep(cfg, "outage-vs-split"))
        assert report_to_csv_text(run_sweep(replace(cfg, mode="NO"), "outage-vs-split")) == co


class TestConstellation:
    def test_grid_layout_and_reference_cell(self):
        cfg = ScenarioConfig()
        rep = run_sweep(cfg, "constellation")
        assert len(rep.x) == len(cfg.sweep_r_m_km) * len(cfg.sweep_elevation_deg)
        cell = {
            (x, e): n
            for x, e, n in zip(rep.x, rep.columns["elevation_deg"], rep.columns["min_satellites"])
        }
        assert cell[(500, 75)] == 10597
        assert cell[(20000, 15)] == 4
        assert cell[(30000, 5)] == 3

    def test_monotone_trends(self):
        cfg = ScenarioConfig()
        rep = run_sweep(cfg, "constellation")
        rows = list(zip(rep.x, rep.columns["elevation_deg"], rep.columns["min_satellites"]))
        by_height = [n for x, e, n in rows if e == 75]
        assert all(a >= b for a, b in zip(by_height, by_height[1:]))
        by_mask = [n for x, e, n in rows if x == 8000]
        assert all(a <= b for a, b in zip(by_mask, by_mask[1:]))

    def test_coverage_consistent_with_geocentric_angle(self):
        rep = run_sweep(ScenarioConfig(), "constellation")
        r_e = 6378e3
        for i in (0, 10, 30):
            ups = rep.columns["geocentric_angle_rad"][i]
            area = 2.0 * math.pi * r_e**2 * (1.0 - math.cos(ups)) / 1e6
            assert rep.columns["coverage_area_km2"][i] == pytest.approx(area, rel=1e-12)


@pytest.fixture(scope="module")
def nav_report():
    return run_sweep(ScenarioConfig(), "nav-accuracy")


class TestNavAccuracy:
    def test_sigma_ladder(self, nav_report):
        rep = nav_report
        assert rep.x == [0, 16, 64, 256, 1024, 4096, 16384]
        floor = 0.01 * 299792458.0 / 30e6
        co = rep.columns["co_sigma_m"]
        assert co[0] == math.inf
        assert co[1] == pytest.approx(0.809397, rel=1e-4)
        assert co[2] == pytest.approx(0.202368, rel=1e-4)
        assert all(v == pytest.approx(floor, rel=1e-12) for v in co[3:])
        no = rep.columns["no_sigma_m"]
        assert no[1] == pytest.approx(1.9826, rel=1e-4)
        assert all(v == pytest.approx(floor, rel=1e-12) for v in no[4:])

    def test_rmse_improves_then_plateaus(self, nav_report):
        rep = nav_report
        for mode in ("co", "no"):
            col = rep.columns[f"{mode}_rmse_m"]
            assert col[0] == math.inf
            assert all(a >= b for a, b in zip(col, col[1:]))
            assert col[-1] == col[-2]  # identical noise at the sigma floor
            assert col[-1] == pytest.approx(0.511275, rel=1e-4)

    def test_reference_values(self, nav_report):
        rep = nav_report
        assert rep.columns["co_rmse_m"][1] == pytest.approx(5.98827, rel=1e-4)
        assert rep.columns["no_rmse_m"][2] == pytest.approx(2.83616, rel=1e-4)

    def test_stronger_mode_never_does_worse(self, nav_report):
        # the CO multi-cast share is larger, so its ranging noise is never higher
        rep = nav_report
        for co, no in zip(rep.columns["co_rmse_m"][1:], rep.columns["no_rmse_m"][1:]):
            assert co <= no


    def test_degenerate_solve_marks_its_sigma_na_and_the_sweep_goes_on(self, monkeypatch):
        cfg = replace(ScenarioConfig(), nav_repetitions=20)
        clean = run_sweep(cfg, "nav-accuracy")
        bad_sigma = clean.columns["co_sigma_m"][1]
        # each finite sigma's repetitions are solved as one batch, in column
        # order; the bad sigma's batch fails on its last solve
        batches = list(dict.fromkeys(
            s for mode in ("co", "no") for s in clean.columns[f"{mode}_sigma_m"] if s != math.inf))
        fail_at = (batches.index(bad_sigma) + 1) * cfg.nav_repetitions
        solve = navigation.lsm_solve
        calls = 0

        def fails_at_one_sigma(pr, scene, ctrl):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise DegenerateGeometryError("design matrix is rank deficient")
            return solve(pr, scene, ctrl)

        monkeypatch.setattr(navigation, "lsm_solve", fails_at_one_sigma)
        rep = run_sweep(cfg, "nav-accuracy")
        assert calls == len(batches) * cfg.nav_repetitions
        assert rep.x == clean.x
        na_cells = 0
        for mode in ("co", "no"):
            assert rep.columns[f"{mode}_sigma_m"] == clean.columns[f"{mode}_sigma_m"]
            for sigma, got, want in zip(rep.columns[f"{mode}_sigma_m"], rep.columns[f"{mode}_rmse_m"],
                                        clean.columns[f"{mode}_rmse_m"]):
                if sigma == bad_sigma:
                    assert got is None
                    na_cells += 1
                else:
                    assert got == want
        assert na_cells >= 1


class TestBothModes:
    def test_both_modes_read_the_configured_split(self):
        # cap-vs-elements and nav-accuracy run CO and NO over one config: only
        # the mode differs, and a set split holds in both
        cfg = parse_config_text("noma.mode = NO\nnoma.alpha_u_sq = 0.7\nmc.trials = 200\nnav.repetitions = 5\n")

        def at(mode, elements):
            return replace(cfg, mode=mode, elements=elements).scenario() if elements else None

        cap = run_sweep(cfg, "cap-vs-elements")
        nav = run_sweep(cfg, "nav-accuracy")
        for mode in ("CO", "NO"):
            for sig in ("multicast", "unicast"):
                assert cap.columns[f"{mode.lower()}_{sig}_hardened"] == [
                    capacity_hardened(at(mode, L), sig) for L in cfg.sweep_elements_cap]
            assert nav.columns[f"{mode.lower()}_sigma_m"] == [
                sweeps._nav_sigma(cfg, at(mode, L)) for L in cfg.sweep_nav_elements]


class TestReproducibility:
    def test_same_config_same_bytes(self):
        cfg = replace(ScenarioConfig(), trials=2000)
        a = report_to_csv_text(run_sweep(cfg, "op-vs-elements"))
        b = report_to_csv_text(run_sweep(cfg, "op-vs-elements"))
        assert a == b

    def test_seed_changes_mc_columns_only(self):
        cfg = replace(ScenarioConfig(), trials=2000)
        a = run_sweep(cfg, "op-vs-elements")
        b = run_sweep(replace(cfg, seed=999), "op-vs-elements")
        assert a.columns["multicast_closed_form"] == b.columns["multicast_closed_form"]
        assert a.columns["unicast_mc"] != b.columns["unicast_mc"]
