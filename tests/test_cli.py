"""End-to-end command-line checks through a real subprocess, or in-process
where a test counts the calls a command makes."""

import errno
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import inaclink
from inaclink import FIGURE_IDS, ScenarioConfig, cli, config, default_scene, navigation, noma, sweeps
from inaclink.config import load_config

#: the directory that holds the imported inaclink, so a child interpreter runs
#: the same code as the tests, in a checkout as well as in an install
SRC = str(Path(inaclink.__file__).resolve().parents[1])

#: the CSV of every command at GOLDEN_CONFIG, compared byte for byte with the
#: benchmark's cli-suite references (`reproduce <figure-id>` as
#: reproduce-<figure-id>.csv). Only a deliberate change of output (a new sampler
#: stream, say) re-records them, by `python3 bench/record.py`: a change to the
#: benchmark, as the script ignores its arguments and re-records every file
#: under bench/reference/
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference" / "cli"
#: the default scenario with a quarter of its trials and nav repetitions, and
#: cap-vs-elements stopped at L = 1024, so that all eleven commands take ~2 s;
#: the same text as bench/workloads.py's CLI_CONFIG_TEXT, which records the
#: references, so a drift between the two fails the byte comparison
GOLDEN_CONFIG = """\
mc.trials = 5000
nav.repetitions = 50
sweep.elements_cap = 16,64,256,1024
"""
GOLDEN_COMMANDS = [("analyze",), ("simulate",), ("position",), ("constellation",),
                   *(("reproduce", fig) for fig in FIGURE_IDS)]


def run_python(*args, timeout=300):
    """A fresh interpreter run on args, with SRC first on its PYTHONPATH."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    # bytes mode: text mode would fold the CRLF line endings away
    res = subprocess.run([sys.executable, *args], capture_output=True, timeout=timeout,
                         env={**os.environ, "PYTHONPATH": path})
    return SimpleNamespace(
        returncode=res.returncode,
        stdout=res.stdout.decode("utf-8"),
        stderr=res.stderr.decode("utf-8"),
    )


def run_cli(*args):
    return run_python("-m", "inaclink.cli", *args)


def scene_text(scene):
    """The scene file of a scene, each coordinate written as its repr."""
    vectors = {"sat1": scene.sat_positions[0], "sat2": scene.sat_positions[1],
               "sat3": scene.sat_positions[2], "inac_sat": scene.inac_sat_position,
               "ris": scene.ris_position, "user": scene.true_user}
    text = "".join(f"{key} = {' '.join(map(repr, v))}\n" for key, v in vectors.items())
    return f"{text}clock_bias_s = {scene.clock_bias!r}\n"


def parse_table(text):
    lines = [ln for ln in text.split("\r\n") if ln]
    assert lines[0] == "quantity,value"
    return dict(ln.split(",", 1) for ln in lines[1:])


class TestAnalyze:
    def test_default_point(self):
        res = run_cli("analyze")
        assert res.returncode == 0
        table = parse_table(res.stdout)
        assert table["mode"] == "CO"
        assert table["slant_range_m"] == "23700172.325"
        assert table["gamma"] == "2.29583328518e-20"
        assert float(table["m3"]) == pytest.approx(102.82546740513416, rel=1e-10)
        assert float(table["multicast_op_closed_form"]) == pytest.approx(5.255240687063178e-13, rel=1e-6)
        assert table["multicast_op_asymptotic"] == "NA"
        assert float(table["unicast_capacity_hardened"]) == pytest.approx(0.0011724073472088076, rel=1e-6)

    def test_config_file_changes_the_point(self, tmp_path):
        cfg = tmp_path / "no.cfg"
        cfg.write_text("noma.mode = NO\n", encoding="utf-8")
        table = parse_table(run_cli("analyze", "--config", str(cfg)).stdout)
        assert table["mode"] == "NO"
        assert float(table["unicast_capacity_hardened"]) == pytest.approx(3.321928094887362, rel=1e-9)

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # as many Windows editors save UTF-8
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfris.elements = 8\n")
        out = tmp_path / "a.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert "m3,6.42659171282\r\n" in out.read_bytes().decode("utf-8")

    def test_out_flag_writes_the_same_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        res = run_cli("analyze", "--out", str(out))
        assert res.returncode == 0 and res.stdout == ""
        assert out.read_bytes().decode("utf-8") == run_cli("analyze").stdout


class TestSimulate:
    def test_overrides_reach_the_estimator(self):
        res = run_cli("simulate", "--trials", "12000", "--seed", "777")
        assert res.returncode == 0
        table = parse_table(res.stdout)
        assert table["trials"] == "12000"
        assert table["seed"] == "777"
        mc = float(table["unicast_op_mc"])
        cf = float(table["unicast_op_closed_form"])
        hw = float(table["unicast_op_mc_half_width"])
        assert abs(mc - cf) <= max(0.01, 3.0 * hw)

    def test_draws_the_gains_once(self, monkeypatch, tmp_path):
        calls = []
        sample = sweeps.sample_cascaded_gains

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(sweeps, "sample_cascaded_gains", counted)
        assert cli.main(["simulate", "--trials", "2000", "--out", str(tmp_path / "sim.csv")]) == 0
        assert len(calls) == 1


class TestPosition:
    def test_default_scene_run(self):
        res = run_cli("position")
        assert res.returncode == 0
        table = parse_table(res.stdout)
        assert float(table["gdop"]) == pytest.approx(6.6671, abs=2e-3)
        assert float(table["pdop"]) == pytest.approx(5.2783, abs=2e-3)
        assert float(table["sigma_m"]) == pytest.approx(101.215, rel=1e-4)
        # heavy noise: the iteration cap is the documented stopping mode
        assert table["iterations_used"] == "20"
        assert 0.0 < float(table["position_error_m"]) < 1000.0

    def test_scene_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.scene"
        path.write_bytes(b"\xef\xbb\xbf" + scene_text(default_scene()).encode("utf-8"))
        cfg = tmp_path / "bom.cfg"
        cfg.write_text(f"nav.scene_file = {path}\n", encoding="utf-8")
        # the same scene as the built-in one, so the same fix
        assert cli.main(["position", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert cli.main(["position", "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_degenerate_scene_exits_3(self, tmp_path):
        scene = tmp_path / "bad.scene"
        scene.write_text(
            "sat1 = 26378000 0 0\n"
            "sat2 = 26378000 0 0\n"
            "sat3 = 26378000 0 0\n"
            "inac_sat = 20000000 17000000 0\n"
            "ris = 6378005 8 3\n"
            "user = 6378000 0 0\n"
            "clock_bias_s = 2.5e-4\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"nav.scene_file = {scene}\n", encoding="utf-8")
        res = run_cli("position", "--config", str(cfg))
        assert res.returncode == 3
        assert res.stderr.startswith("numeric error:")
        assert "rank deficient" in res.stderr

    def test_singular_dop_exits_3(self, tmp_path):
        # every anchor sits 45 degrees off the user's +x axis: the fix solves,
        # but U^T U at the user is singular, so there is no DOP
        user = (6378000.0, 0.0, 0.0)
        s = 0.5 ** 0.5

        def at(dist, v):
            return " ".join(repr(u + dist * c) for u, c in zip(user, v))

        scene = tmp_path / "cone.scene"
        scene.write_text(
            f"sat1 = {at(2e7, (s, s, 0.0))}\n"
            f"sat2 = {at(2e7, (s, -s, 0.0))}\n"
            f"sat3 = {at(2e7, (s, 0.0, s))}\n"
            f"inac_sat = {at(2e7, (s, 0.0, -s))}\n"
            f"ris = {at(10.0, (s, 0.0, -s))}\n"
            "user = 6378000 0 0\n"
            "clock_bias_s = 2.5e-4\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "cone.cfg"
        cfg.write_text(f"nav.scene_file = {scene}\n", encoding="utf-8")
        res = run_cli("position", "--config", str(cfg))
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.startswith("numeric error:")
        assert "singular" in res.stderr

    def test_position_never_loads_scipy_linalg(self, tmp_path):
        # the solver's LAPACK comes through numpy; scipy.linalg alone costs
        # tens of ms of import, on every fresh process
        code = ("import sys, inaclink\n"
                "from inaclink import cli\n"
                f"assert cli.main(['position', '--out', {str(tmp_path / 'pos.csv')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
        res = run_python("-c", code, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    @pytest.mark.parametrize("argv, draws", [
        (None, False),
        (["analyze"], False),
        (["position"], False),
        (["constellation"], False),
        (["reproduce", "constellation"], False),
        (["reproduce", "nav-accuracy"], False),
        # the Monte Carlo oracle does load it, so the check above is not vacuous
        (["simulate", "--trials", "100"], True),
    ])
    def test_only_monte_carlo_loads_scipy_special(self, tmp_path, argv, draws):
        # closed forms and fixes run on numpy alone; importing scipy.special
        # costs a fresh process more than importing numpy
        code = "import sys, inaclink\n"
        if argv is not None:
            code += f"from inaclink import cli\nassert cli.main({[*argv, '--out', str(tmp_path / 'out.csv')]!r}) == 0\n"
        code += "print('scipy.special' in sys.modules)\n"
        res = run_python("-c", code, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"{draws}\n"

    @pytest.mark.parametrize("argv, loads", [
        (["analyze"], False),
        (["constellation"], False),
        (["reproduce", "constellation"], False),
        # a fix does load it, so the checks above are not vacuous
        (["position"], True),
    ], ids=["analyze", "constellation", "reproduce-constellation", "position"])
    def test_only_fixes_and_monte_carlo_load_numpy(self, tmp_path, argv, loads):
        # numpy's import is most of a fresh process's start-up cost; a command
        # that computes only closed forms needs none of it
        code = ("import sys\n"
                "from inaclink import cli\n"
                f"assert cli.main({[*argv, '--out', str(tmp_path / 'out.csv')]!r}) == 0\n"
                "print('numpy' in sys.modules)\n")
        res = run_python("-c", code, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"{loads}\n"

    @pytest.mark.parametrize("touch, loads", [
        ("", False),
        # the sampler loads it when called, so the check above is not vacuous;
        # its name alone loads montecarlo, which imports no numpy
        ("inaclink.sample_cascaded_gains(sc.ris, sc.rician, inaclink.McConfig(100))\n", True),
    ], ids=["closed-forms", "monte-carlo-name"])
    def test_config_and_closed_forms_never_load_numpy(self, tmp_path, touch, loads):
        # numpy's import is most of a fresh process's start-up cost, and a
        # config, its scenario and the closed forms need none of it
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("mc.trials = 5000\nfading.k_r = 3\nfading.k_g = 2\n", encoding="utf-8")
        code = ("import sys, inaclink\n"
                "from inaclink import noma\n"
                "from inaclink.errors import RegionError\n"
                f"cfg = inaclink.load_config({str(cfg)!r})\n"
                "cfg.mc_config()\n"
                "sc = cfg.scenario()\n"
                "for signal in noma.SIGNALS:\n"
                "    noma.outage_threshold(sc, signal)\n"
                "    noma.outage_closed_form(sc, signal)\n"
                "    noma.capacity_hardened(sc, signal)\n"
                "    try:\n"
                "        noma.outage_asymptotic(sc, signal)\n"
                "    except RegionError:\n"
                "        pass\n"
                # an int gain takes the float path
                "inaclink.effective_gain_cdf(2000, sc.moments)\n"
                f"{touch}"
                "print('numpy' in sys.modules)\n")
        res = run_python("-c", code, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"{loads}\n"

    def test_package_import_loads_no_submodule(self, tmp_path):
        # every package name is lazy: its module loads on first use, and
        # dir() still lists every name for tab completion
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("fading.k_r = 3\n", encoding="utf-8")
        code = ("import sys, inaclink\n"
                "print(sorted(m for m in sys.modules if m.startswith('inaclink.') or m in ('numpy', 'statistics')))\n"
                "print(set(inaclink.__all__) <= set(dir(inaclink)))\n"
                f"inaclink.load_config({str(cfg)!r}).scenario()\n"
                "print('statistics' in sys.modules)\n")
        res = run_python("-c", code, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\nTrue\nFalse\n"


class TestValidateOnce:
    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = ScenarioConfig.validate

        def counted(cfg):
            calls.append(cfg)
            return validate(cfg)

        monkeypatch.setattr(ScenarioConfig, "validate", counted)
        return calls

    @pytest.mark.parametrize("command, flags", [
        ("analyze", []),
        ("simulate", ["--trials", "100"]),
        ("simulate", ["--seed", "5", "--trials", "100"]),
    ])
    def test_one_validation_per_command(self, tmp_path, validations, command, flags):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("noma.mode = NO\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), *flags, "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 0
        assert len(validations) == 1
        assert validations[0].mode == "NO"
        if flags:
            assert validations[0].trials == 100

    def test_defaults_are_validated_once(self, tmp_path, validations):
        assert cli.main(["analyze", "--out", str(tmp_path / "x.csv")]) == 0
        assert len(validations) == 1

    @pytest.mark.parametrize("command", [["analyze"], ["position"], ["reproduce", "nav-accuracy"]], ids=" ".join)
    def test_a_scene_file_is_read_once(self, tmp_path, monkeypatch, command):
        reads = []
        read = config._read_text

        def logged(path, what):
            reads.append(what)
            return read(path, what)

        monkeypatch.setattr(config, "_read_text", logged)
        scene, cfg = tmp_path / "default.scene", tmp_path / "scene.cfg"
        scene.write_text(scene_text(default_scene()), encoding="utf-8")
        cfg.write_text(f"nav.scene_file = {scene}\nnav.repetitions = 3\n", encoding="utf-8")
        assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
        assert reads == ["config", "scene"]

    def test_a_command_runs_the_scene_it_validated(self, tmp_path):
        scene, cfg = tmp_path / "default.scene", tmp_path / "scene.cfg"
        scene.write_text(scene_text(default_scene()), encoding="utf-8")
        cfg.write_text(f"nav.scene_file = {scene}\n", encoding="utf-8")
        loaded = load_config(str(cfg))
        scene.write_text("sat1 = 1 2\n", encoding="utf-8")  # no longer a scene
        assert (sweeps.report_to_csv_text(sweeps.run_sweep(loaded, "position"))
                == sweeps.report_to_csv_text(sweeps.run_sweep(ScenarioConfig(), "position")))

    @pytest.mark.parametrize("with_config", [False, True])
    def test_bad_trials_override_exits_2(self, tmp_path, capsys, with_config):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("noma.mode = NO\n", encoding="utf-8")
        argv = ["simulate", "--trials", "0", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv + (["--config", str(cfg)] if with_config else [])) == 2
        assert capsys.readouterr().err.startswith("config error: mc.trials = 0: ")


class TestErrors:
    def test_multicast_share_is_an_unknown_key_exits_2(self, tmp_path):
        # the split has one key: the multi-cast share is the rest of noma.alpha_u_sq
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("noma.alpha_u_sq = 0.7\nnoma.alpha_m_sq = 0.3\n", encoding="utf-8")
        res = run_cli("analyze", "--config", str(cfg))
        assert res.returncode == 2
        assert res.stderr == "config error: line 2: unknown key 'noma.alpha_m_sq'\n"

    @pytest.mark.parametrize("split", ["", "noma.alpha_u_sq = 0.5\n"])
    def test_bad_mode_exits_2(self, tmp_path, capsys, split):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"noma.mode = XX\n{split}", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "config error: noma.mode = XX: mode must be one of ('CO', 'NO'), got 'XX'\n"

    def test_missing_config_exits_2(self, tmp_path):
        res = run_cli("analyze", "--config", str(tmp_path / "absent.cfg"))
        assert res.returncode == 2
        assert res.stderr.startswith("config error:")

    def test_non_utf8_config_and_scene_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"mc.trials = 5\xff\n")
        assert cli.main(["analyze", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {bad}: ")
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(f"nav.scene_file = {bad}\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()
        assert capsys.readouterr().err.startswith(
            f"config error: nav.scene_file = {bad}: cannot read scene file {bad}: ")

    @pytest.mark.parametrize("out", ["absent/x.csv", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, out):
        # a missing parent directory, then a directory in place of a file
        path = tmp_path / out
        assert cli.main(["analyze", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write --out {path}: ")

    @pytest.mark.parametrize("scene, detail", [
        (None, "cannot read scene file"),
        ("sat1 = 1 2\n", "line 1: bad value for sat1: '1 2'"),
        ("sat1 = 1 2 3\nsat1 = 4 5 6\n", "line 2: duplicate key 'sat1' (first at line 1)"),
    ])
    def test_bad_scene_file_exits_2_on_analyze(self, tmp_path, capsys, scene, detail):
        # validated up front, though analyze never reads the scene
        path = tmp_path / "scene.txt"
        if scene is not None:
            path.write_text(scene, encoding="utf-8")
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(f"nav.scene_file = {path}\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()
        assert capsys.readouterr().err.startswith(f"config error: nav.scene_file = {path}: {detail}")

    @pytest.mark.parametrize("line", ["clock_bias_s = 1e308", "sat1 = 1e300 0 0"])
    @pytest.mark.parametrize("command", [["analyze"], ["position"], ["reproduce", "nav-accuracy"]], ids=" ".join)
    def test_a_scene_whose_ranges_overflow_exits_2(self, tmp_path, capsys, line, command):
        # c dt, or |sat1 - user|^2, overflows a double: the scene is rejected when it is built
        values = dict(ln.split(" = ") for ln in scene_text(default_scene()).splitlines())
        key, value = line.split(" = ")
        path, cfg = tmp_path / "far.scene", tmp_path / "far.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**values, key: value}.items()), encoding="utf-8")
        cfg.write_text(f"nav.scene_file = {path}\n", encoding="utf-8")
        assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: nav.scene_file = {path}: the pseudoranges at the true user overflow a double\n")

    def test_unknown_figure_id_exits_2(self):
        res = run_cli("reproduce", "op-vs-frequency")
        assert res.returncode == 2

    @pytest.mark.parametrize("line, figure", [
        ("sweep.elements_op = 0,8", "op-vs-elements"),
        ("sweep.alpha_u_sq = 1.2", "outage-vs-split"),
        ("sweep.r_m_km = -100", "constellation"),
        ("sweep.elevation_deg = 95", "constellation"),
        ("sweep.nav_elements = -3", "nav-accuracy"),
        ("sweep.r_m_km = nan", "constellation"),
        ("sweep.tx_power_dbm = 38,nan", "op-vs-power"),
        ("sweep.elements_cap = 16,0", "cap-vs-elements"),
    ])
    def test_bad_grid_value_exits_2_before_the_sweep(self, tmp_path, capsys, line, figure):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["reproduce", figure, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: " + line.split(" =")[0])

    @pytest.mark.parametrize("command", [
        ["analyze"], ["simulate", "--trials", "100"],
        ["reproduce", "op-vs-power"], ["reproduce", "cap-vs-power"],
    ])
    def test_grid_power_is_checked_at_the_gain_the_figure_runs(self, tmp_path, capsys, command):
        # the power sweep builds each point's link afresh, as link.tx_power_dbm
        # would be built, and at 600 dB spread that gain overflows at 2760 dBm
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("link.spread_gain_db = 600\nsweep.tx_power_dbm = 38,2760\n", encoding="utf-8")
        assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: sweep.tx_power_dbm = 2760.0: gamma must be finite and > 0, got inf")

    @pytest.mark.parametrize("command", [["simulate"], ["reproduce", "op-vs-power"]], ids=" ".join)
    def test_an_l_that_numpy_cannot_size_exits_3_before_any_draw(self, tmp_path, capsys, command):
        # 4 L doubles per trial are more bytes than an array may hold; the
        # closed forms still run at this L, so analyze exits 0
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("ris.elements = 10000000000000000000000\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        out.unlink()
        assert cli.main([*command, "--trials", "200", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric error: one trial at L = 10000000000000000000000 needs 4 L doubles, more than numpy can size\n")

    @pytest.mark.parametrize("command", [["simulate"], ["reproduce", "op-vs-power"]], ids=" ".join)
    def test_an_l_that_no_host_can_hold_exits_3(self, tmp_path, capsys, command):
        # numpy can size 4 L doubles per trial at L = 1e17, but 2.78 EiB is past
        # any address space, so the allocation fails at once and touches no memory
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("ris.elements = 100000000000000000\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert cli.main([*command, "--trials", "2", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric error: one trial at L = 100000000000000000 needs 4 L doubles, more than this host can allocate\n")

    @pytest.mark.parametrize("command", [["simulate"], ["reproduce", "op-vs-elements"]], ids=" ".join)
    def test_a_trial_count_that_no_host_can_hold_exits_3(self, tmp_path, capsys, command):
        # one double per trial is 8e17 bytes, past any address space, so the
        # allocation fails at once, before any block is planned or drawn
        out = tmp_path / "x.csv"
        assert cli.main([*command, "--trials", "100000000000000000", "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric error: 100000000000000000 trials need one double each, more than this host can allocate\n")

    def test_an_interrupt_exits_130_with_one_line(self, tmp_path):
        # the first block read sends SIGINT to the process, so the interrupt
        # lands in the sampler's wait, deep inside run_sweep
        cfg = tmp_path / "big.cfg"
        cfg.write_text("ris.elements = 16384\n", encoding="utf-8")
        script = textwrap.dedent(f"""
            import itertools, os, signal, sys
            from inaclink import cli, montecarlo

            reads, block = itertools.count(), montecarlo._uniform_block

            def interrupting(*args):
                if next(reads) == 0:
                    os.kill(os.getpid(), signal.SIGINT)
                return block(*args)

            montecarlo._uniform_block = interrupting
            sys.exit(cli.main(["simulate", "--trials", "2000", "--config", {str(cfg)!r},
                               "--out", {str(tmp_path / "x.csv")!r}]))
        """)
        res = run_python("-c", script, timeout=120)
        assert res.returncode == 130, res.stderr
        assert res.stderr == "interrupted\n"
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_stdout_exits_2(self, monkeypatch, capsys):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert cli.main(["analyze"]) == 2
        assert capsys.readouterr().err == (
            "config error: cannot write stdout: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("line, detail", [
        ("link.bandwidth_mhz = -1", "link.bandwidth_mhz = -1.0: bandwidth must be > 0"),
        ("orbit.elevation_deg = 95", "orbit.elevation_deg = 95.0: elevation must be in [0, pi/2]"),
        ("link.tx_power_dbm = 4000", "link.tx_power_dbm = 4000.0: out of the range of a double"),
        ("nav.repetitions = 0", "nav.repetitions must be >= 1, got 0"),
        ("fading.k_r = nan", "fading.k_r = nan: k_r must be finite and >= 0"),
        ("fading.k_g = inf", "fading.k_g = inf: k_g must be finite and >= 0"),
        ("noma.multicast_rate_bpshz = nan", "noma.multicast_rate_bpshz = nan: target rates must be finite"),
        ("noma.unicast_rate_bpshz = inf", "noma.unicast_rate_bpshz = inf: target rates must be finite"),
        # 2^R - 1 overflows from 1024 bps/Hz on
        ("noma.unicast_rate_bpshz = 1100", "noma.unicast_rate_bpshz = 1100.0: target rates must be finite"),
        ("noma.multicast_rate_bpshz = 1e300", "noma.multicast_rate_bpshz = 1e+300: target rates must be finite"),
        # beta^2 L underflows, and with it the CLT variance v3
        ("ris.amplitude = 1e-170", "ris.amplitude = 1e-170: amplitude^2 * num_elements must be >= 2^-1022"),
        ("rf.f_c_ghz = 0", "rf.f_c_ghz = 0.0: f_c must be > 0, got 0.0"),
        ("rf.alpha1 = 0", "rf.alpha1 = 0.0: path-loss exponents must be > 0"),
        ("rf.alpha2 = -1", "rf.alpha2 = -1.0: path-loss exponents must be > 0"),
        ("rf.d_ru_m = 0", "rf.d_ru_m = 0.0: d_ru must be > 0, got 0.0"),
    ])
    def test_bad_scalar_value_is_named_by_its_key(self, tmp_path, capsys, line, detail):
        # a scalar is built over the defaults: orbit.r_e_km, checked before
        # the elevation, feeds the same orbit but is not blamed for it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: " + detail)

    def test_zero_relayed_snr_position_exits_3(self, tmp_path, capsys):
        # the hardened SNR underflows to 0, so no pseudorange noise is finite
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("ris.amplitude = 1e-150\nlink.tx_power_dbm = -100\n", encoding="utf-8")
        assert cli.main(["position", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "numeric error: the RIS-relayed link has zero SNR: its pseudorange cannot be measured\n")

    def test_link_budget_overflow_exits_2(self, tmp_path, capsys):
        # each value builds alone; their product overflows the float gain to inf
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("link.tx_power_dbm = 3000\nlink.spread_gain_db = 3000\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: link.tx_power_dbm = 3000.0, link.spread_gain_db = 3000.0: "
            "gamma must be finite and > 0, got inf")

    def test_link_budget_underflow_of_a_partial_product_is_accepted(self, tmp_path):
        # -3100 dBm underflows p times the path gains; 600 dB of spread gain scales it back
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("link.tx_power_dbm = -3100\nlink.spread_gain_db = 600\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0

    def test_subnormal_link_gain_gives_an_infinite_threshold(self, tmp_path):
        # gamma is subnormal here, and the uni-cast share times gamma underflows
        # to 0: no finite gain decodes that signal, so its omega is inf and its
        # outage certain (at -2985 dBm the same omega reads 8.4e306)
        cfg, out = tmp_path / "faint.cfg", tmp_path / "x.csv"
        cfg.write_text("link.tx_power_dbm = -2990\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        table = parse_table(out.read_bytes().decode("utf-8"))
        assert table["unicast_omega"] == "inf"
        for sig in ("multicast", "unicast"):
            assert table[f"{sig}_op_closed_form"] == "1"
            assert table[f"{sig}_op_asymptotic"] == "NA"
        assert cli.main(["constellation", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0

    def test_a_fix_that_overflows_exits_3(self, tmp_path, capsys):
        # the same link: sigma is ~7e153 m, so the solver's squared distances overflow
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("link.tx_power_dbm = -2990\n", encoding="utf-8")
        assert cli.main(["position", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "numeric error: the position fix overflows a double at sigma_m = 6.9e+153\n"

    @pytest.mark.filterwarnings("error")
    def test_a_far_scene_is_na_in_nav_accuracy_and_exits_3_in_position(self, tmp_path, capsys):
        # every point at x = 1e200: the ranges at the truth are finite, but the
        # solver starts at the origin, where its squared distances overflow
        scene, cfg = tmp_path / "far.scene", tmp_path / "far.cfg"
        scene.write_text("sat1 = 1e200 2.5e7 1e7\nsat2 = 1e200 -2e7 1.5e7\nsat3 = 1e200 5e6 -2.5e7\n"
                         "inac_sat = 1e200 1e7 1e7\nris = 1e200 8 3\nuser = 1e200 0 0\n"
                         "clock_bias_s = 2.5e-4\n", encoding="utf-8")
        cfg.write_text(f"nav.scene_file = {scene}\nnav.repetitions = 3\n", encoding="utf-8")
        out = tmp_path / "nav.csv"
        assert cli.main(["reproduce", "nav-accuracy", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        # columns: elements, co_sigma_m, co_rmse_m, no_sigma_m, no_rmse_m; no RIS at 0 elements
        assert [(row[2], row[4]) for row in rows] == [("inf", "inf")] + [("NA", "NA")] * 6
        assert cli.main(["position", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "numeric error: the position fix overflows a double at sigma_m = 101\n"

    @pytest.mark.parametrize("command, code", [
        (["analyze"], 3), (["constellation"], 0), (["reproduce", "constellation"], 0)])
    def test_a_k_past_the_1f1_budget_fails_only_what_reads_moments(self, tmp_path, command, code):
        # the moments stay lazy: constellation reads the scenario's feasibility
        # through validate, never its moments, so the 1F1 budget cannot fail it
        cfg = tmp_path / "k.cfg"
        cfg.write_text("fading.k_r = 117\n", encoding="utf-8")
        assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == code

    def test_a_value_that_builds_beside_the_set_keys_is_accepted(self, tmp_path):
        # beta^2 L underflows at the default 128 elements, but not at 1024
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("ris.amplitude = 1e-155\nris.elements = 1024\nsweep.elements_op = 1024\n"
                       "sweep.elements_cap = 1024\nsweep.nav_elements = 0,1024\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0

    def test_unexpected_value_error_is_not_a_numeric_error(self, monkeypatch, capsys):
        # only the library's NumericError exits 3; anything else is a bug and
        # propagates instead of posing as a region or convergence failure
        def broken(sc, signal):
            raise ValueError("internal bug")

        monkeypatch.setattr(noma, "outage_closed_form", broken)
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["analyze"])
        assert "numeric error" not in capsys.readouterr().err


class TestReproduce:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("mc.trials = 20000\n", encoding="utf-8")
        for out in (a, b):
            res = run_cli("reproduce", "op-vs-power", "--config", str(cfg), "--out", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_bytes().split(b"\r\n")[0].decode()
        assert header.startswith("tx_power_dbm,")

    def test_seed_override_changes_the_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("reproduce", "op-vs-power", "--trials", "4000", "--out", str(a))
        run_cli("reproduce", "op-vs-power", "--trials", "4000", "--seed", "9", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_nav_accuracy_solves_each_sigma_once(self, monkeypatch, tmp_path):
        cfg, out = tmp_path / "nav.cfg", tmp_path / "nav.csv"
        cfg.write_text("nav.repetitions = 3\n", encoding="utf-8")
        calls = []
        solve = navigation.lsm_solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(navigation, "lsm_solve", counted)
        assert cli.main(["reproduce", "nav-accuracy", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        # columns: elements, co_sigma_m, co_rmse_m, no_sigma_m, no_rmse_m
        sigmas = {float(row[i]) for row in rows for i in (1, 3)} - {float("inf")}
        assert len(sigmas) == 6  # 12 finite cells: the chip floor repeats
        assert len(calls) == 3 * len(sigmas)


class TestConstellationCommand:
    def test_csv_output(self):
        res = run_cli("constellation")
        assert res.returncode == 0
        lines = res.stdout.split("\r\n")
        assert lines[0] == "r_m_km,elevation_deg,geocentric_angle_rad,coverage_area_km2,min_satellites"
        assert len([ln for ln in lines if ln]) == 1 + 8 * 7
        assert any(ln.startswith("500,75,") and ln.endswith(",10597") for ln in lines)

    def test_zenith_row_has_no_satellite_count(self, tmp_path):
        # at 90 degrees the coverage cap is a point: min_satellites is
        # infeasible there, and the sweep writes NA instead of aborting
        cfg, out = tmp_path / "zenith.cfg", tmp_path / "zenith.csv"
        cfg.write_text("sweep.r_m_km = 20000\nsweep.elevation_deg = 85,90\n", encoding="utf-8")
        assert cli.main(["reproduce", "constellation", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_bytes().decode("utf-8").split("\r\n")
        assert rows[1].startswith("20000,85,") and rows[2:] == ["20000,90,0,0,NA", ""]


class TestUniformsRead:
    """Each command reads each uniform of the stream once: the element sweeps
    read the largest L's draw, and every smaller L of their grid a prefix of it."""

    @pytest.mark.parametrize("command, grid", [
        (("reproduce", "op-vs-elements"), "sweep_elements_op"),
        (("reproduce", "cap-vs-elements"), "sweep_elements_cap"),
        (("reproduce", "op-vs-power"), None),
        (("simulate",), None),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_doubles_read_at_the_golden_config(self, command, grid, doubles_read, tmp_path):
        cfg_path = tmp_path / "golden.cfg"
        cfg_path.write_text(GOLDEN_CONFIG, encoding="utf-8")
        cfg = load_config(cfg_path)
        assert cli.main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 0
        elements = [cfg.elements] if grid is None else list(getattr(cfg, grid))
        # a separate draw per L would read sum(elements), which differs here
        assert grid is None or sum(elements) > max(elements)
        assert sum(doubles_read) == 4 * max(elements) * cfg.trials


class TestGoldenOutput:
    def test_a_reference_for_each_command_and_no_other(self):
        assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted("-".join(c) for c in GOLDEN_COMMANDS)

    def test_every_command_writes_the_recorded_bytes(self, tmp_path):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(GOLDEN_CONFIG, encoding="utf-8")
        for command in GOLDEN_COMMANDS:
            name = "-".join(command)
            out = tmp_path / f"{name}.csv"
            assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes(), name
