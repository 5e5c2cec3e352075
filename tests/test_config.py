"""Config and scene file parsing, defaults, serialization round trips."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from inaclink import ScenarioConfig, default_scene, load_config
from inaclink.config import parse_config_text, parse_scene_text
from inaclink.errors import ConfigError

GOOD_SCENE = """\
# four anchors, a surface user, and the receiver clock
sat1 = 24438951.0 6109737.8 4399011.0
sat2 = 23000000.0 -9000000.0 6000000.0
sat3 = 25000000.0 3000000.0 -8000000.0
inac_sat = 24000000.0 10000000.0 -1000000.0
ris = 6378005.0 8.0 3.0
user = 6378000.0 0.0 0.0
clock_bias_s = 2.5e-4
"""


class TestDefaults:
    def test_default_values(self):
        cfg = ScenarioConfig()
        assert cfg.r_m_km == 20000.0
        assert cfg.elevation_deg == 18.0
        assert cfg.bandwidth_mhz == 30.0
        assert cfg.tx_power_dbm == 46.0
        assert cfg.elements == 128
        assert cfg.k_r == 1.0 and cfg.k_g == 0.0
        assert cfg.mode == "CO"
        assert cfg.multicast_rate_bpshz == 0.0005
        assert cfg.unicast_rate_bpshz == 0.001
        assert cfg.trials == 20_000 and cfg.seed == 12345

    def test_si_conversions(self):
        cfg = ScenarioConfig()
        assert cfg.bandwidth_hz == 3e7
        assert cfg.tx_power_w == pytest.approx(10.0 ** (46.0 / 10.0) * 1e-3, rel=1e-14)
        assert cfg.spread_gain_linear == pytest.approx(1000.0, rel=1e-14)
        assert cfg.orbit().elevation == pytest.approx(math.radians(18.0), rel=1e-15)

    def test_mode_default_splits(self):
        cfg = ScenarioConfig()
        co = replace(cfg, mode="CO").power_split()
        assert (co.alpha_m_sq, co.alpha_u_sq) == (0.6, 0.4)
        no = replace(cfg, mode="NO").power_split()
        assert (no.alpha_m_sq, no.alpha_u_sq) == (0.1, 0.9)

    def test_partial_split_complemented(self):
        cfg = replace(ScenarioConfig(), alpha_u_sq=0.3)
        split = cfg.power_split()
        assert split.alpha_m_sq == pytest.approx(0.7, rel=1e-15)

    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == ScenarioConfig()

    def test_validate_passes_on_defaults(self):
        ScenarioConfig().validate()


class TestParsing:
    def test_overrides_and_comments(self):
        cfg = parse_config_text(
            """
            # transmit side
            link.tx_power_dbm = 40   # dBm
            ris.elements = 64

            noma.mode = NO
            sweep.tx_power_dbm = 38, 40, 42
            """
        )
        assert cfg.tx_power_dbm == 40.0
        assert cfg.elements == 64
        assert cfg.mode == "NO"
        assert cfg.sweep_tx_power_dbm == (38.0, 40.0, 42.0)

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*unknown key"):
            parse_config_text("\nfoo.bar = 1\n")
        # the sampler's block size is not a setting
        with pytest.raises(ConfigError, match=r"line 1.*unknown key 'mc.batch'"):
            parse_config_text("mc.batch = 7\n")

    def test_duplicate_key_names_both_lines(self):
        text = "ris.elements = 8\nris.elements = 16\n"
        with pytest.raises(ConfigError, match=r"line 2.*duplicate.*line 1"):
            parse_config_text(text)

    def test_bad_value_names_the_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*bad value"):
            parse_config_text("ris.elements = many\n")
        with pytest.raises(ConfigError, match=r"^line 2: bad value for sweep\.elements_op: '8,x'$"):
            parse_config_text("ris.elements = 8\nsweep.elements_op = 8,x\n")
        # an empty list item is a bad value, not a shorter grid
        with pytest.raises(ConfigError, match=r"^line 1: bad value for sweep\.elements_op: '8,,16'$"):
            parse_config_text("sweep.elements_op = 8,,16\n")
        with pytest.raises(ConfigError, match=r"^line 2: bad value for sweep\.tx_power_dbm: '38,40,'$"):
            parse_config_text("ris.elements = 8\nsweep.tx_power_dbm = 38,40,\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config_text("just some words\n")

    def test_split_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config_text("noma.alpha_m_sq = 0.6\nnoma.alpha_u_sq = 0.5\n")

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("link.bandwidth_mhz = -1\n")

    def test_infeasible_split_rejected(self):
        with pytest.raises(ConfigError, match="cannot decode"):
            parse_config_text("noma.alpha_m_sq = 0.00001\nnoma.alpha_u_sq = 0.99999\n")

    @pytest.mark.parametrize("text, message", [
        ("noma.alpha_m_sq = 0.6\nnoma.alpha_u_sq = 0.5\n",
         "noma.alpha_m_sq = 0.6, noma.alpha_u_sq = 0.5: power shares must sum to 1, got 1.1"),
        ("noma.alpha_m_sq = 0.00001\nnoma.alpha_u_sq = 0.99999\nlink.tx_power_dbm = 40\n",
         "noma.alpha_m_sq = 1e-05, noma.alpha_u_sq = 0.99999: power split "
         "(alpha_m_sq=1e-05, alpha_u_sq=0.99999) cannot decode the first CO signal at any SNR"),
        ("noma.multicast_rate_bpshz = 5\n",
         "noma.multicast_rate_bpshz = 5.0: power split (alpha_m_sq=0.6, alpha_u_sq=0.4) "
         "cannot decode the first CO signal at any SNR"),
    ])
    def test_cross_field_error_names_the_set_keys_it_comes_from(self, text, message):
        # only keys that feed the failing object, and only those off their default
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config_text("noma.mode = XX\n")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            parse_config_text("sweep.elements_op =\n")


class TestRoundTrip:
    def test_to_text_parses_back_identically(self):
        cfg = replace(
            ScenarioConfig(),
            tx_power_dbm=43.5,
            elements=256,
            mode="NO",
            k_r=2.5,
            alpha_m_sq=0.3,
            alpha_u_sq=0.7,
            sweep_tx_power_dbm=(40.0, 44.0, 48.0),
            sweep_nav_elements=(0, 32, 1024),
        )
        # a field of every annotation kind is off its default, a set float | None too
        defaults = ScenarioConfig()
        assert {f.type for f in fields(cfg) if getattr(cfg, f.name) != getattr(defaults, f.name)} == {
            f.type for f in fields(cfg)}
        assert parse_config_text(cfg.to_text()) == cfg

    def test_default_round_trip(self):
        assert parse_config_text(ScenarioConfig().to_text()) == ScenarioConfig()

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ris.elements = 32\n", encoding="utf-8")
        assert load_config(str(path)).elements == 32

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))


class TestSceneFiles:
    def test_parse_good_scene(self):
        scene = parse_scene_text(GOOD_SCENE)
        np.testing.assert_allclose(scene.true_user, [6378000.0, 0.0, 0.0])
        np.testing.assert_allclose(scene.ris_position, [6378005.0, 8.0, 3.0])
        np.testing.assert_allclose(scene.sat_positions[0], [24438951.0, 6109737.8, 4399011.0])
        assert scene.clock_bias == 2.5e-4

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="missing keys.*sat3"):
            parse_scene_text("sat1 = 1 2 3\nsat2 = 4 5 6\n")

    def test_wrong_coordinate_count(self):
        with pytest.raises(ConfigError, match=r"^line 1: bad value for sat1: '1 2'$"):
            parse_scene_text("sat1 = 1 2\n")

    def test_bad_coordinate(self):
        # worded as a config file's bad value: the line, the key and the value as written
        with pytest.raises(ConfigError, match=r"^line 1: bad value for sat1: '1 2 x'$"):
            parse_scene_text("sat1 = 1 2 x\n")
        with pytest.raises(ConfigError, match=r"^line 1: bad value for user: 'nan 0.0 0.0'$"):
            parse_scene_text("user = nan 0.0 0.0\n")
        with pytest.raises(ConfigError, match=r"^line 2: bad value for clock_bias_s: 'inf'$"):
            parse_scene_text("ris = 6378005.0 8.0 3.0\nclock_bias_s = inf\n")

    def test_duplicate_key_names_both_lines(self):
        # as in a config file: a repeated key is an error, not a silent override
        with pytest.raises(ConfigError, match=r"^line 2: duplicate key 'sat1' \(first at line 1\)$"):
            parse_scene_text("sat1 = 1 2 3\nsat1 = 4 5 6\n")

    def test_unknown_scene_key(self):
        with pytest.raises(ConfigError, match="unknown scene key"):
            parse_scene_text("sat9 = 1 2 3\n")

    def test_load_scene(self, tmp_path):
        # read on first use, then kept: a second call neither reopens the file nor parses again
        path = tmp_path / "scene.txt"
        path.write_text(GOOD_SCENE, encoding="utf-8")
        cfg = replace(ScenarioConfig(), scene_file=str(path))
        scene = cfg.nav_scene()
        assert scene.clock_bias == 2.5e-4
        path.unlink()
        assert cfg.nav_scene() is scene

    def test_config_scene_file_wiring(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text(GOOD_SCENE, encoding="utf-8")
        cfg = replace(ScenarioConfig(), scene_file=str(path))
        np.testing.assert_allclose(cfg.nav_scene().true_user, [6378000.0, 0.0, 0.0])


class TestDefaultScene:
    def test_layout(self):
        scene = default_scene()
        np.testing.assert_allclose(scene.true_user, [6378000.0, 0.0, 0.0])
        np.testing.assert_allclose(scene.ris_position, [6378005.0, 8.0, 3.0])
        assert scene.clock_bias == 2.5e-4
        r_orbit = 26378e3
        for anchor in (*scene.sat_positions, scene.inac_sat_position):
            assert np.linalg.norm(anchor) == pytest.approx(r_orbit, rel=1e-12)

    def test_bit_identical_to_the_construction_it_records(self):
        # _DEFAULT_SCENE writes down, as reprs, the doubles of this construction
        def on_sphere(direction):
            d = np.asarray(direction, dtype=float)
            return 26378e3 * d / np.linalg.norm(d)

        reference = (
            np.vstack([on_sphere([1.0, 0.25, 0.18]), on_sphere([1.0, -0.35, 0.22]),
                       on_sphere([1.0, 0.10, -0.40])]),
            on_sphere([1.0, 0.45, -0.05]),
            np.array([6378005.0, 8.0, 3.0]),
            np.array([6378000.0, 0.0, 0.0]),
        )
        scene = default_scene()
        arrays = (scene.sat_positions, scene.inac_sat_position, scene.ris_position, scene.true_user)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in reference]
        assert [a.shape for a in arrays] == [a.shape for a in reference]
        assert scene.clock_bias == 2.5e-4

    def test_well_posed(self):
        from inaclink import dilution_of_precision

        gdop, _ = dilution_of_precision(default_scene())
        assert gdop < 10.0
