"""Config and scene file parsing, defaults, serialization round trips."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inaclink import ScenarioConfig, default_scene, load_config
from inaclink.channel import ChannelMoments, RicianParams, RisArray
from inaclink.config import _shared, parse_config_text, parse_scene_text
from inaclink.errors import ConfigError
from inaclink.geometry import OrbitGeometry, RfParams, _fixed_terms, link_budget
from inaclink.noma import (
    MODES,
    SIGNALS,
    OutageResult,
    PowerSplit,
    RateTargets,
    Scenario,
    capacity_hardened,
    mode_spec,
    outage_asymptotic,
    outage_closed_form,
    outage_threshold,
)

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

    @given(mode=st.sampled_from(MODES), x=st.floats(1e-9, 1.0 - 1e-9))
    def test_a_set_unicast_share_leaves_the_rest_to_multicast(self, mode, x):
        # exact bits, in either mode; unset, the split is the mode's pair
        # (test_mode_default_splits), and NO's (0.1, 0.9) is not (1 - 0.9, 0.9)
        split = ScenarioConfig(mode=mode, alpha_u_sq=x).power_split()
        assert (split.alpha_m_sq, split.alpha_u_sq) == (1.0 - x, x)

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

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("link.bandwidth_mhz = -1\n")

    def test_infeasible_split_rejected(self):
        with pytest.raises(ConfigError, match="cannot decode"):
            parse_config_text("noma.alpha_u_sq = 0.99999\n")

    @pytest.mark.parametrize("text, message", [
        ("noma.alpha_u_sq = 0.99999\nlink.tx_power_dbm = 40\n",
         "noma.alpha_u_sq = 0.99999: power split "
         "(alpha_m_sq=9.99999999995449e-06, alpha_u_sq=0.99999) cannot decode the first CO signal at any SNR"),
        ("noma.multicast_rate_bpshz = 5\n",
         "noma.multicast_rate_bpshz = 5.0: power split (alpha_m_sq=0.6, alpha_u_sq=0.4) "
         "cannot decode the first CO signal at any SNR"),
        # the mode sets the decode order, so it is named too
        ("noma.mode = NO\nnoma.alpha_u_sq = 0.00001\n",
         "noma.mode = NO, noma.alpha_u_sq = 1e-05: power split (alpha_m_sq=0.99999, alpha_u_sq=1e-05) "
         "cannot decode the first NO signal at any SNR"),
    ])
    def test_cross_field_error_names_the_set_keys_it_comes_from(self, text, message):
        # only keys that feed the failing object, and only those off their default
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_bad_mode_rejected(self):
        # named by its key whether or not the split's one key is set
        for text in ("noma.mode = XX\n", "noma.mode = XX\nnoma.alpha_u_sq = 0.5\n"):
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert str(err.value) == "noma.mode = XX: mode must be one of ('CO', 'NO'), got 'XX'"

    @pytest.mark.parametrize("reps", [2.5, 3.0, True])
    def test_non_integer_repetitions_rejected(self, reps):
        # a library caller's float failed later, inside the sweep; True ran once
        with pytest.raises(ConfigError) as err:
            replace(ScenarioConfig(), nav_repetitions=reps).validate()
        assert str(err.value) == f"nav.repetitions must be an integer, got {reps!r}"

    def test_numpy_integer_repetitions_accepted(self):
        replace(ScenarioConfig(), nav_repetitions=np.int64(3)).validate()

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


# --- objects shared between configs ---------------------------------------------

#: values of the keys whose objects the config shares, and of the L and K keys
#: that it builds afresh: +-0.0 where a zero is valid, int and float
#: spellings of one value, and values that fail to build
SHARED_KEYS = {
    "r_e_km": st.sampled_from([6378, 6378.0, 6371.0]),
    "r_m_km": st.sampled_from([20000, 20000.0, -1.0]) | st.floats(300.0, 40000.0),
    "elevation_deg": st.sampled_from([0.0, -0.0, 0, 18, 18.0, 90, 95.0]) | st.floats(0.0, 90.0),
    "f_c_ghz": st.sampled_from([10, 10.0, 2.4]),
    "g_t_dbi": st.sampled_from([0.0, -0.0, 0, 32, 32.0, -1.0]),
    "alpha1": st.sampled_from([2, 2.0, 2.5]),
    "alpha2": st.sampled_from([2, 2.0, 2.2]),
    "d_ru_m": st.sampled_from([10, 10.0, 0.0]),
    "tx_power_dbm": st.sampled_from([46, 46.0]) | st.floats(-50.0, 70.0),
    "elements": st.sampled_from([128, 128.0]) | st.integers(1, 4096),
    "mode": st.sampled_from(MODES + ("XX",)),
    "alpha_u_sq": st.sampled_from([None, 0.5, 0.9, 1, 1.0]) | st.floats(0.01, 0.99),
    "multicast_rate_bpshz": st.sampled_from([0.0005, 1, 1.0, 0.0]),
    "unicast_rate_bpshz": st.sampled_from([0.001, 2, 2.0]),
    # K = 117 is past the 1F1 budget: its moments raise
    "k_r": st.sampled_from([0.0, -0.0, 0, 1, 1.0, 117.0]) | st.floats(0.0, 100.0),
    "k_g": st.sampled_from([0.0, -0.0, 0, 1, 1.0]) | st.floats(0.0, 100.0),
}


def _other_spelling(value):
    """-value for a float zero, the other numeric type for an integral value, else value."""
    if isinstance(value, float) and value == 0.0:
        return -value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _direct_objects(cfg):
    """The objects the config's builders return, each constructed afresh, in the order scenario() builds them."""
    default, a_u = mode_spec(cfg.mode)[1], cfg.alpha_u_sq
    split = PowerSplit(*(default if a_u is None else (1.0 - a_u, a_u)))
    targets = RateTargets(cfg.multicast_rate_bpshz, cfg.unicast_rate_bpshz)
    orbit = OrbitGeometry(cfg.r_e_km * 1e3, cfg.r_m_km * 1e3, math.radians(cfg.elevation_deg))
    rf = RfParams(cfg.f_c_ghz * 1e9, 10.0 ** (cfg.g_t_dbi / 10.0), cfg.alpha1, cfg.alpha2, cfg.d_ru_m)
    _fixed_terms.cache_clear()  # a budget worked out afresh, not one that an equal key left
    budget = link_budget(orbit, rf, cfg.tx_power_w, cfg.spread_gain_linear, cfg.bandwidth_hz)
    return {"power_split": split, "rate_targets": targets, "orbit": orbit, "rf_params": rf, "link": budget,
            "ris_array": RisArray(cfg.elements, cfg.amplitude), "rician_params": RicianParams(cfg.k_r, cfg.k_g)}


def _direct_scenario(cfg):
    objects = _direct_objects(cfg)
    return Scenario(cfg.mode, objects["power_split"], objects["rate_targets"], objects["link"],
                    objects["ris_array"], objects["rician_params"])


def _outcome(call):
    """What call returns with each float as its bits, or the type and message of what it raises."""
    try:
        value = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, OutageResult):
        value = value.value
    if isinstance(value, ChannelMoments):
        return tuple(getattr(value, f.name).hex() for f in fields(value))
    return value.hex()


def _results(build):
    """Every closed-form output of the scenario that build returns, or the error that build raises."""
    try:
        sc = build()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    out = [sc.budget.gamma.hex(), sc.budget.noise_power.hex(), _outcome(lambda: sc.moments)]
    for signal in SIGNALS:
        for quantity in (outage_threshold, outage_closed_form, outage_asymptotic, capacity_hardened):
            out.append(_outcome(lambda: quantity(sc, signal)))
    return out


def _field_types(obj):
    return [type(getattr(obj, f.name)) for f in fields(obj)]


class TestSharedObjects:
    @given(values=st.fixed_dictionaries(SHARED_KEYS))
    def test_sharing_changes_no_output(self, values):
        # each config runs after its twin (every zero of the other sign, every
        # integral value in the other spelling) filled both caches, so that it
        # gets whatever objects and link-budget terms the twin's equal keys
        # share with it; the fresh scenario works its budget out uncached
        cfg = ScenarioConfig(**values)
        twin = ScenarioConfig(**{name: _other_spelling(v) for name, v in values.items()})
        for first, then in ((twin, cfg), (cfg, twin)):
            _shared.cache_clear()
            _fixed_terms.cache_clear()
            _results(first.scenario)
            results = _results(then.scenario)
            assert results == _results(then.scenario) == _results(lambda: _direct_scenario(then))
            if isinstance(results, tuple):  # an invalid value
                continue
            # typed keys: a shared object holds the very types that a fresh one does
            for name, fresh in _direct_objects(then).items():
                assert _field_types(getattr(then, name)()) == _field_types(fresh)
            other_power = replace(then, tx_power_dbm=then.tx_power_dbm + 1.0)
            for name in ("orbit", "rf_params", "power_split", "rate_targets"):
                assert getattr(other_power, name)() is getattr(then, name)()

    def test_a_point_that_changes_power_l_k_and_mode_reuses_the_rest(self):
        cfg = ScenarioConfig()
        point = replace(cfg, tx_power_dbm=40.0, elements=64, k_r=3.0, mode="NO")
        for name in ("orbit", "rf_params", "rate_targets"):
            assert getattr(point, name)() is getattr(cfg, name)()
        assert point.power_split() is replace(cfg, mode="NO").power_split()
        assert point.scenario().targets is cfg.scenario().targets

    @pytest.mark.parametrize("build", ["orbit", "rf_params", "power_split", "rate_targets", "ris_array",
                                       "rician_params", "scenario", None])
    def test_no_field_can_be_set(self, build):
        cfg = ScenarioConfig()
        obj = cfg if build is None else getattr(cfg, build)()
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))

    def test_moments_cannot_be_rebound_after_the_first_read(self):
        sc = ScenarioConfig().scenario()
        moments = sc.moments
        with pytest.raises(FrozenInstanceError):
            sc.moments = replace(moments, m3=0.0)
        with pytest.raises(FrozenInstanceError):
            del sc.moments
        assert sc.moments is moments


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
