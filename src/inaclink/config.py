"""Scenario configuration: parsing, validation, defaults, scene files.

Config files are flat ``key = value`` text with dotted namespaces::

    # transmit side
    link.tx_power_dbm = 46
    ris.elements = 128
    noma.mode = CO
    sweep.tx_power_dbm = 38,40,42,44,46,48,50

Unset keys take the default scenario: 30 MHz bandwidth, 10 GHz carrier,
32 dBi transmit gain, MEO height 20000 km, elevation pi/10, d_RU = 10 m,
path-loss exponents 2 / 2.2, spread gain 30 dB, target rates 0.0005 and
0.001 bps/Hz, CO split 0.6/0.4 (NO split 0.1/0.9).  Units are carried by
key suffixes (dbm, db, km, ghz, mhz, deg); everything is converted to SI
once at this boundary.  Each key is a ScenarioConfig field: its group from
the field metadata, a dot, and the field name less any ``group_`` prefix;
the value kind follows the annotation.  A value the library rejects is
reported with its key and the value as written, before anything runs.

Navigation scene files use the same syntax with 3-vector values::

    sat1 = 24438951.0 6109737.8 4399011.0
    sat2 = ...
    sat3 = ...
    inac_sat = ...
    ris = 6378005.0 8.0 3.0
    user = 6378000.0 0.0 0.0
    clock_bias_s = 2.5e-4
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import RicianParams, RisArray
from .errors import ConfigError
from .geometry import LinkBudget, OrbitGeometry, RfParams, link_budget
from .montecarlo import McConfig
from .navigation import NavScene
from .noma import PowerSplit, RateTargets, Scenario

__all__ = [
    "ScenarioConfig",
    "load_config",
    "parse_config_text",
    "load_scene",
    "parse_scene_text",
    "default_scene",
]

#: split defaults per mode: (alpha_m_sq, alpha_u_sq)
_MODE_SPLITS = {"CO": (0.6, 0.4), "NO": (0.1, 0.9)}


def _key(group: str, default, point=None, builds=None):
    """A config field keyed ``group.`` + its name less any ``group_`` prefix.

    A scalar field names in builds the ScenarioConfig method that builds
    the object its value feeds; a sweep grid carries point(cfg, x), which
    builds the object of one grid value x.  validate builds them all, so a
    bad value is named by its key before any sweep runs.
    """
    return field(default=default, metadata={"group": group, "point": point, "builds": builds})


def _nav_elements_point(cfg: "ScenarioConfig", elements: int) -> RisArray | None:
    if elements < 0:
        raise ValueError(f"element count must be >= 0 (0: no RIS), got {elements}")
    return cfg.ris_array(elements) if elements else None


@dataclass(frozen=True)
class ScenarioConfig:
    """Every physical and protocol parameter of one experiment, boundary units."""

    r_e_km: float = _key("orbit", 6378.0, builds="link")
    r_m_km: float = _key("orbit", 20000.0, builds="link")
    elevation_deg: float = _key("orbit", 18.0, builds="link")
    f_c_ghz: float = _key("rf", 10.0, builds="link")
    g_t_dbi: float = _key("rf", 32.0, builds="link")
    alpha1: float = _key("rf", 2.0, builds="link")
    alpha2: float = _key("rf", 2.2, builds="link")
    d_ru_m: float = _key("rf", 10.0, builds="link")
    bandwidth_mhz: float = _key("link", 30.0, builds="link")
    tx_power_dbm: float = _key("link", 46.0, builds="link")
    spread_gain_db: float = _key("link", 30.0, builds="link")
    elements: int = _key("ris", 128, builds="ris_array")
    amplitude: float = _key("ris", 1.0, builds="ris_array")
    k_r: float = _key("fading", 1.0, builds="rician_params")
    k_g: float = _key("fading", 0.0, builds="rician_params")
    mode: str = _key("noma", "CO")
    alpha_m_sq: float | None = _key("noma", None, builds="power_split")  # None: mode default
    alpha_u_sq: float | None = _key("noma", None, builds="power_split")
    multicast_rate_bpshz: float = _key("noma", 0.0005, builds="rate_targets")
    unicast_rate_bpshz: float = _key("noma", 0.001, builds="rate_targets")
    trials: int = _key("mc", 20_000, builds="mc_config")
    seed: int = _key("mc", 12345, builds="mc_config")
    scene_file: str = _key("nav", "")
    nav_repetitions: int = _key("nav", 200)
    sweep_tx_power_dbm: tuple[float, ...] = _key(
        "sweep", (38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50),
        lambda cfg, dbm: cfg.link(10.0 ** (dbm / 10.0) * 1e-3))
    sweep_elements_op: tuple[int, ...] = _key(
        "sweep", (8, 16, 32, 64, 128, 256), lambda cfg, L: cfg.ris_array(L))
    sweep_elements_cap: tuple[int, ...] = _key(
        "sweep", (16, 64, 256, 1024, 4096, 16384), lambda cfg, L: cfg.ris_array(L))
    sweep_alpha_u_sq: tuple[float, ...] = _key(
        "sweep", (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
        lambda cfg, a_u: PowerSplit(alpha_m_sq=1.0 - a_u, alpha_u_sq=a_u))
    sweep_r_m_km: tuple[float, ...] = _key(
        "sweep", (500, 1000, 2000, 4000, 8000, 12000, 20000, 30000),
        lambda cfg, r_m: replace(cfg.orbit(), r_m=r_m * 1e3))
    sweep_elevation_deg: tuple[float, ...] = _key(
        "sweep", (5, 15, 30, 45, 60, 75, 85),
        lambda cfg, deg: replace(cfg.orbit(), elevation=math.radians(deg)))
    sweep_nav_elements: tuple[int, ...] = _key(
        "sweep", (0, 16, 64, 256, 1024, 4096, 16384), _nav_elements_point)

    # --- SI conversions -----------------------------------------------------

    @property
    def bandwidth_hz(self) -> float:
        return self.bandwidth_mhz * 1e6

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0) * 1e-3

    @property
    def spread_gain_linear(self) -> float:
        return 10.0 ** (self.spread_gain_db / 10.0)

    def orbit(self) -> OrbitGeometry:
        return OrbitGeometry(
            r_e=self.r_e_km * 1e3,
            r_m=self.r_m_km * 1e3,
            elevation=math.radians(self.elevation_deg),
        )

    def rf_params(self) -> RfParams:
        return RfParams(
            f_c=self.f_c_ghz * 1e9,
            g_t=10.0 ** (self.g_t_dbi / 10.0),
            alpha1=self.alpha1,
            alpha2=self.alpha2,
            d_ru=self.d_ru_m,
        )

    def link(self, tx_power_w: float | None = None) -> LinkBudget:
        return link_budget(
            self.orbit(),
            self.rf_params(),
            self.tx_power_w if tx_power_w is None else tx_power_w,
            self.spread_gain_linear,
            self.bandwidth_hz,
        )

    def ris_array(self, elements: int | None = None) -> RisArray:
        return RisArray(
            num_elements=self.elements if elements is None else elements,
            amplitude=self.amplitude,
        )

    def rician_params(self) -> RicianParams:
        return RicianParams(k_r=self.k_r, k_g=self.k_g)

    def power_split(self, mode: str | None = None) -> PowerSplit:
        mode = self.mode if mode is None else mode
        default_m, default_u = _MODE_SPLITS[mode]
        a_m, a_u = self.alpha_m_sq, self.alpha_u_sq
        if a_m is None and a_u is None:
            a_m, a_u = default_m, default_u
        elif a_m is None:
            a_m = 1.0 - a_u
        elif a_u is None:
            a_u = 1.0 - a_m
        return PowerSplit(alpha_m_sq=a_m, alpha_u_sq=a_u)

    def rate_targets(self) -> RateTargets:
        return RateTargets(r_m=self.multicast_rate_bpshz, r_u=self.unicast_rate_bpshz)

    def mc_config(self) -> McConfig:
        return McConfig(trials=self.trials, master_seed=self.seed)

    def scenario(self, mode: str | None = None, elements: int | None = None) -> Scenario:
        mode = self.mode if mode is None else mode
        return Scenario(
            mode=mode,
            split=self.power_split(mode),
            targets=self.rate_targets(),
            budget=self.link(),
            ris=self.ris_array(elements),
            rician=self.rician_params(),
        )

    def nav_scene(self) -> NavScene:
        if self.scene_file:
            return load_scene(self.scene_file)
        return default_scene()

    # --- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical config text; parsing it back reproduces this config."""
        lines = []
        for key, (attr, kind) in _KEYMAP.items():
            value = getattr(self, attr)
            if value is None:
                continue
            if kind in ("float_list", "int_list"):
                rendered = ",".join(repr(v) if kind == "float_list" else str(v) for v in value)
            elif kind == "float":
                rendered = repr(float(value))
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    def validate(self) -> "ScenarioConfig":
        """Checks each value, then the cross-field invariants.

        Raises ConfigError naming the key and value, or the violated
        invariant.  A scalar value is built over the defaults, so that it is
        judged alone and another key's bad value is not blamed on it.
        """
        if self.mode not in _MODE_SPLITS:
            raise ConfigError(f"noma.mode must be CO or NO, got {self.mode!r}")
        if self.nav_repetitions < 1:
            raise ConfigError(f"nav.repetitions must be >= 1, got {self.nav_repetitions}")
        for key, f in _SCALARS.items():
            value = getattr(self, f.name)
            if value == getattr(_DEFAULTS, f.name):
                continue  # the defaults build
            with _naming(f"{key} = {value}"):
                getattr(replace(_DEFAULTS, **{f.name: value}), f.metadata["builds"])()
        try:
            # what no single value decides: the split's sum, the link budget's product
            sc = self.scenario()
        except (ValueError, OverflowError) as exc:
            for builds in _BUILDS:  # name the set keys of the object that fails
                with _naming(self._set_keys(builds)):
                    getattr(self, builds)()
            raise ConfigError(str(exc)) from exc
        if not sc.feasible:
            raise ConfigError(
                f"{self._set_keys('power_split', 'rate_targets')}: power split "
                f"(alpha_m_sq={sc.split.alpha_m_sq}, alpha_u_sq={sc.split.alpha_u_sq}) "
                f"cannot decode the first {self.mode} signal at any SNR"
            )
        for key, f in _GRIDS.items():
            values = getattr(self, f.name)
            if len(values) == 0:
                raise ConfigError(f"{key} must not be empty")
            for x in values:
                with _naming(f"{key} = {x}"):
                    f.metadata["point"](self, x)
        return self

    def _set_keys(self, *builds: str) -> str:
        """``key = value, ...`` of each key off its default that feeds one of the builders."""
        return ", ".join(
            f"{key} = {getattr(self, f.name)}" for key, f in _SCALARS.items()
            if f.metadata["builds"] in builds and getattr(self, f.name) != getattr(_DEFAULTS, f.name)
        )


@contextmanager
def _naming(keys: str):
    """Re-raise the library's rejection of a value as a ConfigError prefixed by keys and values."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError(f"{keys}: out of the range of a double") from exc
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


#: value kind of each field annotation
_KINDS = {
    "float": "float",
    "float | None": "float",
    "int": "int",
    "str": "str",
    "tuple[float, ...]": "float_list",
    "tuple[int, ...]": "int_list",
}


def _config_key(f) -> str:
    group = f.metadata["group"]
    return f"{group}.{f.name.removeprefix(group + '_')}"


#: config key -> (field name, value kind), in field order
_KEYMAP = {_config_key(f): (f.name, _KINDS[f.type]) for f in fields(ScenarioConfig)}
#: config key -> field of each sweep grid
_GRIDS = {_config_key(f): f for f in fields(ScenarioConfig) if _KINDS[f.type].endswith("_list")}
#: config key -> field of each scalar that builds a library object
_SCALARS = {_config_key(f): f for f in fields(ScenarioConfig) if f.metadata["builds"]}
#: the builder methods of the scalars, in field order
_BUILDS = tuple(dict.fromkeys(f.metadata["builds"] for f in _SCALARS.values()))
_DEFAULTS = ScenarioConfig()


def _parse_value(raw: str, kind: str, key: str, lineno: int):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if kind == "float_list":
            return tuple(float(p) for p in parts)
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from exc


def _key_value_lines(text: str):
    """Yield (lineno, key, raw_value) from key=value text, skipping comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        yield lineno, key.strip(), raw.strip()


def parse_config_text(text: str, **overrides) -> ScenarioConfig:
    """Parse and validate config text over the default scenario.

    Field overrides (``seed=``, ``trials=``) replace the parsed values before
    the one validation."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, key, raw in _key_value_lines(text):
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = lineno
        attr, kind = _KEYMAP[key]
        values[attr] = _parse_value(raw, kind, key, lineno)
    return replace(ScenarioConfig(), **{**values, **overrides}).validate()


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Load, parse, and validate a config file; empty file gives the defaults.

    Field overrides replace the file's values, as in `parse_config_text`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, **overrides)


# --- navigation scenes ------------------------------------------------------

_SCENE_VECTORS = ("sat1", "sat2", "sat3", "inac_sat", "ris", "user")


def _finite(raw: str) -> float:
    """float(raw), with NaN and infinities rejected as bad values too."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def parse_scene_text(text: str) -> NavScene:
    """Parse a scene file: six position 3-vectors (m) and the clock bias (s), all finite."""
    values: dict[str, object] = {}
    for lineno, key, raw in _key_value_lines(text):
        if key in _SCENE_VECTORS:
            parts = raw.split()
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: {key} needs 3 coordinates, got {raw!r}")
            try:
                values[key] = np.array([_finite(p) for p in parts])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad coordinate in {raw!r}") from exc
        elif key == "clock_bias_s":
            try:
                values[key] = _finite(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad clock bias {raw!r}") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown scene key {key!r}")
    missing = [k for k in (*_SCENE_VECTORS, "clock_bias_s") if k not in values]
    if missing:
        raise ConfigError(f"scene file missing keys: {', '.join(missing)}")
    return NavScene(
        sat_positions=np.vstack([values["sat1"], values["sat2"], values["sat3"]]),
        inac_sat_position=values["inac_sat"],
        ris_position=values["ris"],
        true_user=values["user"],
        clock_bias=values["clock_bias_s"],
    )


def load_scene(path: str) -> NavScene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scene file {path}: {exc}") from exc
    return parse_scene_text(text)


def default_scene() -> NavScene:
    """Built-in MEO scene: user on the +x surface point, RIS ~10 m away.

    The four anchors sit on the 26378 km sphere in well-separated directions
    above the user's horizon, giving a comfortably non-degenerate design
    matrix (GDOP of a few).
    """
    r_orbit = (6378.0 + 20000.0) * 1e3

    def on_sphere(direction) -> np.ndarray:
        d = np.asarray(direction, dtype=float)
        return r_orbit * d / np.linalg.norm(d)

    return NavScene(
        sat_positions=np.vstack(
            [
                on_sphere([1.0, 0.25, 0.18]),
                on_sphere([1.0, -0.35, 0.22]),
                on_sphere([1.0, 0.10, -0.40]),
            ]
        ),
        inac_sat_position=on_sphere([1.0, 0.45, -0.05]),
        ris_position=np.array([6378005.0, 8.0, 3.0]),
        true_user=np.array([6378000.0, 0.0, 0.0]),
        clock_bias=2.5e-4,
    )
