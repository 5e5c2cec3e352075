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
0.001 bps/Hz, mode CO.  The power split has one key, the uni-cast share
``noma.alpha_u_sq``: the multi-cast share is 1 - ``noma.alpha_u_sq``, or
the mode's default split from `noma.mode_spec` when the key is unset, so a
split that does not sum to 1 cannot be written.  Units are carried by
key suffixes (dbm, db, km, ghz, mhz, deg); everything is converted to SI
once at this boundary.  Each key is a ScenarioConfig field: its group from
the field metadata, a dot, and the field name less any ``group_`` prefix;
the value kind follows the annotation.  A value the library rejects is
reported with its key and the value as written, before anything runs.
McConfig, the Monte Carlo trial count and seed that ``mc.*`` builds, is
defined here rather than in montecarlo, so that neither loading a config
nor building its scenario imports numpy; parsing a scene imports numpy and
navigation.

`ScenarioConfig` and `McConfig`, like every record of the package, are
built by `_record.record`: a frozen dataclass whose `__init__` stores the
fields in the instance dict, so a point built by `grid_points` or
`dataclasses.replace` makes no `object.__setattr__` call per field.

`orbit`, `rf_params`, `power_split` and `rate_targets` share one frozen
object per argument tuple through `_shared`, a typed LRU cache of 256 over
the type's constructor: the first build validates, a failed one keeps
nothing, ``2`` and ``2.0`` build apart, and 0.0 and -0.0 share a key that
each builder rejects or turns into the same bits (elevation, 10 ** (+-0/10)
= 1.0).  `ris_array`, `rician_params` and `link` build afresh: L, K and
power are what a point varies, and `geometry.link_budget` keeps the slant
range, path gains and noise power of the orbit, RF and bandwidth itself.

Navigation scenes use the same syntax with 3-vector values (`_DEFAULT_SCENE`
is the built-in one).  Every scene, the built-in one included, is built by
`parse_scene_text`.  A config parses its scene once, on first use, and keeps
it: `validate` reads ``nav.scene_file`` through `ScenarioConfig.nav_scene`,
so a command runs the scene that validation checked, and the file is not
opened again.  A relative path is opened from the working directory.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import field, fields, replace
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from ._record import record
from .channel import RicianParams, RisArray
from .errors import ConfigError
from .geometry import LinkBudget, OrbitGeometry, RfParams, link_budget
from .noma import PowerSplit, RateTargets, Scenario, mode_spec

if TYPE_CHECKING:
    from .navigation import NavScene

__all__ = [
    "McConfig",
    "ScenarioConfig",
    "load_config",
    "parse_config_text",
    "parse_scene_text",
    "default_scene",
]


@record
class McConfig:
    """Trial count and master seed of a Monte Carlo run."""

    trials: int = 20_000
    master_seed: int = 12345

    def __post_init__(self) -> None:
        trials, seed = self.trials, self.master_seed
        # a bool or a float is neither (seed 1.5 keyed seed 1's stream)
        if isinstance(trials, bool) or not hasattr(type(trials), "__index__") or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        if isinstance(seed, bool) or not hasattr(type(seed), "__index__") or not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must be an integer that fits in 64 bits, got {seed!r}")


def _key(group: str, default, builds=None):
    """A config field keyed ``group.`` + its name less any ``group_`` prefix.

    builds names the ScenarioConfig method that builds the object its value feeds."""
    return field(default=default, metadata={"group": group, "builds": builds})


def _grid(sweeps: str, default: tuple, builds: str, none_at=None, **fixed):
    """A ``sweep.`` grid over the scalar field sweeps: value x runs as that field's key set to x.

    Its point at x is the config with the fixed fields and sweeps = x
    (grid_points).  validate calls the builder builds on each point, so a
    bad value is named by its key before any sweep runs.  The value none_at
    has no point: the figure runs without the swept object there."""
    return field(default=default, metadata={
        "group": "sweep", "builds": builds, "sweeps": sweeps, "fixed": fixed, "none_at": none_at})


@lru_cache(maxsize=256, typed=True)
def _shared(cls, *args):
    """cls(*args), one frozen object per distinct (cls, args); a constructor that raises leaves nothing kept."""
    return cls(*args)


@record
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
    mode: str = _key("noma", "CO", builds="power_split")
    alpha_u_sq: float | None = _key("noma", None, builds="power_split")  # None: the mode's split
    multicast_rate_bpshz: float = _key("noma", 0.0005, builds="rate_targets")
    unicast_rate_bpshz: float = _key("noma", 0.001, builds="rate_targets")
    trials: int = _key("mc", McConfig.trials, builds="mc_config")
    seed: int = _key("mc", McConfig.master_seed, builds="mc_config")
    scene_file: str = _key("nav", "")
    nav_repetitions: int = _key("nav", 200)
    sweep_tx_power_dbm: tuple[float, ...] = _grid(
        "tx_power_dbm", (38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50), "link")
    sweep_elements_op: tuple[int, ...] = _grid("elements", (8, 16, 32, 64, 128, 256), "ris_array")
    sweep_elements_cap: tuple[int, ...] = _grid("elements", (16, 64, 256, 1024, 4096, 16384), "ris_array")
    # NO mode: CO saturates at once over the uni-cast share
    sweep_alpha_u_sq: tuple[float, ...] = _grid(
        "alpha_u_sq", (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95), "power_split", mode="NO")
    sweep_r_m_km: tuple[float, ...] = _grid(
        "r_m_km", (500, 1000, 2000, 4000, 8000, 12000, 20000, 30000), "orbit")
    sweep_elevation_deg: tuple[float, ...] = _grid("elevation_deg", (5, 15, 30, 45, 60, 75, 85), "orbit")
    sweep_nav_elements: tuple[int, ...] = _grid(
        "elements", (0, 16, 64, 256, 1024, 4096, 16384), "ris_array", none_at=0)  # 0: no RIS

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
        return _shared(OrbitGeometry, self.r_e_km * 1e3, self.r_m_km * 1e3, math.radians(self.elevation_deg))

    def rf_params(self) -> RfParams:
        return _shared(RfParams, self.f_c_ghz * 1e9, 10.0 ** (self.g_t_dbi / 10.0), self.alpha1, self.alpha2,
                       self.d_ru_m)

    def link(self) -> LinkBudget:
        return link_budget(
            self.orbit(), self.rf_params(), self.tx_power_w, self.spread_gain_linear, self.bandwidth_hz)

    def ris_array(self) -> RisArray:
        return RisArray(self.elements, self.amplitude)

    def rician_params(self) -> RicianParams:
        return RicianParams(self.k_r, self.k_g)

    def power_split(self) -> PowerSplit:
        """The mode's split, or (1 - alpha_u_sq, alpha_u_sq) when that is set; a bad mode fails either way."""
        split, a_u = mode_spec(self.mode)[1], self.alpha_u_sq
        return _shared(PowerSplit, *(split if a_u is None else (1.0 - a_u, a_u)))

    def rate_targets(self) -> RateTargets:
        return _shared(RateTargets, self.multicast_rate_bpshz, self.unicast_rate_bpshz)

    def mc_config(self) -> McConfig:
        return McConfig(trials=self.trials, master_seed=self.seed)

    def scenario(self) -> Scenario:
        return Scenario(self.mode, self.power_split(), self.rate_targets(), self.link(), self.ris_array(),
                        self.rician_params())

    def grid_points(self, name: str) -> list:
        """The config a figure runs at each value of the grid field name; None at its none_at."""
        meta = self.__dataclass_fields__[name].metadata
        return [None if x == meta["none_at"] else replace(self, **meta["fixed"], **{meta["sweeps"]: x})
                for x in getattr(self, name)]

    def nav_scene(self) -> NavScene:
        """The scene of nav.scene_file, else the built-in one; parsed on first use and kept."""
        return self._nav_scene

    @cached_property
    def _nav_scene(self) -> NavScene:
        return parse_scene_text(_read_text(self.scene_file, "scene") if self.scene_file else _DEFAULT_SCENE)

    # --- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical config text; parsing it back reproduces this config."""
        return "".join(f"{key} = {_CODECS[f.type][1](value)}\n" for key, f in _FIELDS.items()
                       if (value := getattr(self, f.name)) is not None)

    def validate(self) -> "ScenarioConfig":
        """Checks each value, then the cross-field invariants.

        Raises ConfigError naming the key and value, or the violated
        invariant.  An object that does not build names its first set value
        that fails alone over the defaults (so that no other key is blamed),
        else all its set keys.
        """
        reps = self.nav_repetitions  # a bool or a float is no count
        if isinstance(reps, bool) or not hasattr(type(reps), "__index__"):
            raise ConfigError(f"nav.repetitions must be an integer, got {reps!r}")
        if reps < 1:
            raise ConfigError(f"nav.repetitions must be >= 1, got {reps}")
        if self.scene_file:
            with _naming(f"nav.scene_file = {self.scene_file}"):
                self.nav_scene()
        for builds in _BUILDS:
            try:
                getattr(self, builds)()
            except (ValueError, OverflowError):
                for key, f in _SCALARS.items():
                    value = getattr(self, f.name)
                    if f.metadata["builds"] == builds and value != getattr(_DEFAULTS, f.name):
                        with _naming(f"{key} = {value}"):
                            getattr(replace(_DEFAULTS, **{f.name: value}), builds)()
                with _naming(self._set_keys(builds)):
                    raise
        sc = self.scenario()
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
            for x, point in zip(values, self.grid_points(f.name)):
                if point is not None:
                    with _naming(f"{key} = {x}"):
                        getattr(point, f.metadata["builds"])()
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
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _list(parse):
    """The parser of a comma-separated list of values that parse reads."""
    return lambda raw: tuple(parse(p) for p in raw.split(",")) if raw else ()


#: (parse, render) of the values of each field annotation
_CODECS = {
    "float": (float, lambda v: repr(float(v))),
    "float | None": (float, lambda v: repr(float(v))),
    "int": (int, str),
    "str": (str, str),
    "tuple[float, ...]": (_list(float), lambda v: ",".join(map(repr, v))),
    "tuple[int, ...]": (_list(int), lambda v: ",".join(map(str, v))),
}


def _config_key(f) -> str:
    group = f.metadata["group"]
    return f"{group}.{f.name.removeprefix(group + '_')}"


#: config key -> field, in field order
_FIELDS = {_config_key(f): f for f in fields(ScenarioConfig)}
#: config key -> field of each sweep grid
_GRIDS = {key: f for key, f in _FIELDS.items() if "sweeps" in f.metadata}
#: config key -> field of each scalar that builds a library object
_SCALARS = {key: f for key, f in _FIELDS.items() if f.metadata["builds"] and key not in _GRIDS}
#: the builder methods of the scalars, in field order
_BUILDS = tuple(dict.fromkeys(f.metadata["builds"] for f in _SCALARS.values()))
#: config key -> the parser of its values
_PARSERS = {key: _CODECS[f.type][0] for key, f in _FIELDS.items()}
_DEFAULTS = ScenarioConfig()


def _parse_lines(text: str, parsers: dict, what: str) -> dict:
    """{key: parsers[key](raw)} of key = value text, skipping comments; a key may appear once.

    A malformed line, a repeated or unknown key and a value that its parser
    rejects (ValueError) are ConfigErrors naming the line."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first at line {seen[key]})")
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown {what} {key!r}")
        seen[key] = lineno
        try:
            values[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from exc
    return values


def parse_config_text(text: str, **overrides) -> ScenarioConfig:
    """Parse and validate config text over the default scenario.

    Field overrides (``seed=``, ``trials=``) replace the parsed values before
    the one validation."""
    values = {_FIELDS[key].name: value for key, value in _parse_lines(text, _PARSERS, "key").items()}
    return replace(ScenarioConfig(), **{**values, **overrides}).validate()


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Load, parse, and validate a config file; empty file gives the defaults.

    Field overrides replace the file's values, as in `parse_config_text`."""
    return parse_config_text(_read_text(path, "config"), **overrides)


def _read_text(path: str, what: str) -> str:
    """A UTF-8 file's text less any byte-order mark; an OSError or bad bytes are a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


# --- navigation scenes ------------------------------------------------------

def _finite(raw: str) -> float:
    """float(raw), with NaN and infinities rejected as bad values too."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _vector(raw: str) -> list[float]:
    """Three finite coordinates separated by blanks; another count fails to unpack."""
    x, y, z = raw.split()
    return [_finite(x), _finite(y), _finite(z)]


#: scene key -> the parser of its value
_SCENE_PARSERS = {**dict.fromkeys(("sat1", "sat2", "sat3", "inac_sat", "ris", "user"), _vector),
                  "clock_bias_s": _finite}


def parse_scene_text(text: str) -> NavScene:
    """Parse a scene file: six position 3-vectors (m) and the clock bias (s), all finite."""
    from .navigation import NavScene

    values = _parse_lines(text, _SCENE_PARSERS, "scene key")
    missing = [k for k in _SCENE_PARSERS if k not in values]
    if missing:
        raise ConfigError(f"scene file missing keys: {', '.join(missing)}")
    return NavScene(
        sat_positions=[values["sat1"], values["sat2"], values["sat3"]],
        inac_sat_position=values["inac_sat"],
        ris_position=values["ris"],
        true_user=values["user"],
        clock_bias=values["clock_bias_s"],
    )


#: the built-in MEO scene: the user on the +x surface point, the RIS ~10 m away, and
#: four anchors on the 26378 km sphere in well-separated directions above the user's
#: horizon, for a GDOP of a few: those of (1, 0.25, 0.18), (1, -0.35, 0.22),
#: (1, 0.1, -0.4) and (1, 0.45, -0.05).  Each coordinate is the repr of its double.
_DEFAULT_SCENE = """\
sat1 = 25208942.985899746 6302235.746474937 4537609.737461954
sat2 = 24377095.62305276 -8531983.468068467 5362961.037071608
sat3 = 24386469.62671516 2438646.962671516 -9754587.850686064
inac_sat = 24029699.535180155 10813364.79083107 -1201484.9767590077
ris = 6378005.0 8.0 3.0
user = 6378000.0 0.0 0.0
clock_bias_s = 0.00025
"""


def default_scene() -> NavScene:
    """The built-in scene, `_DEFAULT_SCENE`."""
    return parse_scene_text(_DEFAULT_SCENE)
