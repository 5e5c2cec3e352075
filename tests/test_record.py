"""`record` builds what ``dataclass(frozen=True)`` builds, for every record class in the package."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import inaclink
from inaclink import channel, config, geometry, montecarlo, navigation, noma, sweeps
from inaclink._record import record


@record
class _Probe:
    """Every kind of field `record` takes, whether or not the package uses it."""

    a: int
    b: list = field(default_factory=list)
    c: float = 1.0
    d: dict = field(default_factory=dict, init=False)  # filled by __init__
    e: int = field(default=3, init=False)  # read from the class


def _scenario():
    return config.ScenarioConfig().scenario()


#: one instance of each record class; a record the package adds must be added here
EXAMPLES = {
    config.McConfig: config.McConfig,
    config.ScenarioConfig: config.ScenarioConfig,
    geometry.OrbitGeometry: lambda: config.ScenarioConfig().orbit(),
    geometry.RfParams: lambda: config.ScenarioConfig().rf_params(),
    geometry.LinkBudget: lambda: config.ScenarioConfig().link(),
    channel.RicianParams: lambda: channel.RicianParams(1.0, 0.0),
    channel.RisArray: lambda: channel.RisArray(128),
    channel.ChannelMoments: lambda: _scenario().moments,
    noma.PowerSplit: lambda: noma.PowerSplit(0.6, 0.4),
    noma.RateTargets: lambda: noma.RateTargets(0.0005, 0.001),
    noma.OutageResult: lambda: noma.OutageResult(0.25),
    noma.Scenario: _scenario,
    montecarlo.McEstimate: lambda: montecarlo.McEstimate(0.5, 0.01),
    navigation.NavScene: config.default_scene,
    navigation.PseudorangeSet: lambda: navigation.PseudorangeSet(np.array([1.0, 2.0, 3.0, 4.0])),
    navigation.PositionFix: lambda: navigation.PositionFix(np.arange(4.0), 9, 1e-7, True),
    sweeps.SweepReport: lambda: sweeps.SweepReport("x", [1, 2], {"y": [0.5, None]}),
    sweeps._McFigure: lambda: sweeps._REPORTS["cap-vs-elements"],
    _Probe: lambda: _Probe(7, [1]),
}
RECORDS = list(EXAMPLES)
IDS = [cls.__qualname__ for cls in RECORDS]
WITH_POST_INIT = [cls for cls in RECORDS if hasattr(cls, "__post_init__")]

#: what dataclass generates or reads off the class it decorates
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__match_args__",
              "__dataclass_fields__", "__dataclass_params__", "__dict__", "__weakref__"}


def _plain(cls):
    """A copy of cls as ``dataclass(frozen=True)`` builds it from the same class body."""
    body = {k: v for k, v in vars(cls).items() if k not in _GENERATED}
    for f in fields(cls):
        body[f.name] = field(default=f.default, default_factory=f.default_factory, init=f.init, repr=f.repr,
                             hash=f.hash, compare=f.compare, metadata=f.metadata)
    body["__qualname__"] = cls.__qualname__
    return dataclass(frozen=True)(type(cls.__name__, cls.__bases__, body))


def _init_args(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}


def _same(a, b) -> bool:
    """Same type and equal."""
    return type(a) is type(b) and a == b


def test_every_record_class_has_an_example():
    found = set()
    for info in pkgutil.iter_modules(inaclink.__path__):
        module = importlib.import_module(f"inaclink.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__)
    assert found == set(RECORDS) - {_Probe}


def test_no_dataclass_decorator_is_left():
    # one way to build a record: a class left on dataclass keeps object.__setattr__
    src = Path(inaclink.__file__).resolve().parent
    left = [p.name for p in sorted(src.glob("*.py"))
            if re.search(r"^\s*@(dataclasses\.)?dataclass\b", p.read_text(encoding="utf-8"), re.M)]
    assert left == []


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_signature_is_dataclass_signature(cls):
    assert inspect.signature(cls) == inspect.signature(_plain(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_builds_what_dataclass_builds(cls):
    obj = EXAMPLES[cls]()
    plain = _plain(cls)(**_init_args(obj))
    # the same attributes in the instance dict, so the same fields set and derived
    assert list(vars(cls(**_init_args(obj)))) == list(vars(plain))
    assert repr(obj) == repr(plain)
    # and with every default taken
    required = {f.name: getattr(obj, f.name) for f in fields(cls)
                if f.init and f.default is MISSING and f.default_factory is MISSING}
    assert repr(cls(**required)) == repr(_plain(cls)(**required))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_frozen(cls):
    obj = EXAMPLES[cls]()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
    with pytest.raises(FrozenInstanceError):
        obj.not_a_field = None


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_round_trips(cls):
    obj = EXAMPLES[cls]()
    assert _same(replace(obj), obj)
    assert _same(replace(obj, **_init_args(obj)), obj)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls):
    a = EXAMPLES[cls]()
    b = cls(**_init_args(a))
    try:
        h = hash(a)
    except TypeError:
        # a list, dict or array field: dataclass's hash fails the same way
        with pytest.raises(TypeError):
            hash(_plain(cls)(**_init_args(a)))
        return
    assert a is not b and a == b and hash(b) == h


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(cls):
    obj = EXAMPLES[cls]()
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert _same(twin, obj)


class _PostInitRan(Exception):
    pass


@pytest.mark.parametrize("cls", WITH_POST_INIT, ids=[cls.__qualname__ for cls in WITH_POST_INIT])
def test_a_raising_post_init_propagates(cls, monkeypatch):
    args = _init_args(EXAMPLES[cls]())

    def post_init(self):
        raise _PostInitRan(cls.__qualname__)

    monkeypatch.setattr(cls, "__post_init__", post_init)
    with pytest.raises(_PostInitRan):
        cls(**args)


def test_a_class_body_eq_and_hash_stay():
    # dataclass leaves an __eq__ or __hash__ that the class defines, and so does record
    def eq(self, other):
        return True

    def hash_(self):
        return 7

    @record
    class Custom:
        a: list
        __eq__, __hash__ = eq, hash_

    assert Custom.__eq__ is eq and Custom.__hash__ is hash_
    assert Custom([1]) == Custom([2]) and hash(Custom([1])) == 7


class TestArrayRecordsCompareBytes:
    """The navigation records compare and hash by value: dataclass's own equality over float tuples."""

    def test_two_default_scenes_are_equal_and_hash_equal(self):
        a, b = config.default_scene(), config.default_scene()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)

    def test_a_moved_scene_is_unequal(self):
        scene = config.default_scene()
        moved = replace(scene, true_user=np.add(scene.true_user, [0.0, 0.0, 1e-9]))
        assert moved != scene and not moved == scene
        assert replace(scene, clock_bias=scene.clock_bias * 2) != scene

    def test_a_fix_equals_its_replace_copy(self):
        fix = navigation.PositionFix(np.array([1.0, -2.0, 3.0, 4.0]), 20, 0.5, False)
        assert replace(fix) == fix and hash(replace(fix)) == hash(fix)
        assert replace(fix, iterations_used=19) != fix

    def test_signed_zeros_and_dtypes_compare_by_value(self):
        zero = navigation.PseudorangeSet(np.zeros(4))
        negative = navigation.PseudorangeSet(np.array([-0.0, 0.0, 0.0, 0.0]))
        assert negative == zero and hash(negative) == hash(zero)
        fix = navigation.PositionFix(np.zeros(4), 1, 0.0, True)
        single = replace(fix, state=np.zeros(4, np.float32))
        assert single == fix and hash(single) == hash(fix)
        assert [type(v) for v in single.state] == [float] * 4

    def test_another_class_is_not_equal(self):
        rho = np.arange(4.0)
        assert navigation.PseudorangeSet(rho) != navigation.PositionFix(rho, 1, 0.0, True)
        assert navigation.PseudorangeSet(rho) != rho.tobytes()
