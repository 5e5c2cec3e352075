"""`record`: a frozen dataclass whose ``__init__`` writes the instance dict.

A frozen dataclass's generated ``__init__`` stores each field through
``object.__setattr__``, since its own ``__setattr__`` raises; a config of 30
fields pays 30 such calls per instance.  `record` is ``dataclass(frozen=True)``
with ``init=False``, plus an ``__init__`` generated here that binds the
instance dict to a local once and stores each field in it, then calls
``__post_init__`` when the class has one, as the dataclass ``__init__`` does.
Its parameters, their order, annotations and defaults (a ``default_factory``
shows as dataclass's own ``<factory>`` sentinel), and the init=False fields
that a factory fills, are those dataclass would generate.  ``__eq__``,
``__hash__``, ``__repr__``, ``__match_args__`` and the frozen ``__setattr__``
and ``__delattr__`` are dataclass's own, except that an ``__eq__`` or
``__hash__`` written in the class body stays, as dataclass leaves it.  Neither keyword-only fields nor
``InitVar`` pseudo-fields are supported; no record uses them.
"""

# no ``from __future__ import annotations``: exec inherits it, and the generated
# __init__ would then annotate each parameter with the name "type_<field>"
from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, dataclass, fields

__all__ = ["record"]


def record(cls):
    """``dataclass(frozen=True)`` on cls, with an ``__init__`` that stores fields in the instance dict."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = {"FACTORY": _HAS_DEFAULT_FACTORY}
    params, body = ["self"], ["__d = self.__dict__"]
    for f in fields(cls):
        name = f.name
        names[f"type_{name}"] = f.type
        if f.default_factory is not MISSING:
            names[f"factory_{name}"] = f.default_factory
            default = "=FACTORY"
            value = f"factory_{name}() if {name} is FACTORY else {name}" if f.init else f"factory_{name}()"
        else:
            names[f"default_{name}"] = f.default
            default = "" if f.default is MISSING else f"=default_{name}"
            # an init=False field with a plain default reads the class attribute, as in dataclass
            value = name if f.init else None
        if f.init:
            params.append(f"{name}: type_{name}{default}")
        if value is not None:
            body.append(f"__d[{name!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}) -> None:\n" + "".join(f"    {line}\n" for line in body), names)
    init = names["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
