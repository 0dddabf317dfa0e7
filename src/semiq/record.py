"""Slotted record classes, built without `dataclasses`.

``@record`` rebuilds a class from its field annotations and defaults with
``__slots__`` and the ``__init__``, ``__repr__`` and ``__eq__`` that
``dataclass(slots=True)`` generates, and ``hash=True`` adds the ``__hash__``
of ``unsafe_hash=True``; a method the class defines itself is kept.  Unlike
`dataclasses`, this module imports nothing, and a class costs one ``exec``."""

from __future__ import annotations


class factory:
    """A field default of which each instance gets a fresh ``make()``."""

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


_HAS_DEFAULT_FACTORY = factory(None)


def record(cls=None, /, *, hash: bool = False):
    if cls is None:
        return lambda c: record(c, hash=hash)
    ns = dict(vars(cls))
    ann = ns.get("__annotations__", {})
    env: dict = {"_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY}
    params, inits = ["self"], []
    for n in ann:
        params.append(f"{n}=_dflt_{n}" if n in ns else n)
        d = env[f"_dflt_{n}"] = ns.pop(n, None)
        if type(d) is factory:   # the default is the marker, and __init__ calls make
            env[f"_dflt_{n}"], env[f"_make_{n}"] = _HAS_DEFAULT_FACTORY, d.make
            inits.append(f"  self.{n}=_make_{n}() if {n} is _HAS_DEFAULT_FACTORY else {n}\n")
        else:
            inits.append(f"  self.{n}={n}\n")
    own, other = ("(" + "".join(f"{s}.{n}," for n in ann) + ")" for s in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in ann)
    exec(f"""def __init__({','.join(params)}):
{''.join(inits) or '  pass'}
def __repr__(self):
  return self.__class__.__qualname__ + f"({shown})"
def __eq__(self, other):
  if other.__class__ is self.__class__:
    return {own}=={other}
  return NotImplemented
def __hash__(self):
  return hash({own})""", env)
    env["__init__"].__annotations__ = {**ann, "return": None}
    if not hash:
        env["__hash__"] = None   # a mutable record with __eq__ is unhashable
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        ns.setdefault(name, env[name])
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    ns["__slots__"] = ns["__record_fields__"] = tuple(ann)
    return type(cls)(cls.__name__, cls.__bases__, ns)


def replace(obj, /, **changes):
    """A copy of record ``obj`` with the fields ``changes`` names changed;
    an unknown field raises TypeError, as in `dataclasses.replace`."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
