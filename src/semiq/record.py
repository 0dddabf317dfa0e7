"""Slotted record classes, built without `dataclasses`.

``@record`` rebuilds a class from its field annotations and defaults with
``__slots__`` and the ``__init__``, ``__repr__`` and ``__eq__`` that
``dataclass(slots=True)`` generates, and ``hash=True`` adds the ``__hash__``
of ``unsafe_hash=True``; a method the class defines itself is kept.  Unlike
`dataclasses`, this module imports only `types`.

A method body is compiled once per shape, over the placeholder fields ``_0``,
``_1``, ...: ``__init__`` once per tuple of factory flags (a default lives in
``__defaults__``, not in the code), ``__eq__`` and ``__hash__`` once per
field count.  A class gets the template's code with its field names put in
place of the placeholders, which is the bytecode that compiling the method
with those names gives; ``__repr__`` is one closure over the names."""

from __future__ import annotations

from types import CodeType, FunctionType


class factory:
    """A field default of which each instance gets a fresh ``make()``."""

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


_HAS_DEFAULT_FACTORY = factory(None)
_TEMPLATES: dict = {}   # (method, shape) -> code over the placeholder fields


def _template(method: str, shape) -> CodeType:
    """The code of ``method`` for ``shape``: the factory flags of the fields
    for ``__init__``, the field count for ``__eq__`` and ``__hash__``."""
    code = _TEMPLATES.get((method, shape))
    if code is None:
        ph = [f"_{i}" for i in range(len(shape) if method == "__init__" else shape)]
        own, other = ("(" + "".join(f"{s}.{p}," for p in ph) + ")" for s in ("self", "other"))
        if method == "__init__":
            src = f"def __init__({','.join(['self', *ph])}):\n" + ("".join(
                f"  self.{p}=_make_{p}() if {p} is _HAS_DEFAULT_FACTORY else {p}\n" if f
                else f"  self.{p}={p}\n" for p, f in zip(ph, shape)) or "  pass")
        elif method == "__eq__":
            src = f"""def __eq__(self, other):
  if other.__class__ is self.__class__:
    return {own}=={other}
  return NotImplemented"""
        else:
            src = f"def __hash__(self):\n  return hash({own})"
        code = _TEMPLATES[method, shape] = compile(src, "<string>", "exec").co_consts[0]
    return code


def _repr(names: tuple):
    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join(
            [f"{n}={getattr(self, n)!r}" for n in names]) + ")"
    return __repr__


def record(cls=None, /, *, hash: bool = False):
    if cls is None:
        return lambda c: record(c, hash=hash)
    ns = dict(vars(cls))
    ann = ns.get("__annotations__", {})
    env: dict = {"_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY}
    rename, flags, defaults = {}, [], []
    for i, n in enumerate(ann):
        rename[f"_{i}"], rename[f"_make__{i}"] = n, f"_make_{n}"
        if n in ns:
            d = ns.pop(n)
            if type(d) is factory:   # the default is the marker, and __init__ calls make
                env[f"_make_{n}"], d = d.make, _HAS_DEFAULT_FACTORY
            defaults.append(d)
        elif defaults:
            raise TypeError(f"non-default argument {n!r} follows default argument")
        flags.append(f"_make_{n}" in env)

    def bind(method, shape, argdefs=None):
        code = _template(method, shape)
        code = code.replace(co_names=tuple(rename.get(s, s) for s in code.co_names),
                            co_varnames=tuple(rename.get(s, s) for s in code.co_varnames))
        return FunctionType(code, env, None, argdefs)

    if "__init__" not in ns:
        ns["__init__"] = bind("__init__", tuple(flags), tuple(defaults) or None)
        ns["__init__"].__annotations__ = {**ann, "return": None}
    if "__repr__" not in ns:
        ns["__repr__"] = _repr(tuple(ann))
    if "__eq__" not in ns:
        ns["__eq__"] = bind("__eq__", len(ann))
    if "__hash__" not in ns:   # a mutable record with __eq__ is unhashable
        ns["__hash__"] = bind("__hash__", len(ann)) if hash else None
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    ns["__slots__"] = ns["__record_fields__"] = tuple(ann)
    return type(cls)(cls.__name__, cls.__bases__, ns)


def replace(obj, /, **changes):
    """A copy of record ``obj`` with the fields ``changes`` names changed;
    an unknown field raises TypeError, as in `dataclasses.replace`."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
