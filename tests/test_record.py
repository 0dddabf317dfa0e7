"""`semiq.record` against its reference, `dataclasses`.

Every record class gets a `dataclasses.make_dataclass` twin built from the
field annotations and defaults written in the class's source, with the
methods the class defines itself.  The record and its twin must take the
same `__init__` parameters and give the same repr, equality and hash on
seeded field values.  Each method body is compiled once per shape, not once
per class.  `import semiq` must load neither `dataclasses` nor `inspect`:
not importing them is what the records are for."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from semiq.schema import SchemaEnv
from semiq.sqlast import ColRef
from semiq.record import _HAS_DEFAULT_FACTORY, factory, record, replace

from helpers import record_classes

SRC = Path(__file__).resolve().parent.parent / "src"
RECORDS = record_classes()
# hashable field values, some equal across draws
VALUES = (0, 1, -7, "a", "b", None, (1, "a"), ("a", (None, 2)))


@cache
def _class_defs(path: str) -> dict[str, ast.ClassDef]:
    tree = ast.parse(Path(path).read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}


def _twin(cls) -> type:
    """The dataclass that the source of ``cls`` declares."""
    node = _class_defs(sys.modules[cls.__module__].__file__)[cls.__name__]
    hashed = any(isinstance(d, ast.Call) and any(k.arg == "hash" and k.value.value
                                                 for k in d.keywords)
                 for d in node.decorator_list)
    stub = {"factory": lambda make: dataclasses.field(default_factory=make)}
    fields = [(s.target.id, cls.__annotations__[s.target.id])
              + (() if s.value is None else
                 (eval(compile(ast.Expression(s.value), "<default>", "eval"), stub),))
              for s in node.body if isinstance(s, ast.AnnAssign)]
    own = {s.name: vars(cls)[s.name] for s in node.body if isinstance(s, ast.FunctionDef)}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=own, slots=True,
                                      unsafe_hash=hashed)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_agrees_with_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert cls.__record_fields__ == tuple(f.name for f in dataclasses.fields(twin))
    assert str(inspect.signature(cls.__init__)) == str(inspect.signature(twin.__init__))
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    rng = random.Random(f"record {cls.__name__}")
    n = len(cls.__record_fields__)
    for _ in range(25):
        vals, other = ([rng.choice(VALUES) for _ in range(n)] for _ in range(2))
        a, b, c = cls(*vals), cls(*vals), cls(*other)
        ta, tb, tc = twin(*vals), twin(*vals), twin(*other)
        assert repr(a) == repr(ta) and repr(c) == repr(tc)
        assert (a == b, a == c, a != c) == (ta == tb, ta == tc, ta != tc)
        if cls.__hash__ is not None:
            assert hash(a) == hash(ta) and hash(c) == hash(tc)


@record(hash=True)
class _Reuses:
    """Fields named as the templates' own names: ``other`` is ``__eq__``'s
    parameter, ``hash`` the builtin ``__hash__`` calls, ``_0`` a placeholder."""
    other: object
    hash: object = 0
    _0: list = factory(list)


def test_a_record_whose_fields_reuse_the_templates_names_agrees_with_its_twin():
    test_a_record_agrees_with_its_dataclass_twin(_Reuses)
    a, b = _Reuses(1), _Reuses(1)
    assert a._0 == b._0 == [] and a._0 is not b._0 and a == b


def _shapes(cls) -> set:
    """The templates ``cls`` binds: ``__init__`` by which fields default to a
    factory, ``__eq__`` and ``__hash__`` by the field count."""
    n, dflt = len(cls.__record_fields__), cls.__init__.__defaults__ or ()
    flags = (False,) * (n - len(dflt)) + tuple(d is _HAS_DEFAULT_FACTORY for d in dflt)
    return {("__init__", flags), ("__eq__", n)} | ({("__hash__", n)} if cls.__hash__ else set())


def test_each_method_body_is_compiled_once_per_shape_not_once_per_class():
    code = ("import helpers, semiq.record as r; helpers.record_classes(); "
            "print(sorted(r._TEMPLATES, key=repr))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    compiled = ast.literal_eval(res.stdout)
    assert compiled == sorted(set().union(*map(_shapes, RECORDS)), key=repr)
    assert len(compiled) < len(RECORDS)


def test_classes_of_one_shape_share_their_bytecode():
    by_shape: dict = {}
    for cls in RECORDS:
        for method, shape in _shapes(cls):
            by_shape.setdefault((method, shape), []).append(vars(cls)[method].__code__)
    shared = [codes for codes in by_shape.values() if len(codes) > 1]
    assert shared and all(c.co_code == codes[0].co_code for codes in shared for c in codes)
    # two classes of one shape: one bytecode, each over its own field names
    eq = by_shape["__eq__", 2]
    assert len({c.co_code for c in eq}) == 1 and len({c.co_names for c in eq}) > 1


def test_replace_changes_the_named_fields_and_rejects_an_unknown_one():
    c = ColRef("r", "a")
    assert replace(c, attr="b") == ColRef("r", "b") and c == ColRef("r", "a")
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        replace(c, nope=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        dataclasses.replace(_twin(ColRef)("r", "a"), nope=1)


def test_a_factory_default_is_fresh_per_instance():
    a, b = SchemaEnv(), SchemaEnv()
    assert a.keys == b.keys == [] and a.keys is not b.keys
    assert SchemaEnv(keys=a.keys).keys is a.keys


def test_import_semiq_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, semiq; print(semiq.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    where, loaded = res.stdout.splitlines()
    assert Path(where).is_relative_to(SRC)
    assert loaded == "[]"
