"""Value nodes are slotted records compared by class and fields.

Every record class in `semiq` (``@record``, marked by its
``__record_fields__``) is slotted, and the value classes (AST, U-expression,
normal-form and constraint nodes) are declared with ``hash=True``: they hash
their field tuple, compare by class and fields, and are not frozen, so their
immutability is a convention.  The last test holds the whole pipeline to
that convention."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from semiq import run_program_text
from semiq.exprs import (AttrRef, Const, EqAtom, NeqAtom, Not, One, Rel, Squash,
                         TupleEqAtom, TupleNeqAtom, TupleVar, Zero)
from semiq.schema import Schema
from semiq.sqlast import AndP, BoolLit, Cmp, ColRef, Lit, OrP

from helpers import record_classes

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


RECORDS = record_classes()
VALUE_CLASSES = [c for c in RECORDS if c.__hash__ is not None]


def test_every_record_is_slotted_and_none_is_frozen():
    assert len(RECORDS) == 62 and len(VALUE_CLASSES) == 52
    for cls in RECORDS:
        assert vars(cls)["__slots__"] == cls.__record_fields__, cls.__name__
        assert cls.__dictoffset__ == 0, f"{cls.__name__} instances have a __dict__"
        assert cls.__setattr__ is object.__setattr__, cls.__name__


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    n = len(cls.__record_fields__)
    a, b = cls(*(f"f{i}" for i in range(n))), cls(*(f"f{i}" for i in range(n)))
    assert a is not b and a == b and hash(a) == hash(b)
    if n:
        c = cls(*(f"f{i}" for i in range(n - 1)), "other")
        assert a != c


def test_classes_with_the_same_fields_never_compare_equal():
    s = Schema("s", (("a", "int"),))
    t, u = TupleVar(1, s), TupleVar(2, s)
    x, y = AttrRef(t, "a"), Const(1, "int")
    body = Rel("R", t)
    p, q = Cmp("=", ColRef("r", "a"), Lit(1, "int")), BoolLit(True)
    for a, b in [(EqAtom(x, y), NeqAtom(x, y)), (TupleEqAtom(t, u), TupleNeqAtom(t, u)),
                 (AndP((p, q)), OrP((p, q))), (Squash(body), Not(body)), (Zero(), One())]:
        assert a != b and b != a
        assert len({a, b}) == 2


def test_no_value_node_is_assigned_after_construction(monkeypatch):
    def set_once(self, name, value):
        try:
            getattr(self, name)
        except AttributeError:
            object.__setattr__(self, name, value)
        else:
            raise AssertionError(f"{type(self).__name__}.{name} assigned "
                                 "after construction")

    for cls in VALUE_CLASSES:
        monkeypatch.setattr(cls, "__setattr__", set_once)
    with pytest.raises(AssertionError, match="assigned after construction"):
        ColRef("r", "a").attr = "b"
    # the rewrites workload carries the bundled benchmarks/*.cos programs
    insts = [inst for name in sorted(workloads.WORKLOADS)
             for inst in workloads.build(name, 1, ROOT)]
    assert sum(i.family.startswith("bundled-") for i in insts) == 8
    for inst in insts:
        [out] = run_program_text(inst.text, refute=inst.refute)
        assert out.status == inst.expect, inst.family
        if inst.refute:
            assert (out.witness is not None) == inst.witness, inst.family
