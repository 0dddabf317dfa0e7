"""Kernel identities: the catalog is exactly what the normalizer logs,
unit applications at the root, and the model check that every identity of
the paper holds pointwise under natural-number evaluation."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from semiq.axioms import AXIOMS, AxiomMatchError
from semiq.oracle import eval_exp
from semiq.schema import Schema
from semiq.exprs import (Add, AttrRef, Mul, Not, Pred, Rel, Squash, Sum,
                        TupleVar, ONE, ZERO, add, mk_eq, mk_tuple_eq)

from helpers import (CORE_AXIOM_NAMES, gen_uexp, run_axiom_check, small_dbs,
                     std_env)

S = Schema("s", (("a", "int"), ("b", "int")))
T1 = TupleVar(1, S)
T2 = TupleVar(2, S)

SPNF = Path(__file__).resolve().parent.parent / "src" / "semiq" / "spnf.py"


def test_catalog_is_what_the_normalizer_applies():
    # every identity in AXIOMS is named in some `self.rule(...)` call of the
    # term algebra, and every name it logs is in the catalog, besides the
    # two factor merges; a name that is not a string literal fails the
    # comparison
    applied = {getattr(call.args[0], "value", None)
               for call in ast.walk(ast.parse(SPNF.read_text()))
               if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Attribute)
               and call.func.attr == "rule"
               and isinstance(call.func.value, ast.Name)
               and call.func.value.id == "self"}
    assert applied == set(AXIOMS) | {"squash-mul", "pull-not"}


def test_squash_one_plus_at_position():
    # || 1 + sum{t2} [t1 != t2] * R(t2) || -> 1
    inner = Sum((T2,), Mul((Pred(mk_tuple_eq(T1, T2)), Rel("R", T2))))
    e = Mul((Rel("R", T1), Squash(Add((ONE, inner)))))
    out = Mul((e.factors[0], AXIOMS["squash-one-plus"](e.factors[1])))
    assert out == Mul((Rel("R", T1), ONE))


def test_not_zero():
    assert AXIOMS["not-zero"](Not(ZERO)) == ONE


def test_pattern_mismatch_raises():
    with pytest.raises(AxiomMatchError):
        AXIOMS["not-zero"](Not(ONE))
    with pytest.raises(AxiomMatchError):
        AXIOMS["squash-zero"](Add((ONE, ONE)))
    with pytest.raises(AxiomMatchError):
        AXIOMS["mul-one"](ONE)


def test_distribution_and_path_navigation():
    e = Add((ZERO, Mul((Rel("R", T1), Add((ONE, ONE))))))
    out = add(e.terms[0], AXIOMS["distr-mul-add"](e.terms[1]))
    assert out == Add((ZERO, Mul((Rel("R", T1), ONE)), Mul((Rel("R", T1), ONE))))


_A, _B, _C, _D, _E = (Rel(name, T1) for name in "ABCDE")


def test_distribution_multiplies_out_both_factors_left_fastest():
    # (a+b+c)*(d+e): the order splitting the right factor first, one
    # binary sum at a time, gives
    out = AXIOMS["distr-mul-add"](Mul((Add((_A, _B, _C)), Add((_D, _E)))))
    assert out == Add(tuple(Mul(p) for p in ((_A, _D), (_B, _D), (_C, _D),
                                             (_A, _E), (_B, _E), (_C, _E))))
    # one factor a sum
    assert AXIOMS["distr-mul-add"](Mul((_A, Add((_D, _E))))) == \
        Add((Mul((_A, _D)), Mul((_A, _E))))
    assert AXIOMS["distr-mul-add"](Mul((Add((_A, _B, _C)), _D))) == \
        Add((Mul((_A, _D)), Mul((_B, _D)), Mul((_C, _D))))


def test_sum_add_maps_the_summation_over_every_term():
    terms = tuple(Rel(f"R{i}", T2) for i in range(7))
    assert AXIOMS["sum-add"](Sum((T2,), Add(terms))) == Add(tuple(Sum((T2,), t) for t in terms))


def test_add_zero_drops_every_zero_term():
    assert AXIOMS["add-zero"](Add((ZERO, _A, ZERO, _B, ZERO))) == Add((_A, _B))
    assert AXIOMS["add-zero"](Add((_A, ZERO))) == _A
    assert AXIOMS["add-zero"](Add((ZERO, ZERO, ZERO))) == ZERO
    with pytest.raises(AxiomMatchError):
        AXIOMS["add-zero"](Add((_A, _B)))


def test_squash_idempotence_derivable():
    # ||||x|||| = ||x|| via the lift-through-plus law with an empty tail
    x = Rel("R", T1)
    e = Squash(Squash(x))
    assert AXIOMS["squash-idem"](e) == Squash(x)


def test_add_splices_long_sums_in_order():
    # 5,000 terms added one at a time, as a left-nested binary union
    # denotes, come out one flat node in order
    leaves = [Rel("R", TupleVar(i, S)) for i in range(5000)]
    out = leaves[0]
    for leaf in leaves[1:]:
        out = add(out, leaf)
    assert type(out) is Add and len(out.terms) == 5000
    assert all(a is b for a, b in zip(out.terms, leaves))
    # sums nested either way splice, units and zeros stay
    assert add(add(_A, _B), ZERO, add(_C, _D)) == Add((_A, _B, ZERO, _C, _D))
    assert add(_A) is _A and add() == ZERO


U, V, W = TupleVar(3, S, "u"), TupleVar(4, S, "v"), TupleVar(5, S, "w")


def _eq(x, y, attr="a"):
    return Pred(mk_eq(AttrRef(x, attr), AttrRef(y, attr)))


def test_sum_hoist_takes_every_binder_of_both_factors():
    x, y = Mul((Rel("R", U), Rel("S", W))), Rel("T", V)
    e = Mul((Sum((U, W), x), Sum((V,), y)))
    assert AXIOMS["sum-hoist"](e) == Sum((V, U, W), Mul((x, y)))
    # one side without binders
    assert AXIOMS["sum-hoist"](Mul((Rel("R", T1), Sum((V,), y)))) == \
        Sum((V,), Mul((Rel("R", T1), y)))
    assert AXIOMS["sum-hoist"](Mul((Sum((U, W), x), Rel("R", T1)))) == \
        Sum((U, W), Mul((x, Rel("R", T1))))


def test_sum_hoist_refuses_a_binder_free_in_the_other_factor():
    for e in (
        # a left binder free on the right
        Mul((Sum((U, W), Rel("R", W)), Sum((V,), Mul((_eq(V, U), Rel("S", V)))))),
        # a right binder free on the left
        Mul((Sum((U,), Mul((_eq(U, W), Rel("R", U)))), Sum((V, W), Rel("S", W)))),
        # the same binder on both sides
        Mul((Sum((U,), Rel("R", U)), Sum((U,), Rel("S", U)))),
    ):
        with pytest.raises(AxiomMatchError):
            AXIOMS["sum-hoist"](e)


def test_sum_hoist_preserves_evaluation_on_multi_binder_products():
    env = std_env()
    t = TupleVar(0, env.tables["R"], "t")
    u, v, w = (TupleVar(i, env.tables["R"], h) for i, h in ((3, "u"), (4, "v"), (5, "w")))
    z = TupleVar(6, env.tables["S"], "z")
    cases = [
        Mul((Sum((u, w), Mul((Mul((_eq(u, t), Rel("R", u))), Rel("S", w)))),
             Sum((v,), Mul((_eq(v, t, "b"), Rel("T", v)))))),
        Mul((Mul((_eq(t, t, "b"), Rel("R", t))),
             Sum((v, z), Mul((Mul((_eq(v, z), Rel("S", v))), Rel("S", z)))))),
        Mul((Sum((u, v, w), Mul((Mul((Rel("R", u), Rel("R", v))),
                                 Mul((_eq(w, t), Rel("T", w)))))),
             Squash(Rel("S", t)))),
        Mul((Sum((u,), Mul((_eq(u, t, "b"), Rel("T", u)))),
             Sum((v, w), Add((Rel("R", v), Mul((_eq(v, w), Rel("S", w)))))))),
    ]
    for e in cases:
        out = AXIOMS["sum-hoist"](e)
        assert out != e
        for db in small_dbs(env, 4, seed=5):
            for asg in db.tuple_space(t.schema)[:3]:
                envb = {t.vid: asg}
                assert eval_exp(e, db, envb) == eval_exp(out, db, envb)


def test_every_catalog_entry_applies_somewhere():
    # one positive application per identity in the kernel catalog
    x, y = Rel("R", T1), Rel("S", T1)
    f = Sum((T2,), Rel("R", T2))
    e_ok = {
        "add-zero": Add((x, ZERO)),
        "mul-one": Mul((x, ONE)),
        "mul-zero": Mul((x, ZERO)),
        "distr-mul-add": Mul((x, Add((y, x)))),
        "squash-zero": Squash(ZERO),
        "squash-one": Squash(ONE),
        "squash-one-plus": Squash(Add((ONE, x))),
        "squash-lift-add": Squash(Add((Squash(x), y))),
        "squash-idem": Squash(Squash(x)),
        "not-zero": Not(ZERO),
        "not-squash": Not(Squash(x)),
        "squash-not": Squash(Not(x)),
        "sum-add": Sum((T2,), Add((Rel("R", T2), Rel("S", T2)))),
        "sum-hoist": Mul((x, f)),
        "sum-zero": Sum((T2,), ZERO),
        "pred-squash-elim": Squash(Pred(mk_eq(AttrRef(T1, "a"), AttrRef(T1, "b")))),
    }
    for name, e in e_ok.items():
        out = AXIOMS[name](e)
        assert out is not None, name
    assert set(AXIOMS) == set(e_ok)


def test_apply_axiom_preserves_evaluation_everywhere():
    env = std_env()
    dbs = small_dbs(env, 6, seed=42)
    rng = random.Random(7)
    out = TupleVar(0, env.tables["R"], "t")
    checked = 0
    for i in range(300):
        e = gen_uexp(rng, env, out, depth=3)
        # every identity that matches at the root
        for name, axiom in AXIOMS.items():
            try:
                e2 = axiom(e)
            except AxiomMatchError:
                continue
            for db in dbs[:3]:
                for asg in db.tuple_space(out.schema)[:2]:
                    envb = {out.vid: asg}
                    assert eval_exp(e, db, envb) == eval_exp(e2, db, envb), name
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("name", sorted(set(CORE_AXIOM_NAMES) | {
    "not-zero", "not-mul", "not-add", "not-squash", "semiring",
    "squash-flatten"}))
def test_axiom_model_check(name):
    env = std_env()
    checked, failed = run_axiom_check(name, env, rounds=120, seed=100)
    assert checked == 120
    assert failed == 0
