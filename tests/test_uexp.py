"""Expression algebra: substitution, alpha-comparison, printing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from semiq.oracle import eval_exp
from semiq.schema import Schema
from semiq.translate import denote
from semiq.exprs import (Add, AggCall, AttrRef, Const, Mul, Not, One, Pred, Rel,
                        Squash, SubstError, Sum, TupleVar, VarGen, canon_key,
                        count_nodes, free_vars, mk_eq, mk_record, mk_tuple_eq,
                        pretty, substitute, sum_, walk)
from semiq.spnf import to_spnf
from semiq.trace import Trace

from helpers import (alpha_equal, gen_uexp, gen_uexp_scope, replace_scalar,
                     small_dbs, std_env)


S = Schema("s", (("a", "int"), ("b", "int")))


def _vars(*vids):
    return [TupleVar(v, S) for v in vids]


def test_substitute_free_variable():
    t2, t, u = _vars(2, 10, 11)
    e = Sum((t2,), Mul((Pred(mk_tuple_eq(t2, t)), Rel("R", t2))))
    out = substitute(e, {t: u})
    assert out == Sum((t2,), Mul((Pred(mk_tuple_eq(t2, u)), Rel("R", t2))))


def test_substitute_identity():
    t2, t = _vars(2, 10)
    e = Sum((t2,), Mul((Pred(mk_tuple_eq(t2, t)), Rel("R", t2))))
    assert substitute(e, {t: t}) == e


def test_substitute_record_rewrites_attribute_refs():
    # replacing a variable by a record turns its attribute references into
    # the record's field expressions
    t1, t2, t3 = _vars(1, 2, 3)
    e = Mul((Pred(mk_eq(AttrRef(t1, "a"), AttrRef(t2, "a"))),
             Pred(mk_eq(AttrRef(t1, "b"), AttrRef(t2, "b")))))
    rec = mk_record({"a": AttrRef(t3, "a"), "b": AttrRef(t3, "b")})
    out = substitute(e, {t1: rec})
    assert out == Mul((Pred(mk_eq(AttrRef(t3, "a"), AttrRef(t2, "a"))),
                       Pred(mk_eq(AttrRef(t3, "b"), AttrRef(t2, "b")))))


def test_substitute_rejects_record_into_relation_atom():
    t1, t3 = _vars(1, 3)
    rec = mk_record({"a": AttrRef(t3, "a"), "b": AttrRef(t3, "b")})
    with pytest.raises(SubstError):
        substitute(Rel("R", t1), {t1: rec})


def test_substitute_schema_mismatch_rejected():
    t = TupleVar(1, S)
    other = TupleVar(2, Schema("w", (("z", "int"),)))
    with pytest.raises(SubstError):
        substitute(Rel("R", t), {t: other})


def test_substitute_rejects_capture_under_aggregate():
    # t10 := t1 under cnt(lam t1. ...) would turn [t1.a = t10.a] into
    # [t1.a = t1.a]; the aggregate binder captures exactly as a Sum would
    t1, t10, t12 = _vars(1, 10, 12)
    agg = AggCall("cnt", t1, Mul((Pred(mk_eq(AttrRef(t1, "a"), AttrRef(t10, "a"))),
                                  Rel("R", t1))))
    e = Pred(mk_eq(AttrRef(t12, "b"), agg))
    with pytest.raises(SubstError):
        substitute(e, {t10: t1})
    with pytest.raises(SubstError):
        substitute(Sum((t1,), agg.body), {t10: t1})
    # no capture when the aggregate binds the substituted variable itself
    assert substitute(e, {t1: t10}) == e


def test_substitute_mapping_leaves_a_shadowed_variable_alone():
    # a binder of one mapped variable stops only that variable
    t1, t2, u1, u2 = _vars(1, 2, 11, 12)
    inner = Mul((Pred(mk_eq(AttrRef(t1, "a"), AttrRef(t2, "a"))), Rel("R", t1)))
    e = Mul((Rel("R", t1), Sum((t1,), inner)))
    out = substitute(e, {t1: u1, t2: u2})
    assert out == Mul((Rel("R", u1), Sum((t1,), Mul((
        Pred(mk_eq(AttrRef(t1, "a"), AttrRef(u2, "a"))), Rel("R", t1))))))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_substitute_mapping_equals_one_variable_at_a_time(seed, kinds):
    # each of three free variables stays (0), goes to a fresh variable
    # (1) or to a record over fresh variables and constants (2); no
    # replacement mentions a mapped variable
    rng = random.Random(seed)
    env = std_env()
    scope = [TupleVar(900_000 + i, env.tables[rng.choice("RST")], "w") for i in range(3)]
    e = gen_uexp_scope(rng, env, scope, depth=3)
    mapping = {}
    for i, (v, kind) in enumerate(zip(scope, kinds)):
        fresh = TupleVar(800_000 + i, v.schema, "f")
        if kind == 1:
            mapping[v] = fresh
        elif kind == 2:
            mapping[v] = mk_record({"a": AttrRef(fresh, "b"),
                                    "b": Const(rng.randint(0, 2), "int")})

    def outcome(f):
        try:
            return f()
        except SubstError:
            return SubstError

    def sequential():
        out = e
        for v, r in mapping.items():
            out = substitute(out, {v: r})
        return out

    assert outcome(lambda: substitute(e, mapping)) == outcome(sequential)


def test_uexp_passes_take_no_frames_per_level():
    # a 5,000-deep chain of two-factor products (a factor that is a product
    # stays one factor) of summations over one reused binder, with a free
    # variable at the bottom
    t, u, w = _vars(1, 2, 3)
    depth = 5000
    e = Mul((Rel("R", t), Pred(mk_eq(AttrRef(t, "a"), Const(1, "int")))))
    for _ in range(depth):
        e = Mul((e, Sum((w,), Rel("R", w))))
    assert count_nodes(e) == 3 + 3 * depth
    assert sum(1 for _ in walk(e)) == 6 + 3 * depth   # plus the atom's nodes
    out = substitute(e, {t: u})
    assert free_vars(out) == {u}
    out = replace_scalar(e, AttrRef(t, "a"), AttrRef(u, "a"))
    assert AttrRef(u, "a") in walk(out) and AttrRef(t, "a") not in walk(out)


def _flat_and_nested(node):
    # node((R(t), a, b, c)) and the left spine of binary nodes it stands for
    t, u, w = _vars(1, 2, 3)
    a = Sum((u,), Mul((Rel("S", u), Pred(mk_eq(AttrRef(u, "a"), AttrRef(t, "b"))))))
    b = Rel("S", t)
    c = Sum((w,), Mul((Rel("T", w), Pred(mk_eq(AttrRef(w, "b"), AttrRef(t, "a"))))))
    return (Sum((t,), node((Rel("R", t), a, b, c))),
            Sum((t,), node((node((node((Rel("R", t), a)), b)), c))))


def _stands_for_its_binary_tree(node, op):
    # the same rendering, node count and value; the key of the n-ary node
    # is the flat tuple of its operands' keys
    flat, nested = _flat_and_nested(node)
    assert pretty(flat) == pretty(nested)
    assert count_nodes(flat) == count_nodes(nested) == 14
    values = [eval_exp(flat, db) for db in small_dbs(std_env(), 30, seed=5)]
    assert values == [eval_exp(nested, db) for db in small_dbs(std_env(), 30, seed=5)]
    assert any(values)
    key = canon_key(flat)[2]
    assert key[0] == op and len(key) == 5


def test_a_product_is_the_binary_tree_it_stands_for():
    _stands_for_its_binary_tree(Mul, "*")


def test_a_sum_is_the_binary_tree_it_stands_for():
    _stands_for_its_binary_tree(Add, "+")


def test_a_summation_is_the_nest_of_one_binder_summations_it_stands_for():
    t, u, w, z = _vars(10, 2, 3, 4)
    body = Mul((Rel("R", u), Rel("S", w), Pred(mk_eq(AttrRef(u, "a"), AttrRef(t, "b"))),
                Sum((z,), Mul((Rel("T", z), Pred(mk_eq(AttrRef(z, "a"), AttrRef(w, "b"))))))))
    flat = Sum((u, w), body)
    nested = Sum((u,), Sum((w,), body))  # built raw: `sum_` splices it
    assert sum_((u,), Sum((w,), body)) == sum_((u, w), body) == flat
    assert sum_((), body) is body
    assert canon_key(flat) == canon_key(nested)
    assert pretty(flat) == \
        "sum{t1,t2} R(t1) * S(t2) * [t1.a = t10.b] * (sum{t3} T(t3) * [t2.b = t3.a])"
    assert count_nodes(flat) == count_nodes(nested) == 12
    assert free_vars(flat) == free_vars(nested) == {t}
    for db in small_dbs(std_env(), 10, seed=4):
        for asg in db.tuple_space(S)[:2]:
            assert eval_exp(flat, db, {t.vid: asg}) == eval_exp(nested, db, {t.vid: asg})
    # the same normal form, steps and trace paths
    runs = []
    for e in (flat, nested):
        trace = Trace()
        runs.append((to_spnf(e, VarGen(10), trace), [ev.render() for ev in trace.events]))
    assert runs[0] == runs[1] and runs[0][1] == ["RULE sum-hoist AT b.b."]
    [term] = runs[0][0].terms
    assert term.sum_vars == (u, w, z)


def test_a_long_product_takes_no_frames_per_factor():
    t, u = _vars(1, 2)
    n = 5000
    e = Mul((Rel("R", t),) * n)
    assert to_spnf(Sum((t,), e), VarGen(10)).terms[0].atoms == (("R", t),) * n
    assert pretty(e) == " * ".join(["R(t1)"] * n)
    assert free_vars(e) == {t}
    assert substitute(e, {t: u}) == Mul((Rel("R", u),) * n)
    for db in small_dbs(std_env(), 5, seed=3):
        assert eval_exp(Sum((t,), e), db) == sum(m ** n for m in db.rels["R"].values())


def test_deep_nesting_prints_with_no_frames_per_level():
    n = 3000
    vs = _vars(*range(1, n + 1))
    e = One()
    for v in reversed(vs):
        e = Sum((v,), Mul((Rel("R", v), Squash(Not(e)))))
    assert pretty(e) == ("".join(f"sum{{t{k}}} R(t{k}) * ||not(" for k in range(1, n + 1))
                         + "1" + ")||" * n)


def test_alpha_equal_bound_rename():
    t1, u = _vars(1, 5)
    assert alpha_equal(Sum((t1,), Rel("R", t1)), Sum((u,), Rel("R", u)))
    assert not alpha_equal(Sum((t1,), Rel("R", t1)), Sum((t1,), Rel("S", t1)))


def test_alpha_equal_orients_symmetric_atoms():
    t1, t2 = _vars(1, 2)
    e1 = Pred(mk_eq(AttrRef(t1, "a"), AttrRef(t2, "b")))
    e2 = Pred(mk_eq(AttrRef(t2, "b"), AttrRef(t1, "a")))
    assert alpha_equal(e1, e2)


def test_alpha_equal_after_fresh_regeneration():
    # denote the same query twice with different variable supplies
    from conftest import parse_query
    env = std_env()
    q = parse_query("SELECT DISTINCT x.a AS a FROM R x, S y WHERE x.a = y.b")
    d1 = denote(q, env, VarGen(1))
    d2 = denote(q, env, VarGen(101))
    assert alpha_equal(d1.body, d2.body, pairs=[(d1.out_var, d2.out_var)])


def test_alpha_distinguishes_free_variables():
    t1, t2 = _vars(1, 2)
    assert not alpha_equal(Rel("R", t1), Rel("R", t2))
    assert alpha_equal(Rel("R", t1), Rel("R", t2), pairs=[(t1, t2)])


def test_pretty_deterministic_numbering():
    u, w, t = _vars(7, 9, 42)
    e = Sum((u, w), Mul((Mul((Pred(mk_tuple_eq(u, t)), Rel("R", u))), Rel("R", w))))
    s1 = pretty(e, {t.vid: "t"})
    assert s1 == "sum{t1,t2} [t = t1] * R(t1) * R(t2)"
    # same numbering regardless of original ids
    u2, w2 = _vars(70, 90)
    e2 = Sum((u2, w2), Mul((Mul((Pred(mk_tuple_eq(u2, t)), Rel("R", u2))), Rel("R", w2))))
    assert pretty(e2, {t.vid: "t"}) == s1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_alpha_equal_reflexive_on_random_expressions(seed):
    rng = random.Random(seed)
    env = std_env()
    out = TupleVar(0, env.tables["R"], "t")
    e = gen_uexp(rng, env, out, depth=3)
    assert alpha_equal(e, e)
