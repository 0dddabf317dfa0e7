"""Normal-form construction: shape, idempotence, semantics preservation."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from semiq import build_env, parse, run_program_text
from semiq.config import Budget, BudgetError, Limits
from semiq.frontend import inline_views
from semiq.oracle import eval_exp
from semiq.pipeline import prepare_verify
from semiq.spnf import Normalizer, SpnfExp, Term, nested_terms, to_spnf
from semiq.trace import Trace
from semiq.translate import denote
from semiq.exprs import (Add, AggCall, AttrRef, Mul, Not, Pred, Rel, Squash, Sum,
                         TupleVar, VarGen, mk_eq, pretty, walk)

from conftest import parse_query
from helpers import (alpha_equal, check_spnf, gen_uexp, nested_projection_program,
                     small_dbs, std_env)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_index_join_normal_form(index_program):
    # the nested-subquery join normalizes to a single term summing over
    # three variables with all predicates pulled left
    prog, env = index_program
    q2 = inline_views(prog.statements[-1].rhs, env)
    gen = VarGen()
    d = denote(q2, env, gen)
    s = to_spnf(d.body, gen)
    assert len(s.terms) == 1
    t = s.terms[0]
    assert len(t.sum_vars) == 3
    assert sorted(r for r, _ in t.atoms) == ["R", "R"]
    assert t.squash is None and t.neg is None
    assert len(t.preds) == 5  # output binding, join, filter, two view bindings
    assert check_spnf(s, frozenset({d.out_var.vid}))
    # textual form for the record
    assert pretty(s.to_exp(), {d.out_var.vid: "t"}).startswith("sum{t1,t2,t3}")


def test_already_normal_is_fixpoint():
    t = TupleVar(1, std_env().tables["R"])
    e = Rel("R", t)
    s = to_spnf(e, VarGen(10))
    assert len(s.terms) == 1
    assert s.terms[0] == Term.make((), (), None, None, (("R", t),))


def test_distribution_splits_terms():
    env = std_env()
    t = TupleVar(1, env.tables["R"])
    e = Mul((Add((Rel("R", t), Rel("S", t))), Rel("T", t)))
    s = to_spnf(e, VarGen(10))
    assert len(s.terms) == 2
    assert sorted(tuple(r for r, _ in term.atoms) for term in s.terms) == \
        [("R", "T"), ("S", "T")]


def test_squash_and_negation_slots_merge():
    env = std_env()
    t = TupleVar(1, env.tables["R"])
    u = TupleVar(2, env.tables["R"])
    e = Mul((Mul((Squash(Rel("R", t)), Squash(Rel("S", t)))),
             Mul((Not(Rel("R", u)), Not(Rel("S", u))))))
    s = to_spnf(e, VarGen(10))
    assert len(s.terms) == 1
    term = s.terms[0]
    assert term.squash is not None and len(term.squash.terms) == 1
    assert term.neg is not None and len(term.neg.terms) == 2


def test_check_spnf_rejects_bad_shapes():
    env = std_env()
    t = TupleVar(1, env.tables["R"])
    u = TupleVar(99, env.tables["R"])
    ok = Term.make((t,), (), None, None, (("R", t),))
    assert check_spnf(SpnfExp((ok,)))
    dangling = Term.make((), (), None, None, (("R", u),))
    assert not check_spnf(SpnfExp((dangling,)))
    assert check_spnf(SpnfExp(()))  # zero
    unit_squash = Term.make((), (), SpnfExp.one(), None, ())
    assert not check_spnf(SpnfExp((unit_squash,)))


def test_normalization_traces_are_axiom_applications():
    env = std_env()
    t = TupleVar(1, env.tables["R"])
    e = Mul((Add((Rel("R", t), Rel("S", t))), Rel("T", t)))
    trace = Trace()
    to_spnf(e, VarGen(10), trace)
    assert trace.rule_names().count("distr-mul-add") == 1


_T, _U, _W = (TupleVar(i, std_env().tables["R"]) for i in (1, 2, 3))
_R = [SpnfExp((Term.make(atoms=((f"R{i}", _T),)),)) for i in range(7)]
_ZERO = SpnfExp.zero()


def _sum(*parts: SpnfExp) -> SpnfExp:
    return SpnfExp(tuple(t for p in parts for t in p.terms))


@pytest.mark.parametrize("axiom, node, steps, out_terms", [
    # a term out but the first, as many binary splits
    ("sum-add", ("summation", (_T,), _sum(*_R)), 6, 7),
    ("distr-mul-add", ("product", _sum(*_R[:3]), _sum(*_R[3:5])), 5, 6),
    ("distr-mul-add", ("product", _R[0], _sum(*_R[1:5])), 3, 4),
    # a zero dropped; all but one when every term is zero
    ("add-zero", ("plus", [_ZERO, _R[0], _ZERO, _R[1], _ZERO]), 3, 2),
    ("add-zero", ("plus", [_ZERO, _ZERO, _ZERO]), 2, 0),
    # and on a summation once per binder, as the nest of one-binder ones
    ("sum-add", ("summation", (_T, _U), _sum(*_R)), 12, 7),
    ("sum-zero", ("summation", (_T, _U, _W), _ZERO), 3, 0),
])
def test_an_nary_application_is_one_rule_charged_its_binary_steps(
        axiom, node, steps, out_terms):
    # node names an operation of the term algebra and its operands
    trace, budget = Trace(), Budget()
    op, *operands = node
    out = getattr(Normalizer(VarGen(10), trace, budget), op)(*operands, "p.")
    assert budget.steps == budget.by_stage["normalize"] == steps
    assert [e.render() for e in trace.events] == [f"RULE {axiom} AT p."]
    assert len(out.terms) == out_terms


def test_each_term_keeps_the_path_of_the_binary_spine():
    # term i of a k-term sum: "l." k - 1 - i times, then "r." if i > 0
    env = std_env()
    t, w = TupleVar(1, env.tables["R"]), TupleVar(2, env.tables["R"])
    e = Mul((Add((Rel("R", t), Rel("S", t), Rel("T", t))), Sum((w,), Rel("R", w))))
    trace = Trace()
    to_spnf(e, VarGen(10), trace)
    assert [e.render() for e in trace.events if e.kind == "rule"] == [
        "RULE distr-mul-add AT .", "RULE sum-hoist AT l.l.",
        "RULE sum-hoist AT l.r.", "RULE sum-hoist AT r."]


def test_budget_guard_reports_exhaustion():
    env = std_env()
    t = TupleVar(1, env.tables["R"])
    # (R+S)^8 explodes; a tiny step budget must trip, not hang or crash
    e = Add((Rel("R", t), Rel("S", t)))
    big = e
    for _ in range(7):
        big = Mul((big, e))
    limits = Limits(max_steps=50)
    with pytest.raises(BudgetError):
        to_spnf(big, VarGen(10), budget=Budget(limits))


@pytest.mark.parametrize("seed", range(40))
def test_random_roundtrip_shape_idempotence_semantics(seed):
    rng = random.Random(seed)
    env = std_env()
    out = TupleVar(0, env.tables["R"], "t")
    e = gen_uexp(rng, env, out, depth=3)
    gen = VarGen(1_000_000)
    s = to_spnf(e, gen)
    assert check_spnf(s, frozenset({out.vid}))
    s2 = to_spnf(s.to_exp(), gen)
    assert alpha_equal(s.to_exp(), s2.to_exp())
    for db in small_dbs(env, 4, seed=seed + 77):
        for asg in db.tuple_space(out.schema)[:3]:
            envb = {out.vid: asg}
            assert eval_exp(e, db, envb) == eval_exp(s.to_exp(), db, envb)


def test_normalize_steps_grow_linearly_with_nesting():
    # one sum-hoist per product: doubling the depth about doubles the
    # normalizer's steps (hoisting one binder per step made it ×3.2)
    steps = {}
    for depth in (40, 80):
        [out] = run_program_text(nested_projection_program(depth))
        assert out.status == "EQUIVALENT"
        steps[depth] = out.steps["normalize"]
    assert steps[80] <= 2.1 * steps[40]


def test_sum_hoist_is_one_step_per_product():
    # hoisting binder by binder logs a run of sum-hoist lines at p, p b.,
    # p b.b., ...; one step per product logs only the first
    [out] = run_program_text(nested_projection_program(12))
    rules = [e for e in out.trace.events if e.kind == "rule"]
    hoists = 0
    for a, b in zip(rules, rules[1:]):
        hoists += a.name == "sum-hoist"
        assert not (a.name == b.name == "sum-hoist" and b.path == a.path + "b."), a.path
    assert hoists > 0


def test_a_wide_from_list_normalizes_to_one_term():
    # one summation over every scan: a nest of one-binder summations took
    # Python frames per scan and overflowed the stack at about 500
    n = 2000
    q = parse_query(f"SELECT s0.a AS o FROM {', '.join(f'R s{i}' for i in range(n))}")
    d = denote(q, std_env(), VarGen())
    assert type(d.body) is Sum and len(d.body.vars) == n
    [term] = to_spnf(d.body, VarGen(10_000)).terms
    assert term.sum_vars == d.body.vars and len(term.atoms) == n


def test_a_deep_nest_of_summations_normalizes_at_the_default_recursion_limit():
    # the fold keeps its open nodes on a stack of its own; a recursive
    # normalizer ran out of Python frames about 500 summations down.  Built
    # directly, since denote runs out of frames first under pytest
    schema = std_env().tables["R"]
    n = 2000
    vs = [TupleVar(i, schema) for i in range(n + 1)]
    e = Rel("R", vs[n])
    for i in range(n, 0, -1):
        e = Sum((vs[i],), Mul((Rel("R", vs[i - 1]),
                               Pred(mk_eq(AttrRef(vs[i - 1], "a"), AttrRef(vs[i], "a"))), e)))
    [term] = to_spnf(e, VarGen(10_000)).terms
    assert term.sum_vars == tuple(vs[1:])
    assert len(term.atoms) == n + 1 and len(term.preds) == n


def _shape_faults(s: SpnfExp) -> list[str]:
    """The binder faults of a normal form: in each term, each term of its
    slots and each aggregate body, read back as it is stored."""
    faults = []
    for t in nested_terms(s):
        if len({v.vid for v in t.sum_vars}) != len(t.sum_vars):
            faults.append("a repeated binder")
        for n in (n for p in t.preds for n in walk(p)):
            if type(n) is AggCall:
                faults += _sum_shape_faults(n.body)
    return faults


def _sum_shape_faults(e) -> list[str]:
    faults = []
    for n in walk(e):
        if type(n) is Sum:
            if not n.vars:
                faults.append("no binder")
            if type(n.body) is Sum:
                faults.append("a summation body")
            if len({v.vid for v in n.vars}) != len(n.vars):
                faults.append("a repeated binder")
    return faults


def _programs() -> list[str]:
    out = [p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.cos"))]
    return out + [inst.text for name in sorted(workloads.WORKLOADS)
                  for inst in workloads.build(name, 1, ROOT)
                  if not inst.family.startswith("bundled-")]


def test_every_summation_has_distinct_binders_over_a_non_summation():
    # over the denotation and the normal form of every bundled and
    # perfbench program: its terms, their slots and their aggregate bodies
    binders = []
    for text in _programs():
        prog = parse(text)
        env = build_env(prog)
        for i, stmt in enumerate(prog.verifies()):
            p = prepare_verify(stmt, f"verify{i}", env)
            for e in (p.body1, p.body2):
                assert _sum_shape_faults(e) == [], pretty(e)
                binders += [len(n.vars) for n in walk(e) if type(n) is Sum]
                s = to_spnf(e, p.gen)
                assert _shape_faults(s) == [], pretty(s.to_exp())
                binders += [len(t.sum_vars) for t in nested_terms(s) if t.sum_vars]
    assert len(binders) > 500 and max(binders) > 10


def _notes(trace: Trace) -> list[str]:
    return [ev.render() for ev in trace.events if ev.kind == "note"]


def test_nf_renames_a_repeated_summation_binder_where_it_meets_it():
    # the second summation over w is renamed, so hoisting both captures
    # nothing; its note follows the rules of the first factor's body
    env = std_env()
    t, w = TupleVar(1, env.tables["R"], "t"), TupleVar(2, env.tables["S"], "w")
    one = Sum((w,), Mul((Add((Rel("R", w), Rel("S", w))),
                         Pred(mk_eq(AttrRef(w, "a"), AttrRef(t, "b"))))))
    e = Mul((one, one))
    trace = Trace()
    s = to_spnf(e, VarGen(10), trace)
    assert check_spnf(s, frozenset({t.vid}))
    assert {frozenset(term.sum_vars) for term in s.terms} == \
        {frozenset({w, TupleVar(10, w.schema, "w")})}
    assert _notes(trace) == ["NOTE alpha-rename w2->w10"]
    kinds = [ev.kind for ev in trace.events]
    assert 0 < kinds.index("note") < kinds.index("rule", kinds.index("note"))
    for db in small_dbs(env, 6, seed=11):
        for asg in db.tuple_space(t.schema)[:3]:
            assert eval_exp(s.to_exp(), db, {t.vid: asg}) == eval_exp(e, db, {t.vid: asg})


def test_nf_renames_a_repeated_aggregate_variable_with_no_note():
    env = std_env()
    t, w = TupleVar(1, env.tables["R"], "t"), TupleVar(2, env.tables["S"], "w")
    agg = AggCall("cnt", w, Mul((Rel("S", w), Pred(mk_eq(AttrRef(w, "a"), AttrRef(t, "a"))))))
    e = Sum((t,), Mul((Rel("R", t), Pred(mk_eq(AttrRef(t, "b"), agg)),
                       Pred(mk_eq(AttrRef(t, "a"), agg)))))
    trace = Trace()
    s = to_spnf(e, VarGen(10), trace)
    aggs = [n for n in walk(s.to_exp()) if type(n) is AggCall]
    assert len(aggs) == 2 and {a.var.vid for a in aggs} == {w.vid, 10}
    assert _notes(trace) == []
    values = [eval_exp(e, db) for db in small_dbs(env, 20, seed=12)]
    assert values == [eval_exp(s.to_exp(), db) for db in small_dbs(env, 20, seed=12)]
    assert any(values)


def test_squared_random_expressions_normalize_soundly():
    # e * e repeats every binder of e
    env = std_env()
    out = TupleVar(0, env.tables["R"], "t")
    renamed = 0
    for seed in range(100):
        e = gen_uexp(random.Random(seed), env, out, depth=3)
        sq, trace = Mul((e, e)), Trace()
        s = to_spnf(sq, VarGen(1000), trace)
        renamed += bool(_notes(trace))
        assert check_spnf(s, frozenset({out.vid}))
        for db in small_dbs(env, 3, seed=seed):
            for asg in db.tuple_space(out.schema)[:2]:
                envb = {out.vid: asg}
                assert eval_exp(sq, db, envb) == eval_exp(s.to_exp(), db, envb)
    assert renamed > 10


def test_denote_binds_each_variable_once():
    # so the bundled and perfbench programs take no alpha-rename step
    notes = [ev.render() for text in _programs() for out in run_program_text(text)
             for ev in out.trace.events if ev.kind == "note" and ev.name == "alpha-rename"]
    assert notes == []
