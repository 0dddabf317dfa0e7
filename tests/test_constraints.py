"""Canonization: saturation, summation elimination, key and foreign-key
rewrites, termination, and semantics preservation on constraint-satisfying
databases."""

from __future__ import annotations

import importlib.util
import itertools
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semiq import build_env, parse, run_program_text
from semiq.config import Budget, Limits
from semiq.congruence import closure_of
from semiq.constraints import Canonizer
from semiq.decide import Decider
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import GenSizes, check_constraints, eval_exp, gen_instances
from semiq.pipeline import prepare_pair
from semiq.record import replace
from semiq.schema import KeyConstraint, Schema, SchemaEnv
from semiq.spnf import SpnfExp, Term, nested_terms, to_spnf
from semiq.trace import Trace
from semiq.translate import denote
from semiq.exprs import (ONE, AttrRef, Const, Exp, Func, TupleEqAtom, TupleVar,
                        VarGen, free_vars, mk_eq, mk_record, mk_tuple_eq, mul,
                        sum_)

from conftest import parse_query
from helpers import (all_pairs_equalities, alpha_equal, closure_scalars,
                     closure_tuples, denote_pair, index_join_back_program,
                     nested_projection_program, std_env)

SR = Schema("sr", (("k", "int"), ("a", "int")))


def _sym(ch):
    # an uninterpreted nullary function: two symbols may be equal, where two
    # distinct constants clash
    return Func(ch, ())


def _canonizer(env: SchemaEnv | None = None) -> Canonizer:
    return Canonizer(env or SchemaEnv(), VarGen(10_000))


def _eliminated(t: Term, env: SchemaEnv | None = None) -> Term:
    """``t`` canonized with the key and foreign-key passes off: saturation
    and summation elimination to a fixpoint."""
    return _canonizer(replace(env or SchemaEnv(), keys=[], fks=[])) \
        .canonize_term(t, "t")


def _saturated(t: Term) -> Term | None:
    """``t`` saturated from its own closure, as the fixpoint round does."""
    closure = closure_of(t.preds)
    return _canonizer().saturate(t, closure, len(closure.parent), "t")


def test_saturate_adds_transitive_equalities():
    # a class is written as the chain of its sorted members, which entails
    # every pair
    a, b, c = map(_sym, "abc")
    t = Term.make((), [mk_eq(b, c), mk_eq(a, c)], None, None, ())
    out = _saturated(t)
    assert out.preds == (mk_eq(a, b), mk_eq(b, c))
    assert closure_of(out.preds).scalar_eq(a, c)


def _partition(closure):
    return {frozenset(ms) for classes in (closure.scalar_classes(),
                                          closure.tuple_classes())
            for ms in classes.values()}


@given(st.lists(st.one_of(st.builds(mk_eq, closure_scalars, closure_scalars),
                          st.builds(mk_tuple_eq, closure_tuples, closure_tuples)),
                max_size=6))
@settings(max_examples=150, deadline=None)
def test_saturate_writes_one_spanning_chain_per_class(eqs):
    t = Term.make((), eqs, None, None, ())
    out = _saturated(t)
    reference = closure_of(all_pairs_equalities(eqs))
    # a class holding two distinct constants makes the term 0
    assert (out is None) == any(len({c.value for c in ms if isinstance(c, Const)}) > 1
                                for ms in reference.scalar_classes().values())
    if out is None:
        return
    assert _partition(closure_of(out.preds)) == _partition(reference)
    assert len(out.preds) == sum(len(ms) - 1 for ms in _partition(reference))
    assert set(_saturated(out).preds) == set(out.preds)


def test_saturate_without_equalities_is_identity():
    from semiq.exprs import PredApp
    t = Term.make((), [PredApp(">=", (_sym("a"), _sym("b")))], None, None, ())
    assert _saturated(t) == t


def test_saturate_deduplicates_symmetric_pairs():
    a, b = _sym("a"), _sym("b")
    t = Term.make((), [mk_eq(a, b), mk_eq(b, a), mk_eq(a, b)], None, None, ())
    out = _saturated(t)
    assert out.preds == (mk_eq(a, b),)


def test_saturate_writes_no_node_that_a_query_interned():
    # the passes query the round's closure: asking for v's attributes
    # interns v.k and v.a, which join the record's fields.  The chains
    # name only the nodes that built the closure, so the queries leave
    # the saturated term as it was
    v = TupleVar(1, SR)
    rec = mk_record({"k": Const(1, "int"), "a": Const(2, "int")})
    t = Term.make((v,), [mk_tuple_eq(v, rec)], None, None, (("R", v),))
    closure = closure_of(t.preds)
    own = len(closure.parent)
    assert closure.scalar_eq(AttrRef(v, "k"), Const(1, "int"))
    assert len(closure.parent) > own
    assert _canonizer().saturate(t, closure, own, "t") == _saturated(t) == t


# the key collapse maps `y.a >= 5` onto `x.a >= 5` and leaves the set of
# predicates as it was
KEY_COLLAPSE_COPY = """
schema sr(k:int, a:int);
table R(sr);
key R(k);
verify (SELECT x.a AS o FROM R x WHERE x.a >= 5)
       (SELECT x.a AS o FROM R x, R y WHERE x.k = y.k AND x.a >= 5 AND y.a >= 5);
"""


@pytest.mark.parametrize("program", [nested_projection_program(16),
                                     index_join_back_program(6),
                                     KEY_COLLAPSE_COPY],
                         ids=["nested-16", "index-join-back-6", "key-collapse"])
def test_canonized_terms_hold_no_predicate_twice(monkeypatch, program):
    # each elimination or collapse substitutes into the term as the last
    # round left it, which may write one atom twice; the one saturate at
    # the fixpoint drops the copies
    outputs = []
    real = Canonizer.canonize

    def recording(self, *args, **kwargs):
        outputs.append(real(self, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(Canonizer, "canonize", recording)
    [out] = run_program_text(program)
    assert out.status == "EQUIVALENT"
    terms = [t for e in outputs for t in nested_terms(e)]
    assert terms
    for t in terms:
        assert len(set(t.preds)) == len(t.preds), t.preds


def _index_term(index_program):
    prog, env = index_program
    q2 = inline_views(prog.statements[-1].rhs, env)
    gen = VarGen()
    d = denote(q2, env, gen)
    s = to_spnf(d.body, gen)
    return env, gen, d.out_var, s.terms[0]


def test_eliminate_sums_follows_the_index_derivation(index_program):
    env, gen, out, term = _index_term(index_program)
    step1 = _eliminated(term, env)
    # the view variable goes first (attribute coverage), then the
    # output-bound variable; the key-joined variable needs the key rewrite
    assert len(step1.sum_vars) == 1
    assert sorted(r for r, _ in step1.atoms) == ["R", "R"]


def test_eliminate_keeps_undetermined_variables():
    t1 = TupleVar(1, SR)
    term = Term.make((t1,), [mk_eq(AttrRef(t1, "a"), Const(3, "int"))],
                     None, None, (("R", t1),))
    assert _eliminated(term) == term


def _one_elimination(t: Term) -> tuple[Term | None, list[str]]:
    trace = Trace()
    out = Canonizer(SchemaEnv(), VarGen(10_000), trace) \
        .try_eliminate(t, closure_of(t.preds), "t")
    return out, trace.rule_names()


def _mentioned_vids(t: Term) -> set[int]:
    return {w.vid for p in t.preds for w in free_vars(p)} | \
        {w.vid for _, w in t.atoms}


def test_a_class_keeps_its_least_variable_and_then_takes_the_record():
    # v survives the first round and replaces w; alone with the record
    # then, v is replaced by it in the next
    v, w = TupleVar(1, SR), TupleVar(2, SR)
    rec = mk_record({"k": Const(1, "int"), "a": Const(2, "int")})
    term = Term.make((v, w), [mk_tuple_eq(v, w), mk_tuple_eq(w, rec)],
                     None, None, ())
    first, rules = _one_elimination(term)
    assert first.sum_vars == (v,) and rules == ["sum-elim-eq"]
    assert 2 not in _mentioned_vids(first)
    out = _eliminated(term)
    assert out.sum_vars == () and not _mentioned_vids(out)


def test_a_lone_variable_is_replaced_by_its_record_in_one_round():
    v = TupleVar(1, SR)
    rec = mk_record({"k": Const(1, "int"), "a": Const(2, "int")})
    out, rules = _one_elimination(
        Term.make((v,), [mk_tuple_eq(v, rec)], None, None, ()))
    assert out.sum_vars == () and rules == ["sum-elim-eq"]
    assert not _mentioned_vids(out)


def test_a_free_variable_replaces_every_summation_variable_of_its_class():
    free = TupleVar(1, SR)
    vs = tuple(TupleVar(i, SR) for i in (2, 3, 4))
    preds = [mk_tuple_eq(x, y) for x, y in zip(vs, vs[1:])] + \
        [mk_tuple_eq(vs[-1], free)]
    out, rules = _one_elimination(Term.make(vs, preds, None, None, ()))
    assert out.sum_vars == () and rules == ["sum-elim-eq"] * 3
    assert _mentioned_vids(out) <= {1}


def test_apply_key_collapses_matching_pair(index_program):
    env, gen, out, term = _index_term(index_program)
    reduced = _eliminated(term, env)
    cz = _canonizer(env)
    collapsed = cz.try_key(reduced, closure_of(reduced.preds), "t")
    assert len(collapsed.atoms) == 1
    # a whole-tuple equality between the two joined variables now exists
    assert any(isinstance(p, TupleEqAtom) for p in collapsed.preds)


def test_apply_key_without_declared_key_is_identity():
    t1, t2 = TupleVar(1, SR), TupleVar(2, SR)
    term = Term.make((t1, t2), [mk_eq(AttrRef(t1, "a"), AttrRef(t2, "a"))],
                     None, None, (("R", t1), ("R", t2)))
    cz = _canonizer(SchemaEnv(keys=[KeyConstraint("S", ("k",))]))
    assert cz.try_key(term, closure_of(term.preds), "t") is None


def _one_collapse(term: Term, *keys: KeyConstraint) -> tuple[Term | None, list[str]]:
    trace = Trace()
    cz = Canonizer(SchemaEnv(keys=list(keys)), VarGen(10_000), trace)
    return cz.try_key(term, closure_of(term.preds), "t"), trace.rule_names()


def test_apply_key_collapses_every_key_equal_atom_in_one_round():
    # three scans equal on the key: the first stays, and the other two are
    # replaced by it in the same round, which leaves no equality to chain
    t1, t2, t3 = (TupleVar(i, SR) for i in (1, 2, 3))
    k = [AttrRef(t, "k") for t in (t1, t2, t3)]
    term = Term.make((t1, t2, t3), [mk_eq(k[0], k[1]), mk_eq(k[1], k[2])],
                     None, None, (("R", t1), ("R", t2), ("R", t3)))
    collapsed, rules = _one_collapse(term, KeyConstraint("R", ("k",)))
    assert collapsed == Term.make((t1,), (), None, None, (("R", t1),))
    assert rules == ["key-collapse", "key-collapse", "sum-elim-eq", "sum-elim-eq"]


def test_a_dropped_free_variable_is_equated_to_the_kept_one():
    # the free variable cannot be substituted away, so the collapse keeps
    # the tuple equality that the next round eliminates the other way
    t2, free = TupleVar(2, SR), TupleVar(3, SR)
    term = Term.make((t2,), [mk_eq(AttrRef(t2, "k"), AttrRef(free, "k"))],
                     None, None, (("R", t2), ("R", free)))
    collapsed, rules = _one_collapse(term, KeyConstraint("R", ("k",)))
    assert collapsed.atoms == (("R", t2),) and collapsed.sum_vars == (t2,)
    assert mk_tuple_eq(t2, free) in collapsed.preds
    assert rules == ["key-collapse"]


def test_an_atom_kept_by_one_key_and_dropped_by_another_is_equated():
    # key k keeps t2 and drops t3; key a then drops t2 for t1.  t2 is
    # replaced by t1, so t3 cannot be replaced by t2 and is equated to it
    # (to t1, once the substitution is applied)
    t1, t2, t3 = (TupleVar(i, SR) for i in (1, 2, 3))
    term = Term.make((t1, t2, t3), [mk_eq(AttrRef(t2, "k"), AttrRef(t3, "k")),
                                    mk_eq(AttrRef(t1, "a"), AttrRef(t2, "a"))],
                     None, None, (("R", t1), ("R", t2), ("R", t3)))
    collapsed, rules = _one_collapse(term, KeyConstraint("R", ("k",)),
                                     KeyConstraint("R", ("a",)))
    assert collapsed.atoms == (("R", t1),) and collapsed.sum_vars == (t1, t3)
    assert mk_tuple_eq(t1, t3) in collapsed.preds
    assert rules == ["key-collapse", "key-collapse", "sum-elim-eq"]


def test_canonize_reduces_index_join_to_filter_scan(index_program):
    prog, env = index_program
    gen = VarGen()
    d1 = denote(prog.statements[-1].lhs, env, gen)
    q2 = inline_views(prog.statements[-1].rhs, env)
    d2 = denote(q2, env, gen)
    from semiq.exprs import substitute
    body2 = substitute(d2.body, {d2.out_var: d1.out_var})
    s1 = to_spnf(d1.body, gen)
    s2 = to_spnf(body2, gen)
    cz = Canonizer(env, gen)
    c2 = cz.canonize(s2)
    c1 = cz.canonize(s1)
    assert alpha_equal(c2.to_exp(), s1.to_exp())  # equals the plain filter scan
    assert alpha_equal(c1.to_exp(), c2.to_exp())


def test_canonize_constraint_free_cq_unique_form():
    env = std_env()
    gen = VarGen()
    # two spellings of the same join produce the same canonical form
    qa = parse_query("SELECT x.a AS o FROM R x, S y WHERE x.b = y.a")
    qb = parse_query("SELECT u.a AS o FROM S w, R u WHERE w.a = u.b")
    da = denote(qa, env, gen)
    db_ = denote(qb, env, gen)
    from semiq.exprs import substitute
    body_b = substitute(db_.body, {db_.out_var: da.out_var})
    cz = Canonizer(env, gen)
    ca = cz.canonize(to_spnf(da.body, gen))
    cb = cz.canonize(to_spnf(body_b, gen))
    ta, tb = ca.terms[0], cb.terms[0]
    assert sorted(r for r, _ in ta.atoms) == sorted(r for r, _ in tb.atoms)
    assert len(ta.sum_vars) == len(tb.sum_vars) == 2


def test_canonize_idempotent(index_program):
    prog, env = index_program
    gen = VarGen()
    q2 = inline_views(prog.statements[-1].rhs, env)
    d = denote(q2, env, gen)
    s = to_spnf(d.body, gen)
    cz = Canonizer(env, gen)
    c1 = cz.canonize(s)
    c2 = cz.canonize(c1)
    assert alpha_equal(c1.to_exp(), c2.to_exp())


def test_canonize_preserves_oracle_on_constraint_dbs(index_program):
    prog, env = index_program
    gen = VarGen()
    q2 = inline_views(prog.statements[-1].rhs, env)
    d = denote(q2, env, gen)
    s = to_spnf(d.body, gen)
    cz = Canonizer(env, gen)
    c = cz.canonize(s, wrap=True)
    for db in itertools.islice(
            gen_instances(env, env.constraints(), GenSizes(3, 3, 3), 21,
                          extra_ints=(12,)), 20):
        assert check_constraints(db, env.constraints())
        for asg in db.tuple_space(d.schema):
            envb = {d.out_var.vid: asg}
            assert eval_exp(s.to_exp(), db, envb) == \
                eval_exp(c.to_exp(), db, envb)


def _staged(t: Term) -> Exp:
    """The term as an expression whose summations sit just above the
    factors that need them (sum v. A * B = A * sum v. B when v is not free
    in A), so that `eval_exp` drops a binding once a factor fails instead
    of enumerating every summation variable's tuple space together."""
    sums = {v.vid: v for v in t.sum_vars}
    pending = [(f, {w.vid for w in free_vars(f)} & sums.keys()) for f in t.factors()]
    bound: set[int] = set()

    def take() -> list:
        ready = [f for f, vids in pending if vids <= bound]
        pending[:] = [(f, vids) for f, vids in pending if not vids <= bound]
        return ready

    levels = [(None, take())]
    while len(bound) < len(sums):
        # the variable that lets the most factors in
        v = max((v for vid, v in sums.items() if vid not in bound),
                key=lambda v: sum(vids <= bound | {v.vid} for _, vids in pending))
        bound.add(v.vid)
        levels.append((v, take()))
    body = ONE
    for v, ready in reversed(levels):
        body = mul(*ready, body)
        if v is not None:
            body = sum_((v,), body)
    return body


# three scans of a keyed table joined on the key: two key collapses
KEY_COLLAPSE_THREE = """
schema sr(k:int, a:int);
table R(sr);
key R(k);
verify (SELECT x.a AS o FROM R x WHERE x.a >= 5)
       (SELECT y.a AS o FROM R x, R y, R z WHERE x.k = y.k AND z.k = y.k AND x.a >= 5);
"""


KEYED = "schema sr(k:int, a:int, b:int);\ntable R(sr);\nkey R(k);\n"
# key k keeps y and drops z, key a keeps x and drops y: y is replaced, so z
# is equated to it instead of replaced by it
KEY_COLLAPSE_TWO_KEYS = KEYED + """key R(a);
verify (SELECT y.b AS o FROM R x, R y, R z WHERE y.k = z.k AND x.a = y.a)
       (SELECT x.b AS o FROM R x);
"""
KEY_COLLAPSE_DISTINCT = KEYED + """
verify (SELECT DISTINCT x.a AS o FROM R x, R y WHERE x.k = y.k AND y.a >= 5)
       (SELECT DISTINCT x.a AS o FROM R x WHERE x.a >= 5);
"""
KEY_COLLAPSE_NOT_EXISTS = """schema sr(k:int, a:int);
table R(sr);
table S(sr);
key R(k);
verify (SELECT s.a AS o FROM S s WHERE NOT EXISTS (
          SELECT x.k AS k FROM R x, R y WHERE x.k = y.k AND x.k = s.a AND y.a >= 5))
       (SELECT s.a AS o FROM S s WHERE NOT EXISTS (
          SELECT x.k AS k FROM R x WHERE x.k = s.a AND x.a >= 5));
"""
# the dropped atom's variable is the free output variable, which stays
KEY_COLLAPSE_FREE = KEYED + """
verify (SELECT y.* FROM R x, R y WHERE x.k = y.k AND x.a >= 5)
       (SELECT * FROM R x WHERE x.a >= 5);
"""


@pytest.mark.parametrize("program, extra_ints", [
    (nested_projection_program(8), (2,)), (index_join_back_program(4), (1, 4)),
    (KEY_COLLAPSE_THREE, (5,)), (KEY_COLLAPSE_TWO_KEYS, ()),
    (KEY_COLLAPSE_DISTINCT, (5,)), (KEY_COLLAPSE_NOT_EXISTS, (5,)),
    (KEY_COLLAPSE_FREE, (5,))],
    ids=["nested-8", "index-join-back-4", "key-collapse", "key-collapse-two-keys",
         "key-collapse-distinct", "key-collapse-not-exists", "key-collapse-free"])
def test_canonize_preserves_each_term_on_key_satisfying_dbs(program, extra_ints):
    prog = parse(program)
    env = build_env(prog)
    [stmt] = prog.verifies()
    gen = VarGen()
    dbs = list(itertools.islice(gen_instances(
        env, env.constraints(), GenSizes(2, 3, 2), 41, extra_ints=extra_ints), 30))
    assert len(dbs) == 30
    for q in prepare_pair(stmt, env):
        d = denote(q, env, gen)
        s = to_spnf(d.body, gen)
        c = Canonizer(env, gen).canonize(s)
        assert len(c.terms) == len(s.terms)
        pairs = [(_staged(a), _staged(b)) for a, b in zip(s.terms, c.terms)]
        for db in dbs:
            assert check_constraints(db, env.constraints())
            # every output tuple a relation holds, and about 32 spread over
            # the whole output space
            space = db.tuple_space(d.schema)
            held = {a for rel in db.rels.values() for a in rel}
            step = max(1, len(space) // 32)
            for asg in (a for i, a in enumerate(space) if i % step == 0 or a in held):
                envb = {d.out_var.vid: asg}
                for before, after in pairs:
                    assert eval_exp(before, db, envb) == eval_exp(after, db, envb)


def test_key_implies_multiplicity_at_most_one(index_program):
    # the squared-atom collapse: R(t) in {0,1} on key-satisfying databases
    _, env = index_program
    for db in itertools.islice(
            gen_instances(env, env.constraints(), GenSizes(3, 3, 3), 5), 20):
        for m in db.rels["R"].values():
            assert m in (0, 1)


def _fk_env():
    prog = parse("""
        schema sr(k:int, a:int);
        schema ss(j:int, f:int);
        table R(sr);
        table S(ss);
        key R(k);
        foreign key S(f) references R(k);
    """)
    return build_env(prog)


def test_apply_fk_identity_oracle_checked():
    env = _fk_env()
    fk = env.fks[0]
    t1 = TupleVar(1, env.tables["S"])
    term = Term.make((t1,), [], None, None, (("S", t1),))
    gen = VarGen(100)
    out = Canonizer(replace(env, fks=[fk]), gen).canonize(SpnfExp((term,)))
    t_out = out.terms[0]
    assert sorted(r for r, _ in t_out.atoms) == ["R", "S"]
    assert len(t_out.sum_vars) == 2
    # both sides evaluate identically on every constraint-satisfying db
    for db in itertools.islice(
            gen_instances(env, env.constraints(), GenSizes(2, 2, 2), 31), 20):
        assert eval_exp(SpnfExp((term,)).to_exp(), db) == \
            eval_exp(out.to_exp(), db)


def test_apply_fk_without_declaration_is_identity():
    env = _fk_env()
    t1 = TupleVar(1, env.tables["R"])
    term = Term.make((t1,), [], None, None, (("R", t1),))
    out = Canonizer(replace(env, fks=[env.fks[0]]), VarGen(100)) \
        .canonize(SpnfExp((term,)))
    assert out.terms[0] == term  # fk source is S, not R


@pytest.mark.parametrize("joined, expands", [(False, 1), (True, 0)])
def test_squash_context_fk_expands_unless_a_target_absorbs_it(joined, expands):
    # under squash a new R atom is redundant exactly when an R atom already
    # has its key equal to s.f; a bare canonizer decides this itself
    env = _fk_env()
    s, r = TupleVar(1, env.tables["S"]), TupleVar(2, env.tables["R"])
    preds = [mk_eq(AttrRef(s, "f"), AttrRef(r, "k"))] if joined else []
    term = Term.make((s, r), preds, None, None, (("S", s), ("R", r)))
    trace = Trace()
    out = Canonizer(env, VarGen(100), trace).canonize(
        SpnfExp((term,)), squash_ctx=True)
    assert trace.rule_names().count("fk-expand") == expands
    assert [rel for rel, _ in out.terms[0].atoms].count("R") == 1 + expands


def test_squash_context_fk_expands_every_unabsorbed_source_in_one_round():
    # a target atom is present but agrees with no source on the key: all
    # three sources expand in one batch, which is one chase round
    env = _fk_env()
    ss = tuple(TupleVar(i, env.tables["S"]) for i in (1, 2, 3))
    r = TupleVar(4, env.tables["R"])
    term = Term.make((*ss, r), [], None, None,
                     (*(("S", s) for s in ss), ("R", r)))
    trace = Trace()
    out, rounds = Canonizer(env, VarGen(100), trace).try_fk(
        term, closure_of(term.preds), "t", True, 0)
    assert rounds == 1
    assert trace.rule_names() == ["fk-expand"] * 3
    assert [rel for rel, _ in out.atoms].count("R") == 4


@pytest.mark.parametrize("squash_ctx", [False, True])
def test_sources_with_equal_fk_values_end_with_one_target_atom(squash_ctx):
    # both sources expand in one batch, and the key collapse of the next
    # round merges the two new atoms
    env = _fk_env()
    s1, s2 = (TupleVar(i, env.tables["S"]) for i in (1, 2))
    term = Term.make((s1, s2), [mk_eq(AttrRef(s1, "f"), AttrRef(s2, "f"))],
                     None, None, (("S", s1), ("S", s2)))
    trace = Trace()
    out = Canonizer(env, VarGen(100), trace).canonize_term(
        term, "t", squash_ctx=squash_ctx)
    assert [rel for rel, _ in out.atoms].count("R") == 1
    assert trace.rule_names().count("fk-expand") == 2
    assert "key-collapse" in trace.rule_names()


def test_cyclic_fk_pair_terminates_within_ceiling():
    prog = parse("""
        schema sa(x:int, y:int);
        schema sb(u:int, w:int);
        table A(sa);
        table B(sb);
        key A(x);
        key B(u);
        foreign key A(y) references B(u);
        foreign key B(w) references A(x);
    """)
    env = build_env(prog)
    tA = TupleVar(1, env.tables["A"])
    term = Term.make((tA,), [], None, None, (("A", tA),))
    trace = Trace()
    cz = Canonizer(env, VarGen(50), trace, budget=Budget(Limits(chase_depth=3)))
    out = cz.canonize_term(term, "t")
    # both relations get introduced once; the name-freshness rule then stops
    assert sorted(r for r, _ in out.atoms) == ["A", "B"]
    assert not cz.chase_exhausted or trace.rule_names().count("fk-expand") <= 3


def test_chase_budget_reported_not_fatal():
    prog = parse("""
        schema sa(x:int, y:int);
        schema sb(u:int, w:int);
        table A(sa);
        table B(sb);
        key A(x);
        key B(u);
        foreign key A(y) references B(u);
        foreign key B(w) references A(x);
    """)
    env = build_env(prog)
    tA = TupleVar(1, env.tables["A"])
    term = Term.make((tA,), [], None, None, (("A", tA),))
    cz = Canonizer(env, VarGen(50), budget=Budget(Limits(chase_depth=1)))
    out = cz.canonize_term(term, "t")
    assert isinstance(out, Term)  # canonization returns the current form


# S's foreign key makes the join back to R redundant, but only a chase of
# depth 1 or more can show it
FK_JOIN_BACK = """
    schema sr(k:int, a:int);
    schema ss(j:int, f:int);
    table R(sr);
    table S(ss);
    key R(k);
    foreign key S(f) references R(k);
    verify (SELECT s.j AS j FROM S s) (SELECT s.j AS j FROM S s, R r WHERE s.f = r.k);
"""


@pytest.mark.parametrize("depth, status, detail", [
    (0, "NOT_PROVED", "chase depth ceiling reached"),
    (1, "EQUIVALENT", ""),
])
def test_chase_ceiling_reaches_the_outcome(depth, status, detail):
    [out] = run_program_text(FK_JOIN_BACK, Limits(chase_depth=depth))
    assert (out.status, out.detail) == (status, detail)


def test_decider_reads_the_chase_ceiling_from_its_budget():
    prog = parse(FK_JOIN_BACK)
    env = build_env(prog)
    [stmt] = prog.verifies()
    gen, _, b1, b2 = denote_pair(stmt.lhs, stmt.rhs, env)
    d = Decider(env, gen, budget=Budget(Limits(chase_depth=0)))
    assert not d.equivalent(to_spnf(b1, gen), to_spnf(b2, gen))
    assert d.canonizer.chase_exhausted


def test_key_rewrite_reaches_into_squash_slots():
    prog = parse("""
        schema sr(k:int, a:int);
        table R(sr);
        key R(k);
        verify R R;
    """)
    env = build_env(prog)
    gen = VarGen()
    q = parse_query(
        "SELECT DISTINCT z.a AS a FROM (SELECT x.a AS a FROM R x, R y WHERE x.k = y.k) z")
    d = denote(inline_views(desugar_groupby(q), env), env, gen)
    s = to_spnf(d.body, gen)
    trace = Trace()
    cz = Canonizer(env, gen, trace)
    c = cz.canonize(s)
    assert trace.rule_names().count("key-collapse") >= 1
    for db in itertools.islice(
            gen_instances(env, env.constraints(), GenSizes(2, 2, 2), 17), 15):
        for asg in db.tuple_space(d.schema):
            envb = {d.out_var.vid: asg}
            assert eval_exp(s.to_exp(), db, envb) == \
                eval_exp(c.to_exp(), db, envb)


_spec = importlib.util.spec_from_file_location(
    "scaling", Path(__file__).resolve().parent.parent / "scripts" / "scaling.py")
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


def test_the_coverage_scan_meets_the_deadline(monkeypatch):
    # eliminating 1,000 scans takes no budget step between the coverage
    # scans of its summation variables; each variable checks the clock.
    # The scan is linear in FROM width, so each of the round's 1,000 calls
    # is slowed to 3 ms: without the per-variable check the first round
    # alone outlasts the 2 s bound, with it the run stops near 0.5 s
    real = Canonizer._coverage_candidate

    def slow(self, *args):
        time.sleep(0.003)
        return real(self, *args)

    monkeypatch.setattr(Canonizer, "_coverage_candidate", slow)
    t0 = time.monotonic()
    [out] = run_program_text(scaling.wide_from(1000), Limits(timeout_s=0.5))
    assert out.status == "RESOURCE_EXHAUSTED" and "timeout" in out.detail
    assert out.steps["canonize"] > 0 and out.steps["search"] <= 1
    assert time.monotonic() - t0 < 2.0


# A summation-free term that both sides of a pair share cancels before
# canonization: it is neither canonized nor searched, and its pair logs
# only its `BIJECTION {}`.  Each verify below pins the verdict, detail,
# trace and steps; both branches of each are shared.

def _shared_branch(branch: str, decls: str = "") -> str:
    """``branch`` (alias ``{x}``) and a filtered scan in a UNION ALL, against
    the two in the other order under other aliases."""
    return ("schema s(a:int, b:int);\ntable R(s);\n" + decls
            + f"verify ({branch.format(x='x')} UNION ALL SELECT * FROM R y WHERE y.a = 7)\n"
            f"       (SELECT * FROM R z WHERE z.a = 7 UNION ALL {branch.format(x='w')});\n")


def _outcome(text: str, limits: Limits | None = None) -> tuple:
    """Status, detail, steps and rendered trace of one verify."""
    [out] = run_program_text(text, limits)
    return out.status, out.detail, out.steps, out.trace.render()


# the trace of a verify whose two branches both cancel
BOTH_CANCEL = "BIJECTION {}\nBIJECTION {}\nPERMUTATION [1, 0]\n"


def test_a_replayed_branch_logs_its_rules_at_its_own_location():
    # canonizing the branch would saturate its equalities; it logs no rule
    assert _outcome(_shared_branch(
        "SELECT * FROM R {x} WHERE {x}.a = {x}.b AND {x}.b = 5")) == (
        "EQUIVALENT", "", {"total": 22, "normalize": 18, "canonize": 0, "search": 4},
        BOTH_CANCEL)


def test_a_shared_constant_clash_is_dropped_on_both_sides():
    # the branch is 0, and it cancels as it stands: no `const-clash` is
    # logged, and it keeps its place in the permutation
    assert _outcome(_shared_branch(
        "SELECT * FROM R {x} WHERE {x}.a = 1 AND {x}.a = 2")) == (
        "EQUIVALENT", "", {"total": 22, "normalize": 18, "canonize": 0, "search": 4},
        BOTH_CANCEL)


def test_a_shared_branch_that_draws_a_variable_is_canonized_per_side():
    # neither side's scan is expanded along the foreign key, so no
    # variable is drawn
    text = _shared_branch("SELECT * FROM R {x}",
                          "table S(s);\nkey S(a);\nforeign key R(b) references S(a);\n")
    [out] = run_program_text(text, dump_spnf=True)
    assert out.dumps == {"spnf1": "R(t) + [7 = t.a] * R(t)",
                         "spnf2": "[7 = t.a] * R(t) + R(t)"}
    assert _outcome(text) == (
        "EQUIVALENT", "", {"total": 14, "normalize": 10, "canonize": 0, "search": 4},
        BOTH_CANCEL)


def test_a_shared_branch_at_the_chase_ceiling_notes_it_once():
    # the shared DISTINCT branch is not chased, so it reaches no ceiling
    # and the detail is empty at any chase depth
    text = _shared_branch(
        "SELECT DISTINCT * FROM R {x}",
        "table S(s);\nkey R(a);\nkey S(a);\n"
        "foreign key R(b) references S(a);\nforeign key S(b) references R(a);\n")
    want = ("EQUIVALENT", "", {"total": 16, "normalize": 12, "canonize": 0, "search": 4},
            BOTH_CANCEL)
    assert _outcome(text, Limits(chase_depth=0)) == want
    assert _outcome(text) == want
