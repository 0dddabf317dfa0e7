"""Decision procedures: term pairing, bijection search, congruence matching,
squashed-expression comparison, and containment by homomorphism."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import random
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from semiq import build_env, constraints, decide, parse
from semiq.congruence import closure_of, is_eq_atom
from semiq.constraints import subst_term
from semiq.decide import Decider, term_signature
from semiq.oracle import GenSizes
from semiq.schema import Schema
from semiq.spnf import SpnfExp, Term, to_spnf
from semiq.trace import Trace
from semiq.translate import denote
from semiq.config import Limits
from semiq.exprs import (AttrRef, Const, Func, PredApp, Squash, TupleVar,
                         VarGen, mk_eq, mk_record, mk_tuple_eq, substitute)
from semiq.pipeline import find_witness, run_program_text, run_verify
from semiq.record import replace
from semiq.schema import SchemaEnv
from semiq.sqlast import Distinct, UnionAll, VerifyStmt

from conftest import FIG_INDEX, parse_query
from helpers import (congruent_preds, copy_body, cq_set_equivalent,
                     denote_pair, enumerate_dbs, find_disagreement, gen_cq, narrow,
                     reference_match_terms, reference_pairing, small_dbs, std_env,
                     reference_unary, ucq_set_equivalent, var_signature)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SR = Schema("sr", (("k", "int"), ("a", "int")))


def _udp_bool(env, q1_src, q2_src, rels=("R", "S", "T", "I")):
    q1 = parse_query(q1_src, rels)
    q2 = parse_query(q2_src, rels)
    gen, out, b1, b2 = denote_pair(q1, q2, env)
    d = Decider(env, gen)
    return d.equivalent(to_spnf(b1, gen), to_spnf(b2, gen))


def test_udp_proves_index_rewrite(index_program):
    _, env = index_program
    assert _udp_bool(env,
                     "SELECT * FROM R t WHERE t.a >= 12",
                     "SELECT t2.* FROM I t1, R t2 WHERE t1.k = t2.k AND t1.a >= 12")


def test_udp_alpha_renamed_self():
    env = std_env()
    assert _udp_bool(env,
                     "SELECT x.a AS o FROM R x, S y WHERE x.a = y.b",
                     "SELECT u.a AS o FROM R u, S w WHERE u.a = w.b")


def test_udp_rejects_bag_self_join_inflation():
    env = std_env()
    q1 = parse_query("SELECT x.a AS o FROM R x")
    q2 = parse_query("SELECT x.a AS o FROM R x, R y")
    gen, out, b1, b2 = denote_pair(q1, q2, env)
    d = Decider(env, gen)
    assert not d.equivalent(to_spnf(b1, gen), to_spnf(b2, gen))
    # and the oracle certifies the non-equivalence with a counterexample
    dbs = list(enumerate_dbs(env, domain_size=1, max_tuples=1, max_mult=2))
    assert find_disagreement(q1, q2, env, dbs) is not None


def test_udp_term_count_mismatch():
    env = std_env()
    assert not _udp_bool(env, "R UNION ALL S", "R")
    assert _udp_bool(env, "R UNION ALL S", "S UNION ALL R")


def test_tdp_three_way_self_join_bijections():
    env = std_env()
    src1 = ("SELECT x.a AS o FROM R x, R y, R z "
            "WHERE x.a = y.b AND y.a = z.b")
    src2 = ("SELECT w2.a AS o FROM R w1, R w2, R w3 "
            "WHERE w2.a = w3.b AND w3.a = w1.b")
    assert _udp_bool(env, src1, src2)
    # a permuted-atom variant equal to the oracle's verdict on small dbs
    q1 = parse_query(src1)
    q2 = parse_query(src2)
    dbs = small_dbs(env, 30, seed=3, sizes=GenSizes(2, 3, 2))
    assert find_disagreement(q1, q2, env, dbs) is None


def test_tdp_atom_multiset_mismatch_fails():
    env = std_env()
    assert not _udp_bool(env,
                         "SELECT x.a AS o FROM R x, R y WHERE x.a = y.a",
                         "SELECT x.a AS o FROM R x, S y WHERE x.a = y.a")


def test_tdp_congruence_example_pairs():
    env = std_env()
    # [a=b][c=d][b=e][f(a)=g(d)] vs [a=b][a=e][c=d][f(e)=g(c)] over attributes
    src1 = ("SELECT x.a AS o FROM R x, S y, T z "
            "WHERE x.a = x.b AND y.a = y.b AND x.b = z.a "
            "AND f(x.a) = g(y.b)")
    src2 = ("SELECT x.a AS o FROM R x, S y, T z "
            "WHERE x.a = x.b AND x.a = z.a AND y.a = y.b "
            "AND f(z.a) = g(y.a)")
    assert _udp_bool(env, src1, src2)


def test_sdp_distinct_self_join():
    env = std_env()
    assert _udp_bool(env,
                     "SELECT DISTINCT x.a AS a FROM R x, R y",
                     "SELECT DISTINCT R.a AS a FROM R")


def test_sdp_zero_cases():
    env = std_env()
    gen = VarGen()
    d = Decider(env, gen)
    assert d.squash_equal(SpnfExp.zero(), SpnfExp.zero())
    assert d.squash_equal(SpnfExp.one(), SpnfExp.one())
    assert not d.squash_equal(SpnfExp.zero(), SpnfExp.one())


def test_sdp_union_idempotent_under_squash():
    env = std_env()
    # || R + R || = || R || under set semantics
    assert _udp_bool(env,
                     "SELECT DISTINCT x.a AS a FROM R x",
                     "DISTINCT ((SELECT x.a AS a FROM R x) UNION ALL (SELECT y.a AS a FROM R y))")


def test_sdp_matches_reference_containment_on_random_cqs():
    env = std_env()
    rng = random.Random(17)
    agree = 0
    for i in range(60):
        q1 = gen_cq(rng, max_atoms=3, max_vars=3, allow_const=False)
        q2 = gen_cq(rng, max_atoms=3, max_vars=3, allow_const=False)
        want = cq_set_equivalent(q1, q2, env)
        from semiq.sqlast import Distinct
        gen, out, b1, b2 = denote_pair(Distinct(q1), Distinct(q2), env)
        got = Decider(env, gen).equivalent(to_spnf(b1, gen), to_spnf(b2, gen))
        assert got == want, (i, q1, q2)
        agree += 1
    assert agree == 60


def _redundant_scan_and_core(core_attr="a"):
    """sum{t1,t2} [o.o1 = t1.a] R(t1) R(t2) and its core sum{t3} [o.o1 =
    t3.a] R(t3), or a core projecting ``core_attr`` instead."""
    env = std_env()
    t1, t2, t3 = (TupleVar(i, env.tables["R"]) for i in (901, 902, 903))
    out = TupleVar(900, Schema("o", (("o1", "int"),)), "t")
    term = Term.make((t1, t2), [mk_eq(AttrRef(out, "o1"), AttrRef(t1, "a"))],
                     None, None, (("R", t1), ("R", t2)))
    core = Term.make((t3,), [mk_eq(AttrRef(out, "o1"), AttrRef(t3, core_attr))],
                     None, None, (("R", t3),))
    return env, term, core


def _maps(trace: Trace) -> list[tuple[str, list]]:
    return [(e.kind, e.payload["map"]) for e in trace.events
            if e.kind in ("bijection", "homomorphism")]


def test_minimize_collapses_redundant_scan():
    # the redundant scan folds onto the core's one scan: each maps into
    # the other, so their squashes are equal
    env, term, core = _redundant_scan_and_core()
    d = Decider(env, VarGen(), Trace())
    assert d.maps_into(term, core)
    assert _maps(d.trace) == [("homomorphism", [("t901", "t903"),
                                                 ("t902", "t903")])]
    assert d.maps_into(core, term)
    assert d.squash_equal(SpnfExp((term,)), SpnfExp((core,)))
    # the output attribute pins t1: the core of another projection does
    # not absorb the redundant scan
    _, _, other = _redundant_scan_and_core("b")
    assert not d.maps_into(term, other)


def test_minimize_keeps_minimal_core():
    # a two-step path with both endpoints distinguished admits no collapse:
    # it maps into its fold v2 -> v1, but the fold does not map back
    env = std_env()
    gen = VarGen()
    out = TupleVar(900, Schema("o", (("u", "int"), ("w", "int"))), "t")
    v1 = TupleVar(901, env.tables["R"])
    v2 = TupleVar(902, env.tables["R"])
    preds = [mk_eq(AttrRef(out, "u"), AttrRef(v1, "a")),
             mk_eq(AttrRef(v1, "b"), AttrRef(v2, "a")),
             mk_eq(AttrRef(out, "w"), AttrRef(v2, "b"))]
    term = Term.make((v1, v2), preds, None, None, (("R", v1), ("R", v2)))
    d = Decider(env, gen)
    assert d.minimize(term) == term
    v3 = TupleVar(903, env.tables["R"])
    fold = Term.make((v3,), [substitute(p, {v1: v3, v2: v3}) for p in preds],
                     None, None, (("R", v3),))
    assert d.maps_into(term, fold)
    assert not d.maps_into(fold, term)


def test_minimize_single_atom_unchanged():
    env = std_env()
    t1 = TupleVar(901, env.tables["R"])
    term = Term.make((t1,), [], None, None, (("R", t1),))
    d = Decider(env, VarGen())
    assert d.minimize(term) == term


def test_minimize_collapses_onto_a_free_variable():
    # sum{v} R(t) R(v) with t free holds exactly when R(t) does: v maps
    # onto the free variable
    env = std_env()
    t = TupleVar(900, env.tables["R"])
    v = TupleVar(901, env.tables["R"])
    term = Term.make((v,), [], None, None, (("R", t), ("R", v)))
    scan = Term.make((), [], None, None, (("R", t),))
    d = Decider(env, VarGen(), Trace())
    assert d.maps_into(term, scan)
    assert _maps(d.trace) == [("homomorphism", [("t901", "t900")])]
    assert d.squash_equal(SpnfExp((term,)), SpnfExp((scan,)))


def test_minimize_keeps_variables_the_negation_slot_mentions():
    # G = sum{v1,v2} R(v1) R(v2) not([v2.a = 1]) and H = sum{w} R(w)
    # not([w.a = 1]): the negation slots must agree under the map, so H
    # maps into G by w -> v2 though v1 is tried first, and no map reaches
    # a scan guarded by another slot or by none
    env = std_env()
    v1, v2, w = (TupleVar(i, env.tables["R"]) for i in (901, 902, 903))

    def guard(x, c=1):
        return SpnfExp((Term.make((), [mk_eq(AttrRef(x, "a"), Const(c, "int"))],
                                  None, None, ()),))

    g = Term.make((v1, v2), [], None, guard(v2), (("R", v1), ("R", v2)))
    h = Term.make((w,), [], None, guard(w), (("R", w),))
    d = Decider(env, VarGen(), Trace())
    assert d.maps_into(h, g)
    assert _maps(d.trace)[-1] == ("bijection", [("t903", "t902")])
    assert d.maps_into(g, h)
    for other in (replace(h, neg=guard(w, 2)), replace(h, neg=None)):
        assert not d.maps_into(other, g)
        assert not d.maps_into(g, other)


@pytest.mark.parametrize("seed", range(25))
def test_minimize_preserves_set_semantics(seed):
    # the squash of the minimized term equals the squash of the input on
    # every database: a repeated atom adds nothing under a squash
    env = std_env(("R", "S"))
    rng = random.Random(seed)
    q = gen_cq(rng, max_atoms=3, max_vars=3, allow_const=False)
    gen = VarGen()
    d = denote(q, env, gen)
    s = to_spnf(d.body, gen)
    decider = Decider(env, gen)
    term = decider.canonizer.canonize(s).terms[0]
    m = decider.minimize(term)
    assert decider.minimize(m) == m
    from semiq.exprs import Squash
    lhs, rhs = Squash(term.to_exp()), Squash(m.to_exp())
    for db in small_dbs(env, 8, seed=seed + 500):
        for asg in db.tuple_space(d.schema)[:3]:
            envb = {d.out_var.vid: asg}
            assert eval_uexp_(lhs, db, envb) == eval_uexp_(rhs, db, envb)


from semiq.oracle import eval_exp as eval_uexp_  # noqa: E402


def test_minimize_idempotent_and_recipe_logged():
    # minimize keeps one copy of a repeated atom; a map that merges two
    # variables logs the fold recipe before its HOMOMORPHISM line
    env, term, core = _redundant_scan_and_core()
    trace = Trace()
    d = Decider(env, VarGen(), trace)
    doubled = replace(term, atoms=term.atoms + term.atoms[:1])
    m = d.minimize(doubled)
    assert m == term and d.minimize(m) is m
    assert trace.rule_names() == ["squash-square"]
    assert d.squash_equal(SpnfExp((term,)), SpnfExp((core,)))
    for rule in ("excluded-middle", "sum-elim-eq", "squash-square",
                 "squash-one-plus"):
        assert trace.rule_names().count(rule) >= 1
    assert "HOMOMORPHISM {t901->t903, t902->t903}" in trace.render()


@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize("length", range(1, 7))
def test_a_distinct_fk_chain_gets_the_same_verdict_at_each_chase_depth(length, depth):
    # a squash slot that canonize cut at the chase ceiling is canonized
    # again by `squash_equal`, with a fresh chase budget: that alone proves
    # the chain of 3 at depth 1 and the chains of 5 and 6 at depth 2
    want = "NOT_PROVED" if depth == 1 and length >= 4 else "EQUIVALENT"
    for seed in (0, 1):
        inst = workloads.fk_chain(random.Random(seed), length, distinct=True)
        [out] = run_program_text(inst.text, Limits(chase_depth=depth))
        assert out.status == want


@pytest.mark.parametrize("seed", range(10))
def test_maps_into_is_sound_containment(seed):
    # whenever u maps into t, ||t|| <= ||u|| on every database; the terms
    # of random queries, of copies of their bodies and of narrowed copies
    # map into each other often
    env = std_env(("R", "S"))
    rng = random.Random(seed)
    gen = VarGen()
    d = Decider(env, gen)
    out = None
    terms = []
    for _ in range(3):
        q = gen_cq(rng, max_atoms=2, max_vars=2)
        for query in (q, copy_body(q), UnionAll((q, narrow(rng, q)))):
            den = denote(query, env, gen)
            out = out or den.out_var
            body = substitute(den.body, {den.out_var: out})
            terms += d.canonizer.canonize(to_spnf(body, gen),
                                          squash_ctx=True).terms
    dbs = small_dbs(env, 6, seed=seed + 700)
    held = 0
    for t in terms:
        for u in terms:
            if not d.maps_into(u, t):
                continue
            held += 1
            for db in dbs:
                for asg in db.tuple_space(out.schema)[:4]:
                    envb = {out.vid: asg}
                    assert (eval_uexp_(Squash(t.to_exp()), db, envb)
                            <= eval_uexp_(Squash(u.to_exp()), db, envb))
    assert held > 2 * len(terms)


@pytest.mark.parametrize("kind", ["body-copy", "contained-branch", "independent"])
def test_set_verdicts_match_reference_containment(kind):
    # 100 seeded DISTINCT pairs of each kind get exactly the reference's
    # verdict.  A copy of the whole body folds back only when several
    # variables move at once, and a contained branch is covered by another
    # branch rather than matched by an isomorphic one
    env = std_env(("R", "S"))
    rng = random.Random(5)
    wrong = []
    for i in range(100):
        q1 = gen_cq(rng, max_atoms=4, max_vars=4)
        if kind == "independent":
            q2 = gen_cq(rng, max_atoms=4, max_vars=4)
        elif kind == "body-copy":
            q2 = copy_body(q1)
        else:
            n = narrow(rng, q1)
            q2 = UnionAll((n, q1)) if rng.random() < 0.5 else UnionAll((q1, n))
        q1, q2 = Distinct(q1), Distinct(q2)
        want = ("EQUIVALENT" if ucq_set_equivalent(q1, q2, env)
                else "NOT_EQUIVALENT")
        got = run_verify(VerifyStmt(q1, q2), "v", env, Limits(timeout_s=30),
                         want_trace=False).status
        if got != want:
            wrong.append((i, got))
    assert wrong == []


def test_verdict_not_equivalent_only_in_ucq_fragments():
    from semiq.pipeline import run_program_text
    text = """
        schema s(a:int, b:int);
        table R(s);
        table S(s);
        verify (SELECT x.a AS o FROM R x) (SELECT x.a AS o FROM R x, R y);
        verify (SELECT x.a AS o FROM R x WHERE x.a < x.b)
               (SELECT x.a AS o FROM R x, R y WHERE x.a < x.b);
    """
    outs = run_program_text(text)
    assert outs[0].status == "NOT_EQUIVALENT" and outs[0].fragment == "ucq-bag"
    assert outs[1].status == "NOT_PROVED" and outs[1].fragment == "general"


def test_long_join_chain_matches_quickly():
    import time
    from semiq.pipeline import run_program_text
    joins1 = ", ".join(f"R x{i}" for i in range(8))
    joins2 = ", ".join(f"R y{i}" for i in reversed(range(8)))
    preds1 = " AND ".join(f"x{i}.b = x{i+1}.a" for i in range(7))
    preds2 = " AND ".join(f"y{i}.b = y{i+1}.a" for i in range(7))
    text = f"""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x0.a AS o FROM {joins1} WHERE {preds1})
               (SELECT y0.a AS o FROM {joins2} WHERE {preds2});
    """
    t0 = time.monotonic()
    out = run_program_text(text)[0]
    assert out.status == "EQUIVALENT"
    assert time.monotonic() - t0 < 5.0


def test_join_cycle_rotation():
    from semiq.pipeline import run_program_text
    n = 6
    joins1 = ", ".join(f"R x{i}" for i in range(n))
    joins2 = ", ".join(f"R y{i}" for i in range(n))
    preds1 = " AND ".join(f"x{i}.b = x{(i + 1) % n}.a" for i in range(n))
    preds2 = " AND ".join(f"y{(i + 2) % n}.b = y{(i + 3) % n}.a" for i in range(n))
    text = f"""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x0.a AS o, x3.b AS p FROM {joins1} WHERE {preds1})
               (SELECT y0.a AS o, y3.b AS p FROM {joins2} WHERE {preds2});
    """
    out = run_program_text(text)[0]
    assert out.status == "EQUIVALENT"


def _wide_term(base: int, n: int, links) -> Term:
    # n scans of R, with s_i.b = s_j.a for each (i, j) in links
    vs = [TupleVar(base + i, std_env().tables["R"], "s") for i in range(n)]
    return Term.make(vs, [mk_eq(AttrRef(vs[i], "b"), AttrRef(vs[j], "a")) for i, j in links],
                     atoms=[("R", v) for v in vs])


def test_wide_terms_are_searched_with_no_frames_per_variable():
    # one search step per variable placed, each on an explicit stack; the
    # recursive searches overflowed the stack at about 1,000 variables
    n = 1200
    pairs = [(i, i + 1) for i in range(0, 40, 2)]
    d = Decider(std_env(), VarGen(100_000))
    assert d.match_terms(_wide_term(1, n, pairs), _wide_term(5001, n, pairs))
    assert d.budget.by_stage["search"] == n + 2
    # a cycle of links folds onto one variable linked to itself
    w = TupleVar(9001, std_env().tables["R"], "w")
    dst = Term.make([w], [mk_eq(AttrRef(w, "a"), AttrRef(w, "b"))], atoms=[("R", w)])
    d = Decider(std_env(), VarGen(100_000))
    assert d.maps_into(_wide_term(1, n, [(i, (i + 1) % n) for i in range(n)]), dst)
    assert d.budget.by_stage["search"] == n + 2


def test_signature_pruning_is_isomorphism_invariant():
    env = std_env()
    gen = VarGen()
    q = parse_query("SELECT x.a AS o FROM R x, S y WHERE x.a = y.b")
    d1 = denote(q, env, VarGen(1))
    d2 = denote(q, env, VarGen(50))
    s1 = to_spnf(d1.body, VarGen(1000))
    s2 = to_spnf(substitute(d2.body, {d2.out_var: d1.out_var}), VarGen(2000))
    assert term_signature(s1.terms[0]) == term_signature(s2.terms[0])


# -- free-constant check before the bijection search --------------------------

OUT_A = Schema("o", (("a", "int"),))


def _filtered_scan(vid: int, value: int) -> Term:
    """sum_x R(x) * [t.a = value], for a free t: the constant is tied to no
    summed variable, so the variable signatures cannot tell two values
    apart."""
    t = TupleVar(900, OUT_A)
    x = TupleVar(vid, std_env().tables["R"])
    return Term.make((x,), [mk_eq(AttrRef(t, "a"), Const(value, "int"))],
                     None, None, (("R", x),))


def _counting_term_checks(monkeypatch) -> list:
    checked = []
    real = Decider._term_check

    def counting(self, *args):
        checked.append(args)
        return real(self, *args)

    monkeypatch.setattr(Decider, "_term_check", counting)
    return checked


def test_free_constant_mismatch_rejected_before_term_check(monkeypatch):
    checked = _counting_term_checks(monkeypatch)
    d = Decider(std_env(), VarGen())
    assert not d.match_terms(_filtered_scan(901, 1), _filtered_scan(902, 2))
    assert checked == []


def test_identical_terms_still_match(monkeypatch):
    checked = _counting_term_checks(monkeypatch)
    d = Decider(std_env(), VarGen())
    assert d.match_terms(_filtered_scan(901, 1), _filtered_scan(902, 1))
    assert len(checked) == 1


# two summed and two free variables; constants, attributes, one function
# and records over them
_SUMMED = (TupleVar(1, SR), TupleVar(2, SR))
_FREE = (TupleVar(3, SR), TupleVar(4, SR))
_scalars = st.recursive(
    st.sampled_from([Const(0, "int"), Const(1, "int"), Const(2, "int")])
    | st.builds(AttrRef, st.sampled_from(_SUMMED + _FREE),
                st.sampled_from("ka")),
    lambda inner: st.builds(lambda s: Func("f", (s,)), inner),
    max_leaves=2)
_tuples = st.sampled_from(_SUMMED + _FREE) | st.builds(
    lambda k, a: mk_record({"k": k, "a": a}), _scalars, _scalars)
_preds = st.lists(st.one_of(
    st.builds(mk_eq, _scalars, _scalars),
    st.builds(mk_tuple_eq, _tuples, _tuples),
    st.builds(lambda a, b: PredApp(">=", (a, b)), _scalars, _scalars)),
    max_size=6)


def _free_constants(preds) -> dict:
    return decide._free_constants(Term.make(_SUMMED, preds), closure_of(preds))


def _respelled(preds, rng: random.Random, variables=_SUMMED + _FREE) -> list:
    """The same closure stated by a shuffled chain of equalities per class,
    as saturation and substitution restate a term's predicates; every
    attribute of every variable is stated with its class."""
    c = closure_of(preds)
    for v in variables:
        for a in v.schema.attr_names():
            c.add_scalar(AttrRef(v, a))
    c.close()
    out = [p for p in preds if not is_eq_atom(p)]
    for classes, eq in ((c.scalar_classes(), mk_eq),
                        (c.tuple_classes(), mk_tuple_eq)):
        for members in classes.values():
            rng.shuffle(members)
            out += [eq(a, b) for a, b in zip(members, members[1:])]
    rng.shuffle(out)
    return out


@given(_preds, _preds, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_congruent_predicates_have_equal_free_constants(p1, other, rng):
    respelled = _respelled(p1, rng)
    assert congruent_preds(p1, respelled)
    for p2 in (respelled, other):
        if congruent_preds(p1, p2):
            assert _free_constants(p1) == _free_constants(p2)


# -- the bijection search against exhaustive leaf checks ------------------------

_ENV = std_env()
_OUT = TupleVar(900, Schema("o", (("a", "int"), ("b", "int"))))


def _preds_over(xs):
    attr = st.builds(AttrRef, st.sampled_from(xs), st.sampled_from("ab"))
    scalar = st.one_of(
        attr, st.builds(AttrRef, st.just(_OUT), st.sampled_from("ab")),
        st.builds(lambda c: Const(c, "int"), st.integers(0, 2)),
        st.builds(lambda s: Func("f", (s,)), attr))
    return st.lists(
        st.builds(mk_eq, attr, scalar)
        | st.builds(lambda a, b: PredApp("p", (a, b)), attr, attr),
        max_size=6)


def _variant(draw, xs, preds, atoms, ids) -> Term:
    """The term over ``xs`` with ``preds`` and ``atoms`` under a random
    bijection onto ``ids``, restated, listed in another order and, in one
    case of four, missing its last predicate."""
    rng = draw(st.randoms(use_true_random=False))
    if preds and draw(st.integers(0, 3)) == 0:
        preds = preds[:-1]
    preds = _respelled(preds, rng, xs + [_OUT])
    ys = [TupleVar(i, x.schema) for i, x in zip(rng.sample(ids, len(xs)), xs)]
    for x, y in zip(xs, ys):
        preds = [substitute(p, {x: y}) for p in preds]
    atoms = [(r, ys[xs.index(v)]) for r, v in atoms]
    rng.shuffle(ys)
    return Term.make(ys, preds, None, None, atoms)


@st.composite
def _term_pairs(draw):
    """A term over up to five summation variables, most of them of one
    relation, whose predicates link attributes across and within
    variables, pin constants, apply f and equate free output attributes;
    and a variant of it on ids from 100."""
    rels = draw(st.lists(st.sampled_from("RRS"), min_size=1, max_size=5))
    xs = [TupleVar(10 + i, _ENV.tables[r]) for i, r in enumerate(rels)]
    preds = draw(_preds_over(xs))
    atoms = list(zip(rels, xs))
    return (Term.make(xs, preds, None, None, atoms),
            _variant(draw, xs, preds, atoms, range(100, 120)))


@st.composite
def _term_triples(draw):
    """A pair of `_term_pairs` and a variant of its second term."""
    t1, t2 = draw(_term_pairs())
    return t1, t2, _variant(draw, list(t2.sum_vars), list(t2.preds),
                            list(t2.atoms), range(200, 220))


@st.composite
def _tied_sides(draw):
    """Two sums of one to five terms, each term a variant of one of two
    terms over the same scans, so the terms tie on their signature and
    some tied terms are not isomorphic."""
    rels = draw(st.lists(st.sampled_from("RRS"), min_size=1, max_size=3))
    xs = [TupleVar(10 + i, _ENV.tables[r]) for i, r in enumerate(rels)]
    bases = [draw(_preds_over(xs)), draw(_preds_over(xs))]
    atoms = list(zip(rels, xs))
    n = draw(st.integers(1, 5))
    return tuple(SpnfExp(tuple(
        _variant(draw, xs, bases[draw(st.integers(0, 1))], atoms,
                 range(start + 10 * k, start + 10 * k + 10))
        for k in range(n))) for start in (100, 200))


def _renamed_pair(n: int, preds1, preds2, ids) -> tuple[Term, Term]:
    """Terms over n scans of R; the second names its i-th variable ids[i]."""
    def term(vs, preds):
        return Term.make(vs, preds(*vs), None, None, [("R", v) for v in vs])
    xs = [TupleVar(10 + i, _ENV.tables["R"]) for i in range(n)]
    return term(xs, preds1), term([TupleVar(i, x.schema) for i, x in
                                   zip(ids, xs)], preds2)


def _one_link(x, y, z, w):
    return [mk_eq(AttrRef(x, "a"), AttrRef(z, "b"))]


@given(_term_pairs())
@settings(max_examples=200, deadline=None)
# placing the first variable alone completes x.a = o.a; only the other
# term's unplaced predicate implies it
@example(_renamed_pair(2,
                       lambda x, y: [mk_eq(AttrRef(x, "a"), AttrRef(y, "a")),
                                     mk_eq(AttrRef(x, "a"), AttrRef(_OUT, "a"))],
                       lambda x, y: [mk_eq(AttrRef(x, "a"), AttrRef(y, "a")),
                                     mk_eq(AttrRef(y, "a"), AttrRef(_OUT, "a"))],
                       (100, 101)))
# colours split the four signature-equal scans into two singletons and a
# pair, which must not move the singletons ahead in the placement order
@example(_renamed_pair(4, _one_link, _one_link, (101, 100, 103, 102)))
def test_match_terms_agrees_with_exhaustive_search(pair):
    for t1, t2 in (pair, pair[::-1]):
        got = Decider(_ENV, VarGen(), Trace())
        want = Decider(_ENV, VarGen(), Trace())
        assert got.match_terms(t1, t2) == reference_match_terms(want, t1, t2)
        assert got.trace.render() == want.trace.render()


def test_term_facts_equal_their_per_variable_references(monkeypatch):
    # `_EqualityLinks` keys grounded members only in the classes of
    # summation variables' attributes, and `_var_signatures` reads the
    # atoms and slots once: on every term that the bundled and perfbench
    # programs search, `unary` equals a reference keying every class, and
    # each signature the one a per-variable scan finds.  Links are built
    # only for the terms the bijection search places, so the corpus takes
    # the perfbench programs of two seeds
    real = decide._EqualityLinks
    seen = {"vars": 0, "grounded": 0}

    def links(t, closure):
        got = real(t, closure)
        sigs = decide._var_signatures(t)
        for v in t.sum_vars:
            assert got.unary(v) == reference_unary(t, closure, v)
            assert sigs[v.vid] == var_signature(t, v)
            seen["vars"] += 1
            seen["grounded"] += any(g for _, g in got.unary(v))
        return got

    monkeypatch.setattr(decide, "_EqualityLinks", links)
    programs = [p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.cos"))]
    programs += [inst.text for seed in (1, 2) for name in sorted(workloads.WORKLOADS)
                 for inst in workloads.build(name, seed, ROOT)
                 if not inst.family.startswith("bundled-")]
    for text in programs:
        run_program_text(text)
    assert seen["vars"] > 300 and seen["grounded"] > 100


@given(_term_pairs())
@settings(max_examples=100, deadline=None)
@example(_renamed_pair(2,
                       lambda x, y: [mk_eq(AttrRef(x, "a"), AttrRef(y, "a")),
                                     mk_eq(AttrRef(x, "a"), AttrRef(_OUT, "a"))],
                       lambda x, y: [mk_eq(AttrRef(x, "a"), AttrRef(y, "a")),
                                     mk_eq(AttrRef(y, "a"), AttrRef(_OUT, "a"))],
                       (100, 101)))
def test_term_check_is_congruence_under_each_bijection(pair):
    # the leaf asks each side's predicates of the other's closure; that is
    # the congruence of the two predicate lists, whichever bijection of
    # signature-equal variables it is given.  One decider checks them all,
    # so its closures grow across checks as they do in a search
    for t1, t2 in (pair, pair[::-1]):
        d = Decider(_ENV, VarGen())
        sig = {v.vid: var_signature(t, v) for t in (t1, t2) for v in t.sum_vars}
        for images in itertools.permutations(t1.sum_vars):
            mapping = list(zip(t2.sum_vars, images))
            if any(sig[v2.vid] != sig[v1.vid] for v2, v1 in mapping):
                continue
            t2p = subst_term(t2, dict(mapping))
            want = (sorted((r, v.vid) for r, v in t1.atoms)
                    == sorted((r, v.vid) for r, v in t2p.atoms)
                    and congruent_preds(t1.preds, t2p.preds))
            assert d._term_check(t1, t2, mapping) == want


@given(_term_triples())
@settings(max_examples=100, deadline=None)
def test_match_terms_is_an_equivalence_relation(terms):
    # the term search pairs greedily, which is complete only because
    # matching is symmetric and transitive
    d = Decider(_ENV, VarGen())
    match = {(i, j): d.match_terms(terms[i], terms[j])
             for i in range(3) for j in range(3) if i != j}
    assert all(match[i, j] == match[j, i] for i, j in match)
    # an equivalence relation on three terms holds of none, one or all of
    # their pairs
    assert sum(match[i, j] for i, j in match if i < j) != 2


@given(_tied_sides())
@settings(max_examples=60, deadline=None)
def test_term_search_finds_the_first_pairing(sides):
    got = Decider(_ENV, VarGen(), Trace())
    want = reference_pairing(Decider(_ENV, VarGen()), *sides)
    assert got._perm_search(*sides) == (want is not None)
    assert [e.payload["perm"] for e in got.trace.events
            if e.kind == "permutation"] == ([want] if want else [])


# -- shared terms cancel ----------------------------------------------------------
# A bag sum cancels: a + c = b + c exactly when a = b.  The summation-free
# terms both sides share are removed before anything is canonized, and each
# pair is logged as a match by the empty map.

_RS = "schema s(a:int, b:int);\ntable R(s);\n"
_SHARED_AND_PROJECTION = _RS + (
    "verify (SELECT * FROM R x WHERE x.a = x.b AND x.b = 3 UNION ALL\n"
    "        SELECT x2.a AS a, x2.a AS b FROM R x2 WHERE x2.a = 4 AND x2.b > 4)\n"
    "       (SELECT y2.a AS a, y2.a AS b FROM R y2 WHERE y2.b > 4 AND y2.a = 4 UNION ALL\n"
    "        SELECT * FROM R y WHERE y.a = y.b AND y.b = 3);\n")
_EQUAL_NEGATION = _RS + ("verify (SELECT x.a AS o FROM R x WHERE NOT (x.b = 1))\n"
                         "       (SELECT y.a AS o FROM R y WHERE NOT (y.b = 1));\n")


def test_a_repeated_term_cancels_once_per_copy():
    # one copy of R cancels and the other is left over, so the term counts
    # differ before any match is logged
    text = _RS + "verify (R UNION ALL R) (R);\n"
    [out] = run_program_text(text)
    assert (out.status, out.fragment, out.trace.render()) == ("NOT_EQUIVALENT", "ucq-bag", "")
    [out] = run_program_text(text, refute=True)
    assert out.status == "NOT_EQUIVALENT" and out.witness is not None


def test_a_whole_shared_sum_pairs_each_term_with_itself():
    [out] = run_program_text(_RS + "verify (R UNION ALL R) (R UNION ALL R);\n")
    assert out.status == "EQUIVALENT" and out.steps["canonize"] == 0
    assert out.trace.render() == "BIJECTION {}\nBIJECTION {}\nPERMUTATION [0, 1]\n"


def test_a_shared_branch_cancels_and_the_other_is_matched():
    # the filtered scans cancel; the projections keep their scans'
    # variables, so they are canonized, at their places in what is left,
    # and matched by a bijection.  The shared pair follows them in the
    # permutation
    [out] = run_program_text(_SHARED_AND_PROJECTION)
    assert out.status == "EQUIVALENT"
    rules = [e.path for e in out.trace.events if e.kind == "rule"]
    assert rules and set(rules) == {"L/t0", "R/t0"}
    [perm] = [e.payload["perm"] for e in out.trace.events if e.kind == "permutation"]
    assert perm == [0, 1]
    maps = [e.payload["map"] for e in out.trace.events if e.kind == "bijection"]
    assert len(maps) == 2 and maps[0] and not maps[1]


def test_a_negation_slot_equal_after_renaming_cancels(monkeypatch):
    # the renamed right slot equals the left one, so its terms cancel and
    # the slots' sums reach canonize empty
    sums = []
    real = constraints.Canonizer.canonize

    def canonize(self, e, loc="e", *args, **kw):
        sums.append((loc, len(e.terms)))
        return real(self, e, loc, *args, **kw)

    monkeypatch.setattr(constraints.Canonizer, "canonize", canonize)
    [out] = run_program_text(_EQUAL_NEGATION)
    assert out.status == "EQUIVALENT"
    assert ("Ln", 0) in sums and ("Rn", 0) in sums
    assert all(n == 0 for loc, n in sums if loc in ("Ln", "Rn"))
    assert not any(e.path.startswith(("Ln", "Rn")) for e in out.trace.events)
    assert "BIJECTION {}\nPERMUTATION [0]\n" in out.trace.render()


@pytest.mark.parametrize("text", [
    _RS + "verify (R UNION ALL R) (R UNION ALL R);\n",
    _SHARED_AND_PROJECTION, _EQUAL_NEGATION,
], ids=["whole", "branch", "negation"])
def test_pairs_equal_by_cancellation_have_no_witness(text):
    prog = parse(text)
    [stmt] = prog.verifies()
    assert find_witness(stmt.lhs, stmt.rhs, build_env(prog)) is None


# -- lifetime -------------------------------------------------------------------

def test_deciders_are_freed_without_the_cycle_collector(monkeypatch):
    made = []
    real_init = Decider.__init__

    def recording(self, *args, **kw):
        made.append(weakref.ref(self))
        real_init(self, *args, **kw)

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        d = Decider(SchemaEnv(), VarGen())
        ref = weakref.ref(d)
        del d
        assert ref() is None
        # a whole verify's decider, after its permutation and bijection
        # searches
        monkeypatch.setattr(Decider, "__init__", recording)
        from semiq.pipeline import run_program_text
        [out] = run_program_text(FIG_INDEX)
        assert out.status == "EQUIVALENT"
        assert len(made) == 1 and made[0]() is None
    finally:
        if was_enabled:
            gc.enable()


def test_canonizes_closure_gives_the_facts_of_a_fresh_closure(monkeypatch):
    # the search reads each canonized term's facts off the closure of
    # canonize's final round, which canonize's own queries have already
    # extended; they are the facts of `closure_of(t.preds)`
    checked = []
    real = constraints.Canonizer.canonize_term

    def canonize_term(self, t, *args, **kw):
        out = real(self, t, *args, **kw)
        entry = self.closures.get(id(out))
        if entry is not None:
            got = decide._TermFacts(out, {}, entry[1])
            want = decide._TermFacts(out, {})
            assert (got.consts, got.sig, got.colour, got.by_colour) == \
                (want.consts, want.sig, want.colour, want.by_colour)
            assert [got.links.unary(v) for v in out.sum_vars] == \
                [want.links.unary(v) for v in out.sum_vars]
            checked.append(out)
        return out

    monkeypatch.setattr(constraints.Canonizer, "canonize_term", canonize_term)
    texts = [p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.cos"))]
    texts += [inst.text for name in sorted(workloads.WORKLOADS)
              for inst in workloads.build(name, 1, ROOT)]
    for text in texts:
        run_program_text(text)
    assert len(checked) > len(texts)
