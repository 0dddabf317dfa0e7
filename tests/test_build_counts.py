"""Build counts that repeat exactly: each matched term's closure data is
built once per verify, each canonize round builds one closure, each
canonized term is saturated once, the number of canonize rounds does not
grow with nesting depth or index probes, a key collapse replaces the
scans it drops in its own round, the term search fully checks only pairs
whose free constants agree, and the variable search checks no leaf that
colours or placed predicates rule out and places first a variable that a
predicate mentions alone, no canonize round of a nested projection holds
more predicates than a few per level, the denotation types each nested
derived table once, the containment search under DISTINCT places unlinked
scans apart, and the term search pairs tied terms by their constants and
never backtracks over pairings, the factors of a wide product are keyed
once each, the closure work of a wide union under EXISTS grows linearly
in its branches, a wide union renames no branch body, builds no equality
links for its summation-free terms and adds its branch bodies in one
call, the set comparison canonizes none of the slots it is given and its
homomorphism search builds no equality links, and neither a key collapse
into one class nor a one-level chase under DISTINCT takes more canonize
rounds as it widens.  A refutation sweep draws only the tables its pair
reads, however many more the program declares.  A summation-free term that both sides share cancels
before canonization and has no closure, facts or predicate question;
terms that keep a summation variable are not shared, even when they are
equal up to renaming it, so each side builds its own.  They guard the
asymptotics without timing anything; each bound from above comes with a
check that the count is not zero, unless zero is the claim."""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

from semiq import (build_env, congruence, constraints, decide, parse, pipeline,
                   run_program_text, spnf, translate)
from semiq.config import Limits
from semiq.exprs import AttrRef, Const, Mul, Pred, Sum, TupleVar, VarGen, mk_eq
from semiq.schema import Schema

from helpers import index_join_back_program, nested_projection_program

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
_spec = importlib.util.spec_from_file_location(
    "scaling", Path(__file__).resolve().parent.parent / "scripts" / "scaling.py")
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)

PRELUDE = "schema s(a:int, b:int);\ntable R(s);\n"

# twelve branches with one term signature; the right side lists them in
# reverse under other aliases, so a term search would try every unused
# left term against each right term before its partner.  Every branch is
# a summation-free scan that both sides share, so all of them cancel
BRANCH_PREDS = (
    "x.a = 17", "x.b = 42", "x.a = x.b AND x.b = 5", "x.a = 88",
    "x.b = 3", "x.a = x.b AND x.b = 61", "x.a = 29", "x.b = 70",
    "x.a = x.b AND x.b = 14", "x.a = 93", "x.b = 36", "x.a = x.b AND x.b = 50",
)


def _union(alias: str, preds, item: str = "*") -> str:
    return " UNION ALL ".join(
        f"(SELECT {item.format(x=f'{alias}{i}')} FROM R {alias}{i} "
        f"WHERE {p.replace('x.', f'{alias}{i}.')})" for i, p in enumerate(preds))


WIDE_UNION = (PRELUDE + f"verify ({_union('l', BRANCH_PREDS)})\n"
              f"       ({_union('r', BRANCH_PREDS[::-1])});\n")


def test_wide_union_builds_equality_links_once_per_term(monkeypatch):
    # each branch projects, so it keeps its scan's summation variable and
    # does not cancel: every term is searched, and its links built once
    built = []
    real = decide._EqualityLinks

    def counting(t, *args):
        built.append(t)
        return real(t, *args)

    monkeypatch.setattr(decide, "_EqualityLinks", counting)
    item = "{x}.a AS o"
    [out] = run_program_text(PRELUDE + f"verify ({_union('l', BRANCH_PREDS, item)})\n"
                             f"       ({_union('r', BRANCH_PREDS[::-1], item)});\n")
    assert out.status == "EQUIVALENT"
    distinct = {id(t) for t in built}
    assert 0 < len(distinct) == len(built) <= 2 * len(BRANCH_PREDS)


def test_wide_union_builds_one_closure_per_term(monkeypatch):
    # the search asks every predicate question of each term's own closure,
    # and that closure is the one canonize built in its final round: no
    # closure is built twice per term, or built or copied per checked pair.
    # Each branch is a summation-free scan that both sides share, so it
    # cancels before canonization and builds neither closure nor facts
    n = 64
    built, asked = [], set()
    real_closure, real_implies = decide.closure_of, decide.implies_atom
    real_facts = decide._TermFacts

    def closure_of(preds):
        built.append(real_closure(preds))
        return built[-1]

    def implies_atom(c, *args):
        asked.add(id(c))
        return real_implies(c, *args)

    terms = []

    def facts(t, *args):
        terms.append(t)
        return real_facts(t, *args)

    for module in (congruence, constraints, decide):
        monkeypatch.setattr(module, "closure_of", closure_of)
    monkeypatch.setattr(decide, "implies_atom", implies_atom)
    monkeypatch.setattr(decide, "_TermFacts", facts)
    [out] = run_program_text(workloads.wide_union(random.Random(1), n).text)
    assert out.status == "EQUIVALENT"
    assert len(built) == len(terms) == 0
    assert not asked


def test_projection_branches_keep_one_closure_per_side(monkeypatch):
    # each projection branch keeps its scan's summation variable, and the
    # two sides bind distinct variables, so no term is shared: both sides
    # build their own closure per branch and the search asks its predicate
    # questions of those closures.  Sharing terms equal up to renaming
    # their summation variables would halve the count
    n = 24
    built, asked, terms = [], set(), set()
    real_closure, real_implies = decide.closure_of, decide.implies_atom
    real_facts = decide._TermFacts

    def closure_of(preds):
        built.append(real_closure(preds))
        return built[-1]

    def facts(t, *args):
        terms.add(id(t))
        return real_facts(t, *args)

    for module in (congruence, constraints, decide):
        monkeypatch.setattr(module, "closure_of", closure_of)
    monkeypatch.setattr(decide, "implies_atom",
                        lambda c, *args: asked.add(id(c)) or real_implies(c, *args))
    monkeypatch.setattr(decide, "_TermFacts", facts)
    [out] = run_program_text(scaling.union_all(n))
    assert out.status == "EQUIVALENT"
    assert len(built) == len(terms) == 2 * n
    assert asked and asked <= {id(c) for c in built}


def _saturation_equal_branches(n: int) -> str:
    # branch i filters `x.a = x.b AND x.b = i` on the left and
    # `x.a = i AND x.b = i` on the right: the summation-free terms differ
    # as written, so they do not cancel, and are equal once saturated
    def side(alias: str, pred: str, order) -> str:
        return " UNION ALL ".join(
            f"(SELECT * FROM R {alias}{i} WHERE "
            + pred.format(x=f"{alias}{i}", c=i) + ")" for i in order)

    return (PRELUDE + f"verify ({side('l', '{x}.a = {x}.b AND {x}.b = {c}', range(n))})\n"
            f"       ({side('r', '{x}.a = {c} AND {x}.b = {c}', reversed(range(n)))});\n")


def test_a_wide_union_renames_no_branch_and_keys_no_summation_free_term(monkeypatch):
    # every branch has the left operand's output schema, so it is denoted
    # over that output variable and no body is renamed; the search builds
    # equality links only for the terms whose variables it places, and a
    # summation-free term has none, though it reaches `match_terms`
    renames, links, matched = [], [], []
    real_sub, real_links = translate.substitute, decide._EqualityLinks
    real_match = decide.Decider.match_terms

    def match_terms(self, t1, t2):
        matched.append(not (t1.sum_vars or t2.sum_vars))
        return real_match(self, t1, t2)

    monkeypatch.setattr(translate, "substitute",
                        lambda *args: renames.append(args) or real_sub(*args))
    monkeypatch.setattr(decide, "_EqualityLinks",
                        lambda t, closure: links.append(t) or real_links(t, closure))
    monkeypatch.setattr(decide.Decider, "match_terms", match_terms)
    for n in (12, 24):
        prog = parse(_saturation_equal_branches(n))
        env = build_env(prog)
        [stmt] = prog.verifies()
        p = pipeline.prepare_verify(stmt, "v", env)
        assert renames == []
        matched.clear()
        assert pipeline.decide_verify(p, env).status == "EQUIVALENT"
        # one match per branch, each of two summation-free terms
        assert matched == [True] * n
        assert [t for t in links if not t.sum_vars] == []


def test_set_comparison_canonizes_no_slot_and_links_no_mapped_term(monkeypatch):
    # the squash slots the term search compares are canonical as they
    # stand, so with no squash nested in them `squash_equal` canonizes
    # nothing; the homomorphism search reads no equality links, so none
    # is built while it runs, though it builds the facts it does read
    inside, counts = set(), Counter()

    def within(name, real):
        def wrapper(self, *args, **kw):
            inside.add(name)
            counts[name] += 1
            try:
                return real(self, *args, **kw)
            finally:
                inside.discard(name)
        return wrapper

    def counted(name, real):
        def wrapper(*args, **kw):
            for outer in set(inside):
                counts[outer, name] += 1
            return real(*args, **kw)
        return wrapper

    monkeypatch.setattr(decide.Decider, "squash_equal",
                        within("squash_equal", decide.Decider.squash_equal))
    monkeypatch.setattr(decide.Decider, "maps_into",
                        within("maps_into", decide.Decider.maps_into))
    monkeypatch.setattr(constraints.Canonizer, "canonize_term",
                        counted("canonize", constraints.Canonizer.canonize_term))
    monkeypatch.setattr(decide, "_EqualityLinks", counted("links", decide._EqualityLinks))
    monkeypatch.setattr(decide, "_TermFacts", counted("facts", decide._TermFacts))
    rng = random.Random(1)
    for shape in workloads.UCQ_SHAPES:
        [out] = run_program_text(workloads.ucq_pair(rng, shape, distinct=True).text)
        assert out.status == "EQUIVALENT"
    assert counts["squash_equal"] > 0 and counts["maps_into"] > 0
    assert counts["maps_into", "facts"] > 0
    assert counts["squash_equal", "canonize"] == 0
    assert counts["maps_into", "links"] == 0


def test_a_wide_union_is_summed_once_per_side(monkeypatch):
    # the branch bodies are collected and added once: adding them one at a
    # time would copy the terms gathered so far at every branch
    calls = []
    real = translate.add
    monkeypatch.setattr(translate, "add", lambda *es: calls.append(len(es)) or real(*es))
    prog = parse(scaling.union_all(1200))
    [stmt] = prog.verifies()
    pipeline.prepare_verify(stmt, "v", build_env(prog))
    assert calls == [1200, 1200]


def test_union_exists_closure_work_grows_linearly(monkeypatch):
    # canonize asks the closure of the EXISTS term one question per
    # attribute and candidate variable, and each interns a node; a close
    # that rescans every node makes that quadratic in the branches
    calls = [0]
    real = congruence.Closure.find

    def find(self, x):
        calls[0] += 1
        return real(self, x)

    monkeypatch.setattr(congruence.Closure, "find", find)
    counts = []
    for n in (200, 400):
        calls[0] = 0
        [out] = run_program_text(scaling.program("union_exists", n, 1))
        assert out.status == "EQUIVALENT"
        counts.append(calls[0])
    assert 0 < counts[1] <= 2.3 * counts[0]


def _count_term_checks(monkeypatch) -> list:
    """The argument tuples of every `Decider._term_check` call to come."""
    checked = []
    real = decide.Decider._term_check

    def counting(self, *args):
        checked.append(args)
        return real(self, *args)

    monkeypatch.setattr(decide.Decider, "_term_check", counting)
    return checked


def test_wide_union_checks_one_term_pair_per_branch(monkeypatch):
    # every branch is a filtered scan that both sides share, so each pairs
    # with its partner by cancellation and no pair reaches the leaf check
    checked = _count_term_checks(monkeypatch)
    [out] = run_program_text(WIDE_UNION)
    assert out.status == "EQUIVALENT"
    assert checked == []
    # one BIJECTION line per branch and one PERMUTATION line
    assert sum(e.kind in ("bijection", "permutation")
               for e in out.trace.events) == len(BRANCH_PREDS) + 1


def _self_join(alias: str, n: int, plus: int) -> str:
    return (f"SELECT {alias}0.a + {plus} AS o FROM "
            + ", ".join(f"R {alias}{i}" for i in range(n)))


def _join_chain(alias: str, n: int, sources) -> str:
    """The path x0.b = x1.a, ..., with its sources listed in the given
    order and its conditions in reverse, flipped."""
    conds = " AND ".join(f"{alias}{i + 1}.a = {alias}{i}.b"
                         for i in reversed(range(n - 1)))
    return (f"SELECT {alias}0.a AS o FROM "
            + ", ".join(f"R {alias}{i}" for i in sources) + f" WHERE {conds}")


def test_symmetric_self_join_is_refuted_before_any_leaf(monkeypatch):
    # `+` is uninterpreted, so no bijection of the eight interchangeable
    # scans matches; placing the projected scan already fails, where a
    # leaf-only search checks all 8! bijections
    checked = _count_term_checks(monkeypatch)
    [out] = run_program_text(PRELUDE + f"verify ({_self_join('x', 8, 1)})\n"
                             f"       ({_self_join('y', 8, 2)});\n")
    assert out.status == "NOT_PROVED" and out.steps["search"] > 0
    assert checked == []


def test_a_scan_that_a_predicate_mentions_alone_is_placed_first():
    # the projected right scan is the last binder, and its one predicate
    # fails on every left scan: placed first, it fails at once, where
    # placed last every placement of the other scans is tried before it
    steps = []
    for n in (6, 12):
        [out] = run_program_text(scaling.self_join_offset(n))
        assert out.status == "NOT_PROVED"
        steps.append(out.steps["search"])
    assert 0 < steps[1] <= steps[0]


def _distinct_self_join(n: int) -> str:
    scans = ", ".join(f"R s{i}" for i in range(n))
    return (PRELUDE + f"verify (SELECT DISTINCT s0.a + 1 AS o FROM {scans})\n"
            f"       (SELECT DISTINCT s{n - 1}.a + 2 AS o FROM {scans});\n")


def test_distinct_self_join_places_unlinked_scans_apart():
    # no predicate links the scans, so each is placed on its own and the
    # one that fails is tried against each target once; placed together,
    # every placement of the others would be tried before it (n^(n-1))
    steps = [run_program_text(_distinct_self_join(n))[0].steps["total"]
             for n in (4, 8)]
    assert 0 < steps[1] <= 2 * steps[0]


def test_join_chain_search_is_forced_by_colours(monkeypatch):
    # the chain's ends differ, and colour refinement spreads that along
    # the chain: each variable has one candidate and one leaf is checked
    n = 24
    checked = _count_term_checks(monkeypatch)
    sources = [(7 * i) % n for i in range(n)]
    [out] = run_program_text(
        PRELUDE + f"verify ({_join_chain('x', n, range(n))})\n"
        f"       ({_join_chain('y', n, sources)});\n")
    assert out.status == "EQUIVALENT"
    assert len(checked) == 1
    assert 0 < out.steps["total"] < 1000


def _canonize_rounds(monkeypatch, program: str, sizes: list | None = None) -> int:
    """Canonize rounds of one verify, checking that each round builds one
    closure and takes one canonize step, and that each canonized term is
    saturated once.  ``sizes`` gets the length of the predicate list that
    each round's passes see, and of each saturated term."""
    calls: Counter = Counter()

    def counting(owner, name, size=None):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if sizes is not None and size is not None:
                sizes.append(len(size(args, out).preds))
            return out
        monkeypatch.setattr(owner, name, wrapper)

    counting(constraints, "closure_of")
    counting(constraints.Canonizer, "canonize_term")
    counting(constraints.Canonizer, "saturate", lambda args, out: out)
    # the first pass of every round
    counting(constraints.Canonizer, "try_eliminate", lambda args, out: args[1])
    [out] = run_program_text(program)
    assert out.status == "EQUIVALENT"
    assert calls["closure_of"] == out.steps["canonize"]
    # only the fixpoint's chains are returned, so only they are written
    assert calls["saturate"] == calls["canonize_term"]
    monkeypatch.undo()
    assert calls["saturate"] > 0
    return calls["closure_of"]


def test_nested_projection_builds_one_closure_per_canonize_round(monkeypatch):
    # each round eliminates every summation variable it can, so the
    # number of rounds does not grow with the nesting depth
    assert _canonize_rounds(monkeypatch, nested_projection_program(8)) == \
        _canonize_rounds(monkeypatch, nested_projection_program(40))


def test_index_join_back_rounds_do_not_grow_with_probes(monkeypatch):
    # each round eliminates every summation variable it can, or
    # collapses every key-equal pair of atoms, at once
    assert _canonize_rounds(monkeypatch, index_join_back_program(3)) == \
        _canonize_rounds(monkeypatch, index_join_back_program(6))


def test_a_key_collapse_substitutes_and_writes_no_attribute_chain(monkeypatch):
    # k probes joined back on the key take four rounds: coverage, the
    # output variable, the collapse of every probe into the base scan with
    # each probe's variable replaced in that round, and the fixpoint.
    # Equating each probe to the base instead took a fifth round, whose
    # saturated term chained every attribute of every scan, (k + 1)^2
    # equalities, before it eliminated the probes
    largest = []
    for k in (6, 12):
        sizes = []
        assert _canonize_rounds(monkeypatch, scaling.program(
            "index_join_back", k, 1), sizes) == 4
        largest.append(max(sizes))
    assert 0 < largest[1] <= 2.3 * largest[0], largest


def _canonize_steps(text: str) -> int:
    [out] = run_program_text(text)
    assert out.status == "EQUIVALENT" and out.steps["canonize"] > 0
    return out.steps["canonize"]


def test_a_key_collapse_class_takes_constant_canonize_rounds():
    # the key collapse puts every scan in one tuple class; its least
    # variable survives and replaces all the others in one round
    assert _canonize_steps(scaling.keyed_collapse(8)) == \
        _canonize_steps(scaling.keyed_collapse(16))


def test_a_one_level_chase_takes_constant_canonize_rounds():
    # every B scan under DISTINCT needs one level of the chase, and all of
    # them expand in one round, within the default chase depth
    assert _canonize_steps(scaling.distinct_fk(4)) == \
        _canonize_steps(scaling.distinct_fk(8))
    for n in (4, 5):
        [out] = run_program_text(scaling.distinct_fk(n))
        assert (out.status, out.detail) == ("EQUIVALENT", "")


def test_agreement_on_attributes_interns_linearly_in_from_width(monkeypatch):
    # the coverage scan, the key collapse and the foreign-key absorption
    # look up each variable's attribute classes once; comparing every pair
    # of variables attribute by attribute interns nodes quadratically
    calls = [0]
    real = congruence.Closure.add_scalar

    def add_scalar(self, s):
        calls[0] += 1
        return real(self, s)

    monkeypatch.setattr(congruence.Closure, "add_scalar", add_scalar)
    for family in (scaling.wide_from, scaling.keyed_collapse, scaling.distinct_fk):
        counts = []
        for n in (50, 100):
            calls[0] = 0
            [out] = run_program_text(family(n))
            assert out.status == "EQUIVALENT"
            counts.append(calls[0])
        assert 0 < counts[1] <= 2.3 * counts[0], (family.__name__, counts)


def test_nested_projection_rounds_stay_linear_in_depth(monkeypatch):
    # neither a round's passes nor a saturated term see more than a few
    # predicates per level of nesting: a round keeps the term as the last
    # pass left it, and saturate writes k - 1 equalities per class of k
    # members; all pairs per class would make them quadratic in the depth
    depth = 40
    sizes = []
    _canonize_rounds(monkeypatch, nested_projection_program(depth), sizes)
    assert 0 < max(sizes, default=0) <= 4 * depth


def test_nested_projection_infers_each_schema_a_bounded_number_of_times(monkeypatch):
    # the denotation takes each derived table's schema from the variables
    # it has just denoted, one concat per output column; typing a derived
    # table by denoting it again would re-type the whole subtree at every
    # level and make the count quadratic in the depth
    depth = 40
    calls = []
    real = Schema.concat

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Schema, "concat", counting)
    [out] = run_program_text(nested_projection_program(depth))
    assert out.status == "EQUIVALENT"
    assert 0 < len(calls) <= 4 * depth


def test_canonize_reads_each_class_minimum_without_resorting(monkeypatch):
    # each class is sorted once per closure state; taking a per-variable
    # minimum over the whole class instead grows quadratically in the depth
    from semiq import congruence, exprs
    real_key = exprs.scalar_sort_key
    real_canonize = constraints.Canonizer.canonize
    calls = [0]
    depth = [0]

    def counting_key(s):
        calls[0] += depth[0] > 0
        return real_key(s)

    def canonize(self, *args, **kw):
        depth[0] += 1
        try:
            return real_canonize(self, *args, **kw)
        finally:
            depth[0] -= 1

    for mod in (exprs, congruence, constraints):
        if hasattr(mod, "scalar_sort_key"):
            monkeypatch.setattr(mod, "scalar_sort_key", counting_key)
    monkeypatch.setattr(constraints.Canonizer, "canonize", canonize)
    counts = []
    for d in (40, 80):
        calls[0] = 0
        [out] = run_program_text(nested_projection_program(d))
        assert out.status == "EQUIVALENT"
        counts.append(calls[0])
    assert 0 < counts[1] <= 2.2 * counts[0]


def _constant_branches(n: int) -> str:
    def side(alias: str, order) -> str:
        return " UNION ALL ".join(
            f"(SELECT {alias}{i}.a AS o FROM R {alias}{i} WHERE {alias}{i}.a = {i})"
            for i in order)

    return (PRELUDE + f"verify ({side('x', range(n))})\n"
            f"       ({side('y', reversed(range(n)))});\n")


def test_tied_terms_are_paired_by_their_constants():
    # every branch has the one term signature and its own constant; each
    # right term is tried only on the left terms with its constants, so
    # the search is linear in the branches, not n(n+1)/2 term matches
    steps = []
    for n in (200, 400):
        [out] = run_program_text(_constant_branches(n))
        assert out.status == "EQUIVALENT"
        steps.append(out.steps["search"])
    assert 0 < steps[1] <= 2.1 * steps[0]


def test_a_term_that_pairs_with_no_tied_term_fails_at_once():
    # every branch ties on signature and constants, and the last right
    # branch matches no left one: the search stops at that branch instead
    # of retrying the other branches' pairings, which is factorial
    [out] = run_program_text(scaling.union_all_miss(9), refute=True,
                             limits=Limits(max_steps=20_000))
    assert out.status == "NOT_EQUIVALENT" and out.witness is not None
    steps = []
    for n in (8, 24):
        [out] = run_program_text(scaling.union_all_miss(n))
        assert out.status == "NOT_EQUIVALENT"
        steps.append(out.steps["search"])
    assert 0 < steps[1] <= 4 * steps[0]


def test_a_wide_product_keys_each_factor_once(monkeypatch):
    # factor i arrives last and belongs first: the normalizer appends it
    # without keying it, and the term structure sorts the factors once
    from semiq import axioms, exprs
    calls = [0]
    real = exprs.canon_key

    def counting(e):
        calls[0] += 1
        return real(e)

    for mod in (exprs, axioms, spnf, constraints, decide):
        if hasattr(mod, "canon_key"):
            monkeypatch.setattr(mod, "canon_key", counting)
    t = TupleVar(1, Schema("s", (("a", "int"), ("b", "int"))))
    n = 5000
    factors = sorted((Pred(mk_eq(AttrRef(t, "a"), Const(i, "int")))
                      for i in range(n)), key=real, reverse=True)
    [term] = spnf.to_spnf(Sum((t,), Mul(tuple(factors))), VarGen(10)).terms
    assert list(term.preds) == [f.atom for f in reversed(factors)]
    assert 0 < calls[0] <= n


def test_a_refutation_sweep_draws_only_the_tables_its_pair_reads(monkeypatch):
    # refute_unread's pair reads R alone: with 0 and with 16 more tables
    # declared, the generator is given R alone, and all 200 databases of
    # the sweep hold R alone; both sweeps draw one stream, so the second
    # starts from an empty cache to reach the generator
    gen = pipeline.gen_instances
    for unread in (0, 16):
        pipeline.SWEEPS.clear()
        envs, dbs = [], []
        monkeypatch.setattr(pipeline, "gen_instances", lambda env, *a, **k: envs.append(env) or (
            dbs.append(db) or db for db in gen(env, *a, **k)))
        text = scaling.refute_sweep(2, unread=unread)
        assert text.count("table ") == 1 + unread
        [out] = run_program_text(text, refute=True)
        assert out.status == "NOT_PROVED" and out.witness is None
        assert [list(env.tables) for env in envs] == [["R"]]
        assert len(dbs) == 200 and all(list(db.rels) == ["R"] for db in dbs)
