"""End-to-end behaviors across feature combinations."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from semiq import build_env, desugar_groupby, inline_views, parse, run_program_text
from semiq.oracle import GenSizes, gen_instances, interp_query
from semiq.pipeline import (classify_fragment, decide_verify, find_witness,
                            prepare_verify, query_reads)
from semiq.exprs import VarGen
from semiq.sqlast import ExceptQ, Select, TableRef, UnionAll, walk
from semiq.translate import denote

from conftest import parse_query
from helpers import union_subquery_program

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _statuses(text):
    return [(o.status, o.fragment) for o in run_program_text(text)]


PRELUDE = """
schema s(a:int, b:int);
schema w(a:int, c:int);
table R(s);
table S(w);
"""


def test_correlated_exists_alpha_variant():
    out = _statuses(PRELUDE + """
        verify (SELECT * FROM R x WHERE EXISTS (SELECT y.c AS c FROM S y WHERE y.a = x.a))
               (SELECT * FROM R u WHERE EXISTS (SELECT w2.c AS c FROM S w2 WHERE w2.a = u.a));
    """)
    assert out == [("EQUIVALENT", "general")]


def test_not_exists_commuted_predicate():
    out = _statuses(PRELUDE + """
        verify (SELECT * FROM R x WHERE NOT EXISTS (SELECT y.c AS c FROM S y WHERE y.a = x.b))
               (SELECT * FROM R u WHERE NOT EXISTS (SELECT z.c AS c FROM S z WHERE u.b = z.a));
    """)
    assert out == [("EQUIVALENT", "general")]


def test_except_pair_and_view_expansion():
    out = _statuses(PRELUDE + """
        view V SELECT x.a AS a, x.b AS b FROM R x WHERE x.a = 0;
        verify ((SELECT x.a AS a FROM R x) EXCEPT (SELECT y.a AS a FROM S y))
               ((SELECT u.a AS a FROM R u) EXCEPT (SELECT w2.a AS a FROM S w2));
        verify V (SELECT x.a AS a, x.b AS b FROM R x WHERE x.a = 0);
    """)
    assert out == [("EQUIVALENT", "general"), ("EQUIVALENT", "ucq-bag")]


def test_exists_vs_join_not_conflated():
    # a semijoin changes multiplicities; the verifier must not prove it
    out = _statuses(PRELUDE + """
        verify (SELECT x.a AS a FROM R x WHERE EXISTS (SELECT y.c AS c FROM S y WHERE y.a = x.a))
               (SELECT x.a AS a FROM R x, S y WHERE y.a = x.a);
    """)
    assert out[0][0] == "NOT_PROVED"


def test_distinct_of_distinct_collapses():
    out = _statuses(PRELUDE + """
        verify (SELECT DISTINCT z.a AS a FROM (SELECT DISTINCT x.a AS a FROM R x) z)
               (SELECT DISTINCT x.a AS a FROM R x);
    """)
    assert out == [("EQUIVALENT", "general")]


def test_join_commutes_and_filters_reorder():
    out = _statuses(PRELUDE + """
        verify (SELECT x.a AS o, y.c AS p FROM R x, S y WHERE x.a = y.a AND x.b = 1)
               (SELECT x.a AS o, y.c AS p FROM S y, R x WHERE x.b = 1 AND y.a = x.a);
    """)
    assert out == [("EQUIVALENT", "ucq-bag")]


def test_true_filter_is_dropped():
    out = _statuses(PRELUDE + """
        verify (SELECT x.a AS a FROM R x WHERE TRUE AND x.a = 1)
               (SELECT x.a AS a FROM R x WHERE x.a = 1);
    """)
    assert out == [("EQUIVALENT", "ucq-bag")]


def test_groupby_pair_proves_despite_uninterpreted_aggregate():
    out = _statuses(PRELUDE + """
        verify (SELECT x.a AS k, cnt(x.b) AS n FROM R x GROUP BY x.a)
               (SELECT y.a AS k, cnt(y.b) AS n FROM R y GROUP BY y.a);
    """)
    assert out == [("EQUIVALENT", "general")]


def test_fk_join_introduction():
    # scanning the source table equals joining it with its foreign-key
    # target: the chase introduces the target and the key collapses it
    out = _statuses("""
        schema sr(k:int, a:int);
        schema ss(j:int, f:int);
        table R(sr);
        table S(ss);
        key R(k);
        foreign key S(f) references R(k);
        verify (SELECT x.j AS j FROM S x)
               (SELECT x.j AS j FROM S x, R y WHERE x.f = y.k);
    """)
    assert out == [("EQUIVALENT", "general")]


def test_fk_chase_is_canonical_on_source_self_joins():
    # regression: the chase must expand every source atom, or which copy
    # carries the introduced relation would depend on variable numbering
    out = _statuses("""
        schema s(a:int, b:int);
        schema w(a:int, b:int);
        table R(s);
        table S(w);
        key R(a);
        foreign key S(b) references R(a);
        verify (SELECT x0.a AS o FROM S x0, S x1)
               (SELECT y1.a AS o FROM S y0, S y1);
        verify (SELECT x0.a AS o FROM S x0, S x1 WHERE x0.a = x1.b)
               (SELECT u1.a AS o FROM S u0, S u1 WHERE u1.a = u0.b);
    """)
    assert out == [("EQUIVALENT", "general"), ("EQUIVALENT", "general")]


def test_fk_join_elimination_under_distinct():
    # the join's R atom already covers S's foreign key, so only the scan
    # side expands, and the trace holds no collapse that was not applied
    [out] = run_program_text("""
        schema sr(k:int, a:int);
        schema ss(j:int, f:int);
        table R(sr);
        table S(ss);
        key R(k);
        foreign key S(f) references R(k);
        verify (SELECT DISTINCT x.j AS j FROM S x)
               (SELECT DISTINCT x.j AS j FROM S x, R y WHERE x.f = y.k);
    """)
    rules = out.trace.rule_names()
    assert (out.status, out.fragment) == ("EQUIVALENT", "general")
    assert (rules.count("fk-expand"), rules.count("key-collapse")) == (1, 0)


def test_cyclic_fks_under_distinct_chase_at_linear_cost():
    # each side's squash chases A -> B -> A ... to the ceiling; an atom the
    # term already covers is not expanded, so no step probes a candidate
    [out] = run_program_text("""
        schema sa(x:int, y:int);
        schema sb(u:int, w:int);
        table A(sa);
        table B(sb);
        key A(x);
        key B(u);
        foreign key A(y) references B(u);
        foreign key B(w) references A(x);
        verify (SELECT DISTINCT a.x AS o FROM A a)
               (SELECT DISTINCT a.x AS o FROM A a, B b WHERE a.y = b.u);
    """)
    assert (out.status, out.detail) == ("NOT_PROVED", "chase depth ceiling reached")
    assert out.steps["total"] < 1_000


def test_composite_key_collapse_needs_all_attributes():
    out = _statuses("""
        schema s(k1:int, k2:int, v:int);
        table R(s);
        key R(k1, k2);
        verify (SELECT x.v AS v FROM R x, R y WHERE x.k1 = y.k1 AND x.k2 = y.k2)
               (SELECT x.v AS v FROM R x);
        verify (SELECT x.v AS v FROM R x, R y WHERE x.k1 = y.k1)
               (SELECT x.v AS v FROM R x);
    """)
    assert out[0] == ("EQUIVALENT", "general")
    assert out[1][0] == "NOT_PROVED"


def test_whole_tuple_self_join_squares_multiplicity():
    # regression: the squared atom survives in bag semantics but collapses
    # under DISTINCT
    out = _statuses(PRELUDE + """
        verify (SELECT x.a AS a FROM R x, R y WHERE x.a = y.a AND x.b = y.b)
               (SELECT x.a AS a FROM R x);
        verify (SELECT DISTINCT x.a AS a FROM R x, R y WHERE x.a = y.a AND x.b = y.b)
               (SELECT DISTINCT x.a AS a FROM R x);
    """)
    assert out[0] == ("NOT_EQUIVALENT", "ucq-bag")
    assert out[1] == ("EQUIVALENT", "ucq-set")


def test_mixed_star_and_computed_column():
    out = _statuses(PRELUDE + """
        verify (SELECT *, f(x.a) AS c FROM R x)
               (SELECT x.a AS a, x.b AS b, f(x.a) AS c FROM R x);
    """)
    assert out == [("EQUIVALENT", "general")]


def test_or_commutes_in_bag_semantics():
    out = _statuses(PRELUDE + """
        verify (SELECT * FROM R x WHERE x.a = 1 OR x.b = 2)
               (SELECT * FROM R x WHERE x.b = 2 OR x.a = 1);
    """)
    assert out == [("EQUIVALENT", "general")]


def test_subquery_star_passthrough():
    out = _statuses(PRELUDE + """
        verify (SELECT z.* FROM (SELECT x.a AS a FROM R x) z)
               (SELECT x.a AS a FROM R x);
    """)
    assert out == [("EQUIVALENT", "general")]


# a filter on a column of a derived table's alias star; with generic
# schemas the column is reached through the slice z|{a,??s1}
SLICE_FILTER = """
schema s1(a:int, {r1}); schema s2(b:int, {r2}); table R(s1); table S(s2);
verify (SELECT z.* FROM (SELECT x.*, y.* FROM R x, S y) z WHERE z.a = 1)
       (SELECT x.*, y.* FROM R x, S y WHERE x.a = 1);
verify (SELECT z.* FROM (SELECT x.*, y.* FROM R x, S y) z WHERE z.a = 2)
       (SELECT x.*, y.* FROM R x, S y WHERE x.a = 1);
"""


def test_filter_through_generic_slice_projects_the_column():
    out = [o.status for o in run_program_text(SLICE_FILTER.format(r1="??", r2="??"))]
    assert out[0] == "EQUIVALENT"
    assert out[1] != "EQUIVALENT"


def test_filter_through_concrete_alias_star_agrees_with_the_oracle():
    text = SLICE_FILTER.format(r1="c:int", r2="d:int")
    out = [o.status for o in run_program_text(text)]
    assert out[0] == "EQUIVALENT"
    assert out[1] != "EQUIVALENT"
    program = parse(text)
    env = build_env(program)
    same, other = program.verifies()
    agree = [interp_query(v.lhs, db, env) == interp_query(v.rhs, db, env)
             for db in itertools.islice(gen_instances(env, [], GenSizes(), 3), 40)
             for v in (same, other)]
    assert all(agree[0::2])
    assert not all(agree[1::2])


def test_negated_conjunction_commutes_but_no_de_morgan():
    # comparing a negation slot against a squashed disjunction would need
    # the De Morgan identity, which the directed rewrite system does not
    # apply; the verdict must stay on the sound side
    out = _statuses(PRELUDE + """
        verify (SELECT * FROM R x WHERE NOT (x.a = 1 AND x.b = 2))
               (SELECT * FROM R x WHERE NOT (x.b = 2 AND x.a = 1));
        verify (SELECT * FROM R x WHERE NOT (x.a = 1 AND x.b = 2))
               (SELECT * FROM R x WHERE NOT x.a = 1 OR NOT x.b = 2);
    """)
    assert out[0] == ("EQUIVALENT", "general")
    assert out[1][0] == "NOT_PROVED"


def test_alias_star_equals_explicit_column_list():
    out = _statuses("""
        schema sr(a:int, b:int);
        schema ss(a2:int, c:int);
        table R(sr);
        table S(ss);
        verify (SELECT x.* FROM R x, S y WHERE x.a = y.a2)
               (SELECT x.a AS a, x.b AS b FROM R x, S y WHERE x.a = y.a2);
    """)
    assert out == [("EQUIVALENT", "ucq-bag")]


def test_nested_exists_chains():
    out = _statuses("""
        schema sr(a:int, b:int);
        schema ss(a2:int, c:int);
        schema st(a3:int, d:int);
        table R(sr);
        table S(ss);
        table T(st);
        verify (SELECT * FROM R x WHERE EXISTS
                  (SELECT * FROM S y WHERE y.a2 = x.a AND EXISTS
                    (SELECT * FROM T z WHERE z.a3 = y.c)))
               (SELECT * FROM R u WHERE EXISTS
                  (SELECT * FROM S w WHERE EXISTS
                    (SELECT * FROM T v WHERE v.a3 = w.c) AND w.a2 = u.a));
    """)
    assert out == [("EQUIVALENT", "general")]


def test_inner_distinct_dissolves_under_outer_distinct():
    out = _statuses("""
        schema sr(a:int, b:int);
        schema ss(a2:int, c:int);
        schema st(a3:int, d:int);
        table R(sr);
        table S(ss);
        table T(st);
        verify (DISTINCT ((SELECT x.a AS o FROM R x) UNION ALL
                 (DISTINCT ((SELECT y.a2 AS o FROM S y) UNION ALL
                            (SELECT z.a3 AS o FROM T z)))))
               (DISTINCT ((SELECT z.a3 AS o FROM T z) UNION ALL
                 ((SELECT y.a2 AS o FROM S y) UNION ALL
                  (SELECT x.a AS o FROM R x))));
    """)
    assert out == [("EQUIVALENT", "general")]


def test_constant_projections():
    out = _statuses(PRELUDE + """
        verify (SELECT 1 AS c FROM R x) (SELECT 1 AS c FROM R y);
        verify (SELECT 1 AS c FROM R x) (SELECT 2 AS c FROM R y);
    """)
    assert out[0] == ("EQUIVALENT", "ucq-bag")
    assert out[1] == ("NOT_EQUIVALENT", "ucq-bag")


def test_program_without_verifies_is_empty_report():
    assert _statuses(PRELUDE) == []


def test_wide_union_all_pair_is_equivalent():
    # 600 levels of UNION ALL: a traversal spending two Python frames per
    # level would overflow the default recursion limit
    body = " UNION ALL ".join(["R"] * 600)
    out = _statuses(PRELUDE + f"verify ({body}) ({body});")
    assert out == [("EQUIVALENT", "ucq-bag")]


def test_classifying_a_long_union_takes_no_frames_per_branch():
    env = build_env(parse(PRELUDE))
    branch = parse_query("SELECT x.a AS a FROM R x")
    body = denote(UnionAll((branch,) * 1200), env, VarGen()).body
    assert classify_fragment(body, body, env) == "ucq-bag"


# R and T share a schema, so they can be branches of one union
FRAGMENTS = PRELUDE + "table T(s);\n"


@pytest.mark.parametrize("lhs, rhs, fragment", [
    ("SELECT x.a AS a, y.c AS c FROM (SELECT * FROM R x0 WHERE x0.b = 1) x, S y "
     "WHERE x.a = y.a",
     "SELECT x.a AS a, y.c AS c FROM (SELECT * FROM R x0 WHERE x0.b = 2) x, S y "
     "WHERE x.a = y.a", "ucq-bag"),
    ("SELECT * FROM (R UNION ALL T) u", "SELECT * FROM (R UNION ALL R) v", "ucq-bag"),
    ("SELECT * FROM (SELECT DISTINCT x.a AS a FROM R x) t",
     "SELECT DISTINCT y.b AS a FROM R y", "ucq-set"),
])
def test_pass_through_derived_tables_are_refuted_in_their_fragment(lhs, rhs, fragment):
    # a derived table or union under `SELECT *` denotes its own body, so
    # the pair is a UCQ pair and a failed search is a definitive verdict
    [out] = run_program_text(FRAGMENTS + f"verify ({lhs}) ({rhs});", refute=True)
    assert (out.status, out.fragment) == ("NOT_EQUIVALENT", fragment)
    assert out.witness is not None


def test_a_union_with_its_branches_swapped_stays_equivalent():
    prog = parse(FRAGMENTS + """
        verify (SELECT * FROM (R UNION ALL T) u) (SELECT * FROM (T UNION ALL R) v);
    """)
    env = build_env(prog)
    [stmt] = prog.verifies()
    p = prepare_verify(stmt, "v", env)
    assert p.fragment == "ucq-bag"
    assert decide_verify(p, env).status == "EQUIVALENT"
    assert find_witness(p.q1, p.q2, env) is None


@pytest.mark.parametrize("decl, lhs, rhs", [
    # a projecting derived table is a summation inside a product
    ("", "SELECT t.a AS a FROM (SELECT x.a AS a FROM R x) t",
     "SELECT y.b AS a FROM R y"),
    ("key R(a);", "SELECT x.a AS a FROM R x", "SELECT y.b AS a FROM R y"),
    # S is not keyed itself, but it is a foreign key's source
    ("key T(a); foreign key S(a) references T(a);", "SELECT y.a AS a FROM S y",
     "SELECT y.c AS a FROM S y"),
])
def test_projected_derived_tables_and_constrained_tables_stay_general(decl, lhs, rhs):
    [out] = run_program_text(FRAGMENTS + decl + f"verify ({lhs}) ({rhs});")
    assert (out.status, out.fragment) == ("NOT_PROVED", "general")


def test_a_changed_nested_projection_stays_general():
    # perfbench expects NOT_PROVED of this truly different pair
    inst = workloads.nested_projection(random.Random(1), 4, change=True)
    [out] = run_program_text(inst.text)
    assert (out.status, out.fragment) == (inst.expect, "general") == ("NOT_PROVED", "general")


@pytest.mark.parametrize("op, fragment", [("AND", "ucq-bag"), ("OR", "general")])
@pytest.mark.parametrize("n", [1200, 2000])
def test_a_wide_predicate_chain_is_equivalent_to_itself(n, op, fragment):
    # one node per chain: no pass spends a Python frame per operand
    q = "SELECT x.a AS a FROM R x WHERE " + f" {op} ".join(
        f"x.a = {i}" for i in range(n))
    assert _statuses(PRELUDE + f"verify ({q}) ({q});") == [("EQUIVALENT", fragment)]


def test_frontend_passes_take_no_frames_per_level():
    env = build_env(parse("""
        schema s(a:int, b:int);
        table R(s);
        view V SELECT x.a AS a FROM R x;
    """))
    q = parse_query("SELECT v.a AS a FROM V v WHERE v.a = 7 GROUP BY v.a",
                    relations=("R", "V"))
    for _ in range(5000):
        q = ExceptQ(q, TableRef("V"))
    desugared = desugar_groupby(q)
    assert not any(type(n) is Select and n.group_by for n in walk(desugared))
    inlined = inline_views(desugared, env)
    assert {n.name for n in walk(q) if type(n) is TableRef} == {"V"}
    assert {n.name for n in walk(inlined) if type(n) is TableRef} == {"R"}
    assert query_reads(env, inlined) == query_reads(env, q) == (
        {"int": {7}, "string": set()}, {"R"})


def test_refute_stops_at_the_verify_budget(monkeypatch):
    # the bag/set pair has a counterexample (any duplicate row), but the
    # verify's budget runs out before refutation starts: no database is
    # interpreted, the verdict stands and the detail says why
    from types import SimpleNamespace
    from semiq import config, pipeline
    search = pipeline.find_witness

    def expire_then_search(*args, **kwargs):
        monkeypatch.setattr(config, "time", SimpleNamespace(monotonic=lambda: float("inf")))
        return search(*args, **kwargs)

    interpreted = []
    monkeypatch.setattr(pipeline, "find_witness", expire_then_search)
    monkeypatch.setattr(pipeline, "interp_query", lambda *args: interpreted.append(args))
    [out] = run_program_text(PRELUDE + """
        verify (SELECT x.a AS a FROM R x) (SELECT DISTINCT x.a AS a FROM R x);
    """, refute=True)
    assert out.status == "NOT_PROVED"
    assert out.witness is None and not interpreted
    assert "refutation stopped" in out.detail


def test_refute_stops_inside_one_evaluation(monkeypatch):
    # the deadline passes after the stream's check before the first
    # database, so only the SELECT loop over the 3-way product of a
    # 40-row table (64,000 rows; the projection reads each scan, so none
    # collapses to its total) can notice it: the verdict stands and no
    # witness is reported, although this database separates the pair
    from types import SimpleNamespace
    from semiq import config, pipeline
    from semiq.oracle import FiniteDb, make_assignment
    rows = {make_assignment({"a": i, "b": j}): 1 for i in range(20) for j in range(2)}
    big = FiniteDb({"int": tuple(range(20)), "bool": (False, True), "string": ("a",)},
                   {"R": rows, "S": {}})
    monkeypatch.setattr(pipeline, "gen_instances", lambda *args, **kwargs: iter([big]))
    interpret = pipeline.interp_query

    def expire_then_interpret(*args):
        monkeypatch.setattr(config, "time", SimpleNamespace(monotonic=lambda: float("inf")))
        return interpret(*args)

    monkeypatch.setattr(pipeline, "interp_query", expire_then_interpret)
    [out] = run_program_text(PRELUDE + """
        verify (SELECT x.a AS a, y.a AS b, z.a AS c FROM R x, R y, R z)
               (SELECT DISTINCT x.a AS a, y.a AS b, z.a AS c FROM R x, R y, R z);
    """, refute=True)
    assert out.status == "NOT_PROVED"
    assert out.witness is None and "refutation stopped" in out.detail


def test_a_generic_table_the_pair_does_not_read_leaves_refutation_alone():
    # a generic table's rows cannot be drawn, so no database has them: a
    # pair over R alone is refuted with G empty, and a pair over G is told
    # why no database was drawn
    [over_r, over_g] = run_program_text("""
        schema s(a:int, b:int);
        schema g(a:int, ??);
        table R(s);
        table G(g);
        verify (SELECT * FROM R x WHERE x.a = 1) (SELECT * FROM R y WHERE y.a = 2);
        verify (SELECT * FROM G x WHERE x.a = 1) (SELECT * FROM G y WHERE y.a = 2);
    """, refute=True)
    assert over_r.status == "NOT_EQUIVALENT" and over_r.detail == ""
    assert over_r.witness is not None and over_r.witness.rels["G"] == {}
    assert any(dict(row)["a"] in (1, 2) for row in over_r.witness.rels["R"])
    assert over_g.status == "NOT_EQUIVALENT" and over_g.witness is None
    assert over_g.detail == "refutation drew no database: generic table G"


CLASHING = """
    verify (SELECT {d}x.a AS o FROM R x WHERE x.a = 1 AND x.a = 2)
           (SELECT {d}y.a AS o FROM {rhs} y WHERE y.a = 1{more});
"""


def test_terms_equating_two_constants_are_dropped():
    # both sides are empty; in the UCQ fragments a wrong NOT_EQUIVALENT
    # would be a completeness claim broken
    for distinct, fragment in (("", "ucq-bag"), ("DISTINCT ", "ucq-set")):
        [out] = run_program_text(PRELUDE + CLASHING.format(
            d=distinct, rhs="S", more=" AND y.a = 2"), refute=True)
        assert (out.status, out.fragment) == ("EQUIVALENT", fragment)
        assert out.trace.rule_names().count("const-clash") == 2


def test_a_clashing_side_against_a_nonempty_one_is_refuted():
    [out] = run_program_text(PRELUDE + CLASHING.format(d="", rhs="R", more=""),
                             refute=True)
    assert (out.status, out.fragment) == ("NOT_EQUIVALENT", "ucq-bag")
    assert out.witness is not None
    assert out.trace.rule_names().count("const-clash") == 1


def test_normalize_steps_count_not_squash():
    # each side strips the squash under its negation (`not-squash`); the
    # normalizer leaves factor order to the term structure, so it logs no
    # reordering step
    [out] = run_program_text("""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x WHERE NOT (x.a = 1 OR x.b = 2))
               (SELECT x.a AS a FROM R x WHERE NOT (x.b = 2 OR x.a = 1));
    """)
    rules = out.trace.rule_names()
    assert (rules.count("not-squash"), rules.count("prod-comm")) == (2, 0)


def test_stage_steps_sum_to_the_total(benchdir):
    for path in sorted(benchdir.glob("*.cos")):
        for out in run_program_text(path.read_text()):
            s = out.steps
            assert s["normalize"] + s["canonize"] + s["search"] == s["total"], path.name


def test_steps_do_not_depend_on_the_trace(benchdir):
    for path in sorted(benchdir.glob("*.cos")):
        text = path.read_text()
        traced = [out.steps for out in run_program_text(text)]
        untraced = [out.steps for out in run_program_text(text, want_trace=False)]
        assert untraced == traced, path.name


def test_normalize_steps_are_the_first_stage_alone(benchdir):
    # the normalizer runs that dissolve squashes during canonize and search
    # count in those stages, so `normalize` is what normalizing the two
    # denoted sides takes
    from semiq.config import Budget
    from semiq.exprs import VarGen, substitute
    from semiq.pipeline import prepare_pair
    from semiq.spnf import to_spnf
    from semiq.translate import denote

    text = (benchdir / "starburst_distinct_pullup.cos").read_text()
    [out] = run_program_text(text)
    program = parse(text)
    env = build_env(program)
    q1, q2 = prepare_pair(program.verifies()[0], env)
    gen, budget = VarGen(), Budget()
    d1, d2 = denote(q1, env, gen), denote(q2, env, gen)
    to_spnf(d1.body, gen, budget=budget)
    to_spnf(substitute(d2.body, {d2.out_var: d1.out_var}), gen, budget=budget)
    assert out.steps["normalize"] == budget.steps == budget.by_stage["normalize"]
    assert out.steps["total"] > budget.steps


def test_long_union_all_pair_is_equivalent():
    # one node of 1,200 branches; normalizing its sum and pairing its terms
    # take no Python frame per branch
    body = " UNION ALL ".join(["R"] * 1200)
    out = _statuses(PRELUDE + f"verify ({body}) ({body});")
    assert out == [("EQUIVALENT", "ucq-bag")]


def test_long_union_all_dumps_take_no_frames_per_branch():
    body = " UNION ALL ".join(["R"] * 1200)
    [out] = run_program_text(PRELUDE + f"verify ({body}) ({body});",
                             dump_uexp=True, dump_spnf=True)
    assert out.status == "EQUIVALENT"
    assert all(out.dumps[k].count(" + ") == 1199
               for k in ("uexp1", "uexp2", "spnf1", "spnf2"))


def test_union_under_a_derived_table_takes_no_frames_per_branch():
    # the projection's product distributes over the union's 1,200 branches
    body = " UNION ALL ".join(["R"] * 1200)
    q = f"SELECT u.a AS o FROM ({body}) u"
    assert _statuses(PRELUDE + f"verify ({q}) ({q});") == [("EQUIVALENT", "general")]


def test_except_of_a_wide_union_is_equivalent_to_itself():
    # the negation over 1,000 branches is one factor of the product, which
    # the normalizer places without keying it
    text = union_subquery_program("(SELECT y.a AS a FROM S y) EXCEPT ({u})", 1000)
    [out] = run_program_text(text)
    assert out.status == "EQUIVALENT"


def test_an_aggregate_over_a_wide_union_is_equivalent_to_itself():
    # the aggregate's body is one sum of 1,200 terms, so its key is one
    # tuple of 1,200 term keys, not a nest of 1,200 binary ones
    text = union_subquery_program("SELECT y.a AS a FROM S y WHERE y.b = cnt({u})", 1200)
    [out] = run_program_text(text)
    assert out.status == "EQUIVALENT"


@pytest.mark.parametrize("rule, q1, q2", [
    ("sum-zero", "SELECT x.a AS a FROM R x WHERE FALSE",
     "SELECT y.a AS a FROM R y WHERE FALSE"),
    ("mul-zero", "SELECT x.a AS a FROM R x WHERE x.a = 1 AND FALSE",
     "SELECT y.a AS a FROM R y WHERE FALSE"),
    ("add-zero", "(SELECT x.a AS a FROM R x) UNION ALL "
                 "(SELECT y.a AS a FROM R y WHERE FALSE)",
     "SELECT z.a AS a FROM R z"),
    ("squash-zero", "SELECT DISTINCT x.a AS a FROM R x WHERE FALSE",
     "SELECT y.a AS a FROM R y WHERE FALSE"),
    ("squash-zero", "SELECT x.a AS a FROM R x WHERE EXISTS "
                    "(SELECT y.a AS a FROM R y WHERE FALSE)",
     "SELECT z.a AS a FROM R z WHERE FALSE"),
    ("not-zero", "SELECT x.a AS a FROM R x WHERE NOT EXISTS "
                 "(SELECT y.a AS a FROM R y WHERE FALSE)",
     "SELECT z.a AS a FROM R z"),
])
def test_false_normalizes_by_its_zero_rule(rule, q1, q2):
    prog = parse(PRELUDE + f"verify ({q1}) ({q2});")
    env = build_env(prog)
    p = prepare_verify(prog.verifies()[0], "v", env)
    out = decide_verify(p, env)
    assert out.status == "EQUIVALENT"
    assert rule in out.trace.rule_names()
    assert find_witness(p.q1, p.q2, env) is None


# each squash rule of the catalog that only hand-built U-expressions were
# thought to reach, reached from SQL: an OR with FALSE squashes its other
# operand, and nested DISTINCTs or two EXISTS multiply squashes
@pytest.mark.parametrize("rule, q1, q2", [
    ("squash-idem", "SELECT DISTINCT * FROM (SELECT DISTINCT x.a AS a FROM R x) y",
     "SELECT DISTINCT z.a AS a FROM R z"),
    ("squash-not", "SELECT x.a AS a FROM R x WHERE NOT EXISTS "
                   "(SELECT y.a AS a FROM S y WHERE y.a = x.a) OR FALSE",
     "SELECT z.a AS a FROM R z WHERE NOT EXISTS "
     "(SELECT w.a AS a FROM S w WHERE w.a = z.a)"),
    ("pred-squash-elim", "SELECT x.a AS a FROM R x WHERE x.a = 1 OR FALSE",
     "SELECT y.a AS a FROM R y WHERE y.a = 1"),
    ("squash-one", "SELECT x.a AS a FROM R x WHERE TRUE OR FALSE",
     "SELECT y.a AS a FROM R y"),
    ("squash-mul", "SELECT x.a AS a FROM R x WHERE "
                   "EXISTS (SELECT y.a AS a FROM S y WHERE y.a = x.a) AND "
                   "EXISTS (SELECT y.c AS c FROM S y WHERE y.c = x.b)",
     "SELECT z.a AS a FROM R z WHERE "
     "EXISTS (SELECT w.c AS c FROM S w WHERE w.c = z.b) AND "
     "EXISTS (SELECT w.a AS a FROM S w WHERE w.a = z.a)"),
])
def test_squash_rules_are_reached_from_sql(rule, q1, q2):
    prog = parse(PRELUDE + f"verify ({q1}) ({q2});")
    env = build_env(prog)
    p = prepare_verify(prog.verifies()[0], "v", env)
    out = decide_verify(p, env)
    assert out.status == "EQUIVALENT"
    assert rule in out.trace.rule_names()
    assert find_witness(p.q1, p.q2, env) is None
