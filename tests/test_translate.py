"""Denotation of queries as semiring expressions."""

from __future__ import annotations

import itertools
import random

import pytest

from semiq import SemanticError, build_env, parse
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import GenSizes, eval_exp, gen_instances, interp_query
from semiq.pipeline import prepare_verify
from semiq.translate import denote
from semiq.exprs import (Add, AttrRef, Mul, Not, Pred, PredApp, Rel, Squash,
                        Sum, TupleEqAtom, TupleSlice, TupleVar, VarGen, Zero,
                        pretty, substitute, walk)

from conftest import parse_query
from helpers import gen_ucq, mutate_ucq, std_env


def test_filter_scan_denotes_directly(index_program):
    prog, env = index_program
    q = prog.statements[-1].lhs  # SELECT * FROM R t WHERE t.a >= 12
    d = denote(q, env, VarGen())
    assert pretty(d.body, {d.out_var.vid: "t"}) == "R(t) * [t.a >= 12]"


def test_index_join_denotes_with_nested_sum(index_program):
    prog, env = index_program
    q2 = inline_views(prog.statements[-1].rhs, env)
    d = denote(q2, env, VarGen())
    got = pretty(d.body, {d.out_var.vid: "t"})
    # double sum over the two outer sources, whole-tuple output binding,
    # nested sum for the inlined index view, join and filter predicates
    assert got == ("sum{t1,t2} [t = t2] * "
                   "(sum{t3} [t1.k = t3.k] * [t1.a = t3.a] * R(t3)) * R(t2) * "
                   "[t1.k = t2.k] * [t1.a >= 12]")


def test_distinct_projection_denotes_squashed_sum():
    env = std_env()
    q = parse_query("SELECT DISTINCT R.a AS a FROM R")
    d = denote(q, env, VarGen())
    assert pretty(d.body, {d.out_var.vid: "t"}) == \
        "||sum{t1} [t.a = t1.a] * R(t1)||"


def test_union_of_empty_filters_denotes_zero_plus_zero():
    env = std_env()
    q = parse_query("(SELECT * FROM R x WHERE FALSE) UNION ALL "
                    "(SELECT * FROM R y WHERE FALSE)")
    d = denote(q, env, VarGen())
    assert d.body == Add((Zero(), Zero()))


def test_except_denotes_negation():
    env = std_env()
    q = parse_query("(SELECT * FROM R x) EXCEPT (SELECT * FROM S y)")
    d = denote(q, env, VarGen())
    assert isinstance(d.body, Mul) and isinstance(d.body.factors[-1], Not)


def test_exists_and_not_exists():
    env = std_env()
    q = parse_query("SELECT * FROM R x WHERE EXISTS (SELECT * FROM S y WHERE y.a = x.a)")
    d = denote(q, env, VarGen())
    assert isinstance(d.body.factors[-1], Squash) and isinstance(d.body.factors[-1].body, Sum)
    q2 = parse_query("SELECT * FROM R x WHERE NOT EXISTS (SELECT * FROM S y)")
    d2 = denote(q2, env, VarGen())
    assert isinstance(d2.body.factors[-1], Not) and isinstance(d2.body.factors[-1].body, Sum)


def test_or_denotes_squashed_sum_of_predicates():
    env = std_env()
    q = parse_query("SELECT * FROM R x WHERE x.a = 1 OR x.b = 2")
    d = denote(q, env, VarGen())
    assert isinstance(d.body.factors[-1], Squash) and isinstance(d.body.factors[-1].body, Add)


def test_comparisons_are_uninterpreted_predicates():
    env = std_env()
    q = parse_query("SELECT * FROM R x WHERE x.a < x.b")
    d = denote(q, env, VarGen())
    assert isinstance(d.body.factors[-1], Pred) and isinstance(d.body.factors[-1].atom, PredApp)
    assert d.body.factors[-1].atom.name == "<"


def test_whole_tuple_binding_for_single_alias_star(index_program):
    prog, env = index_program
    q = parse_query("SELECT t2.* FROM R t1, R t2")
    d = denote(q, env, VarGen())
    atoms = [f for f in _mul_chain(_strip_sums(d.body)) if isinstance(f, Pred)]
    assert any(isinstance(p.atom, TupleEqAtom) for p in atoms)


def _strip_sums(e):
    while isinstance(e, Sum):
        e = e.body
    return e


def _mul_chain(e):
    if isinstance(e, Mul):
        return [g for f in e.factors for g in _mul_chain(f)]
    return [e]


def test_union_schema_mismatch_rejected():
    prog = parse("""
        schema s1(a:int);
        schema s2(b:int);
        table R(s1);
        table S(s2);
        verify R R;
    """)
    env = build_env(prog)
    with pytest.raises(SemanticError):
        denote(parse_query("R UNION ALL S"), env, VarGen())


QUERIES = [
    "SELECT x.a AS a FROM R x WHERE x.a = x.b",
    "SELECT DISTINCT x.a AS a, y.b AS c FROM R x, S y WHERE x.a = y.a",
    "(SELECT x.a AS a FROM R x) UNION ALL (SELECT y.a AS a FROM S y)",
    "(SELECT x.a AS a FROM R x) EXCEPT (SELECT y.a AS a FROM S y)",
    "SELECT x.a AS a FROM R x WHERE EXISTS (SELECT y.b AS b FROM S y WHERE y.a = x.a)",
    "SELECT x.a AS a FROM R x WHERE NOT EXISTS (SELECT y.b AS b FROM S y WHERE y.a = x.a)",
    "SELECT x.a AS k, cnt(x.b) AS n FROM R x GROUP BY x.a",
    "SELECT x.a AS a FROM R x WHERE x.b >= 1 OR NOT x.a = 0",
    "SELECT * FROM R x WHERE x.a <> x.b",
    "SELECT * FROM (SELECT x.b AS a, x.a AS b FROM R x) z WHERE z.a = 1",
    "SELECT x.a AS a FROM R x WHERE x.b = sum(SELECT y.a AS a FROM S y WHERE y.b = x.a)",
]


@pytest.mark.parametrize("src", QUERIES)
def test_denotation_matches_direct_interpreter(src):
    """Two independent evaluators agree on every query/database pair."""
    env = std_env()
    q = inline_views(desugar_groupby(parse_query(src)), env)
    gen = VarGen()
    d = denote(q, env, gen)
    dbs = itertools.islice(
        gen_instances(env, [], GenSizes(2, 2, 2), seed=29, extra_ints=(1, 2)), 8)
    for db in dbs:
        ref = interp_query(q, db, env)
        for asg in db.tuple_space(d.schema):
            assert eval_exp(d.body, db, {d.out_var.vid: asg}) == ref.get(asg, 0)


def test_denotation_total_on_random_ucqs():
    env = std_env()
    rng = random.Random(3)
    for _ in range(40):
        q = mutate_ucq(rng, gen_ucq(rng))
        d = denote(inline_views(desugar_groupby(q), env), env, VarGen())
        assert d.body is not None


def test_long_union_all_denotes_without_deep_recursion():
    # the branches denote one sum of 1,200 terms, in branch order; no
    # Python frame is spent per branch
    n = 1200
    branches = " UNION ALL ".join(
        f"(SELECT x{i}.a AS o FROM R x{i} WHERE x{i}.a = {i})" for i in range(n))
    prog = parse("schema s(a:int, b:int);\ntable R(s);\n"
                 f"verify ({branches})\n       (SELECT y.a AS o FROM R y);\n")
    [stmt] = prog.verifies()
    p = prepare_verify(stmt, "v", build_env(prog))
    body = p.body1
    assert type(body) is Add and len(body.terms) == n
    assert not any(type(t) is Add for t in body.terms)
    assert [t.body.factors[-1].atom.lhs.value for t in body.terms] == list(range(n))


def _output_schemas(body, out: TupleVar) -> list:
    """The schema of each occurrence of ``out``'s id in ``body``."""
    return [n.schema if type(n) is TupleVar else n.var.schema for n in walk(body)
            if (type(n) is TupleVar and n.vid == out.vid)
            or (type(n) in (AttrRef, Rel, TupleSlice) and n.var.vid == out.vid)]


@pytest.mark.parametrize("op, want", [
    ("UNION ALL", "sum{t1} [t.o = +(t1.a, 1)] * R(t1) + sum{t2} [t.o = t2.a] * R(t2)"),
    ("EXCEPT", "(sum{t1} [t.o = +(t1.a, 1)] * R(t1)) * not(sum{t2} [t.o = t2.a] * R(t2))"),
])
def test_a_branch_that_types_a_column_renames_both_bodies(op, want):
    # the left leaves `o` untyped and the right types it int: the right
    # branch cannot share the left's output variable, and both bodies are
    # renamed onto the unified one
    q = parse_query(f"(SELECT x.a + 1 AS o FROM R x) {op} (SELECT y.a AS o FROM R y)")
    d = denote(q, std_env(), VarGen())
    assert d.schema.attr_type("o") == "int"
    occurrences = _output_schemas(d.body, d.out_var)
    assert len(occurrences) == 2 and all(sch == d.schema for sch in occurrences)
    assert pretty(d.body, {d.out_var.vid: "t"}) == want


def test_a_third_branch_that_types_a_column_renames_the_bodies_before_it():
    # the first two branches leave `o` untyped and share one output
    # variable; the third types it int, and every body is over the unified one
    q = parse_query("(SELECT x.a + 1 AS o FROM R x) UNION ALL (SELECT y.a + 2 AS o FROM R y)"
                    " UNION ALL (SELECT z.a AS o FROM R z)")
    d = denote(q, std_env(), VarGen())
    assert d.schema.attr_type("o") == "int"
    assert type(d.body) is Add and len(d.body.terms) == 3
    occurrences = _output_schemas(d.body, d.out_var)
    assert len(occurrences) == 3 and all(sch == d.schema for sch in occurrences)
    assert pretty(d.body, {d.out_var.vid: "t"}) == (
        "sum{t1} [t.o = +(t1.a, 1)] * R(t1) + sum{t2} [t.o = +(t2.a, 2)] * R(t2)"
        " + sum{t3} [t.o = t3.a] * R(t3)")


def test_a_verify_whose_right_side_types_a_column_renames_both_sides():
    prog = parse("schema s(a:int, b:int);\ntable R(s);\n"
                 "verify (SELECT x.a + 1 AS o FROM R x)\n"
                 "       (SELECT y.a AS o FROM R y);\n")
    [stmt] = prog.verifies()
    p = prepare_verify(stmt, "v", build_env(prog))
    assert p.out_var.schema.attr_type("o") == "int"
    for body in (p.body1, p.body2):
        occurrences = _output_schemas(body, p.out_var)
        assert len(occurrences) == 1 and occurrences[0] == p.out_var.schema
    names = {p.out_var.vid: "t"}
    assert pretty(p.body1, names) == "sum{t1} [t.o = +(t1.a, 1)] * R(t1)"
    assert pretty(p.body2, names) == "sum{t1} [t.o = t1.a] * R(t1)"


SHARED = [
    ("R", "R"),
    ("SELECT * FROM R x WHERE x.a = 1", "SELECT * FROM R y WHERE y.b = 2"),
    ("SELECT x.a AS a FROM R x", "SELECT DISTINCT y.b AS a FROM S y WHERE y.a = 3"),
    ("SELECT * FROM R x", "SELECT * FROM (SELECT y.b AS a, y.a AS b FROM R y) z"),
    ("SELECT x.* FROM R x", "(SELECT * FROM R y) UNION ALL (SELECT z.b AS a, z.a AS b FROM S z)"),
    ("SELECT x.a AS a FROM R x", "(SELECT y.a AS a FROM R y) EXCEPT (SELECT 1 AS a FROM S z)"),
    ("SELECT x.a + 1 AS a FROM R x", "(SELECT y.a + 2 AS a FROM R y) UNION ALL (SELECT z.a AS a FROM R z)"),
]


@pytest.mark.parametrize("lhs, rhs", SHARED)
def test_a_side_denoted_over_the_left_output_is_the_renamed_one(lhs, rhs):
    # denoting the right side over the left's output variable gives the
    # body that renaming its own output variable gives, and draws the same
    # variable ids, so every later number, trace and dump stays as it was
    env = std_env()
    q1 = parse_query(lhs)
    q2 = inline_views(desugar_groupby(parse_query(rhs)), env)
    gen, own = VarGen(), VarGen()
    d1 = denote(q1, env, gen)
    d2 = denote(q2, env, gen, out=d1.out_var)
    e1 = denote(q1, env, own)
    e2 = denote(q2, env, own)
    assert d1 == e1 and gen.fresh(d1.schema) == own.fresh(d1.schema)
    if d2.out_var == d1.out_var:
        assert d2.body == substitute(e2.body, {e2.out_var: e1.out_var})
    else:  # the right side types a column the left leaves `?`
        assert d2.schema != d1.schema and d2.body == substitute(
            e2.body, {e2.out_var: TupleVar(d1.out_var.vid, d2.schema)})
