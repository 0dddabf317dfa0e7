"""GROUP BY desugaring and view/index inlining."""

from __future__ import annotations

import itertools

import pytest

from semiq import SemanticError, build_env, parse, run_program_text
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import GenSizes, gen_instances, interp_query
from semiq.sqlast import AggQuery, Distinct, ExprItem, Select, Source, TableRef

from conftest import parse_query
from helpers import print_query


def _groupby_env():
    prog = parse("""
        schema s(k:int, a:int);
        table R(s);
        verify R R;
    """)
    return build_env(prog)


def test_desugar_template_shape():
    env = _groupby_env()
    q = parse_query("SELECT x.k AS k, agg(x.a) AS a1 FROM R x GROUP BY x.k")
    out = desugar_groupby(q)
    # outer scan over a fresh alias, deduplicated; the aggregate becomes an
    # aggregate over the correlated subquery of the group's rows
    assert isinstance(out, Distinct)
    sel = out.query
    assert isinstance(sel, Select) and sel.group_by is None
    outer_alias = sel.sources[0].alias
    assert outer_alias != "x"
    k_item, a_item = sel.items
    assert k_item.name == "k" and k_item.expr.alias == outer_alias
    assert isinstance(a_item.expr, AggQuery) and a_item.expr.name == "agg"
    inner = a_item.expr.query
    assert isinstance(inner, Select)
    assert inner.sources[0].alias == "x"
    text = print_query(out)
    assert "GROUP BY" not in text
    assert f"x.k = {outer_alias}.k" in text


def test_desugar_idempotent_on_plain_queries():
    env = _groupby_env()
    q = parse_query("SELECT x.k AS k FROM R x WHERE x.a = 1")
    assert desugar_groupby(q) == q
    grouped = parse_query("SELECT x.k AS k, agg(x.a) AS n FROM R x GROUP BY x.k")
    once = desugar_groupby(grouped)
    assert desugar_groupby(once) == once


def test_desugar_only_rewrites_groupby_nodes():
    env = _groupby_env()
    q = parse_query(
        "SELECT z.k AS k FROM (SELECT x.k AS k, agg(x.a) AS n FROM R x GROUP BY x.k) z"
        " WHERE z.k = 0")
    out = desugar_groupby(q)
    # outer SELECT survives untouched apart from its rewritten source
    assert isinstance(out, Select)
    assert out.items == q.items
    assert out.where == q.where
    assert isinstance(out.sources[0].query, Distinct)


def test_desugar_rejects_nongrouped_projection():
    env = _groupby_env()
    q = parse_query("SELECT x.a AS a FROM R x GROUP BY x.k")
    with pytest.raises(SemanticError):
        desugar_groupby(q)


def test_desugar_preserves_interpreter_results():
    env = _groupby_env()
    q = parse_query(
        "SELECT x.k AS k, cnt(x.a) AS n FROM R x WHERE x.a = x.a GROUP BY x.k")
    out = desugar_groupby(q)
    for db in itertools.islice(gen_instances(env, [], GenSizes(3, 3, 3), 11), 25):
        assert interp_query(q, db, env) == interp_query(out, db, env)


# Grouped queries whose fresh outer aliases could capture a reference: the
# first two bind g1 (desugaring's first fresh alias) inside EXISTS, the third
# re-binds the outer alias x in a subquery (the inner x must stay inner).
CAPTURE_QUERIES = [
    "SELECT x.a AS a FROM R x WHERE EXISTS (SELECT * FROM R g1 WHERE g1.b = x.a)"
    " GROUP BY x.a",
    "SELECT x.a AS a, count(x.b) AS n FROM R x"
    " WHERE EXISTS (SELECT * FROM R g1 WHERE g1.b = x.a) GROUP BY x.a",
    "SELECT x.a AS a, count(x.b) AS n FROM R x"
    " WHERE EXISTS (SELECT * FROM R x WHERE x.b = x.a) GROUP BY x.a",
    "SELECT x.a AS a, count(y.b) AS n FROM R x, R y WHERE x.b = y.a GROUP BY x.a",
]

CAPTURE_PRELUDE = "schema s(a:int, b:int); table R(s);\n"


@pytest.mark.parametrize("text", CAPTURE_QUERIES)
def test_desugar_never_captures_aliases(text):
    env = build_env(parse(CAPTURE_PRELUDE))
    q = parse_query(text)
    out = desugar_groupby(q)
    for db in itertools.islice(gen_instances(env, [], GenSizes(3, 3, 3), 17), 40):
        assert interp_query(q, db, env) == interp_query(out, db, env)


def test_groupby_capture_is_not_proved_equivalent():
    # on R = {(0,1)x2, (0,2)x2, (2,2)x3} the sides are {a=2} and {a=0, a=2}
    out = run_program_text(CAPTURE_PRELUDE + """
        verify (SELECT x.a AS a FROM R x
                WHERE EXISTS (SELECT * FROM R g1 WHERE g1.b = x.a) GROUP BY x.a)
               (SELECT DISTINCT x.a AS a FROM R x
                WHERE EXISTS (SELECT * FROM R y WHERE y.b = y.a));
    """)
    assert out[0].status != "EQUIVALENT"


def test_alpha_equivalent_grouped_pair_has_no_counterexample():
    out = run_program_text(CAPTURE_PRELUDE + """
        verify (SELECT x.a AS a FROM R x
                WHERE EXISTS (SELECT * FROM R g1 WHERE g1.b = x.a) GROUP BY x.a)
               (SELECT x.a AS a FROM R x
                WHERE EXISTS (SELECT * FROM R y WHERE y.b = x.a) GROUP BY x.a);
    """, refute=True)
    assert out[0].witness is None


def test_inline_index_as_projection_view(index_program):
    prog, env = index_program
    q2 = prog.statements[-1].rhs
    out = inline_views(q2, env)
    src = out.sources[0]
    assert isinstance(src.query, Select)
    assert isinstance(src.query.sources[0].query, TableRef)
    assert src.query.sources[0].query.name == "R"
    names = [it.name for it in src.query.items]
    assert names == ["k", "a"]


def test_inline_viewfree_query_unchanged(index_program):
    _, env = index_program
    q = parse_query("SELECT * FROM R x WHERE x.a = 1")
    assert inline_views(q, env) == q


def test_inline_transitive_views():
    prog = parse("""
        schema s(a:int);
        table R(s);
        view V1 SELECT x.a AS a FROM R x WHERE x.a = 1;
        view V2 SELECT y.a AS a FROM V1 y;
        verify V2 R;
    """)
    env = build_env(prog)
    out = inline_views(prog.statements[-1].lhs, env)
    # fully view-free after one call
    def assert_viewfree(q):
        if isinstance(q, TableRef):
            assert q.name == "R"
        elif isinstance(q, Select):
            for s in q.sources:
                assert_viewfree(s.query)
    assert_viewfree(out)


def test_inline_detects_cycles():
    prog = parse("""
        schema s(a:int);
        table R(s);
        view V1 SELECT x.a AS a FROM R x;
        verify V1 R;
    """)
    env = build_env(prog)
    # force a cycle behind the parser's back
    env.views["V1"] = Select(
        (ExprItem(parse_query("SELECT x.a AS a FROM R x").items[0].expr, "a"),),
        (Source(TableRef("V1"), "x"),))
    with pytest.raises(SemanticError):
        inline_views(TableRef("V1"), env)


def test_inline_preserves_interpreter_results(index_program):
    prog, env = index_program
    q2 = prog.statements[-1].rhs
    out = inline_views(q2, env)
    for db in itertools.islice(
            gen_instances(env, env.constraints(), GenSizes(3, 3, 3), 13), 25):
        assert interp_query(q2, db, env) == interp_query(out, db, env)
