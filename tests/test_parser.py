from __future__ import annotations

import pytest

from semiq.parser import ParseError, parse
from semiq.sqlast import (Cmp, ColRef, Distinct, ExprItem, Select,
                          SchemaStmt, Star, TableRef, UnionAll, VerifyStmt,
                          print_program)

from conftest import FIG_INDEX


def test_empty_input():
    assert parse("").statements == []
    assert parse("  -- just a comment\n").statements == []


def test_filter_query_shape():
    prog = parse("""
        schema s(k:int, a:int);
        table R(s);
        verify (SELECT * FROM R t WHERE t.a >= 12) R;
    """)
    v = prog.statements[-1]
    assert isinstance(v, VerifyStmt)
    q = v.lhs
    assert isinstance(q, Select)
    assert isinstance(q.items[0], Star)
    assert q.sources[0].alias == "t"
    assert isinstance(q.sources[0].query, TableRef)
    assert q.where == Cmp(">=", ColRef("t", "a", q.where.lhs.pos), q.where.rhs,
                          q.where.pos)
    assert isinstance(v.rhs, TableRef)


def test_generic_schema_declaration():
    prog = parse("schema s(a:int, ??);")
    s = prog.statements[0]
    assert isinstance(s, SchemaStmt)
    assert s.name == "s"
    assert s.attrs == (("a", "int"),)
    assert s.generic


def test_keywords_case_insensitive_identifiers_not():
    prog = parse("""
        schema Sig(a:int);
        table R(Sig);
        verify (select * from R x where x.a = 1) (SELECT * FROM R y WHERE y.a = 1);
    """)
    assert isinstance(prog.statements[-1], VerifyStmt)
    from semiq import SemanticError, build_env
    with pytest.raises(SemanticError):
        build_env(parse("schema Sig(a:int); table R(sig);"))


def test_verify_greedy_juxtaposed_queries():
    prog = parse("""
        schema s(a:int);
        table R(s);
        table S(s);
        verify R UNION ALL S R;
    """)
    v = prog.statements[-1]
    assert isinstance(v.lhs, UnionAll)
    assert isinstance(v.rhs, TableRef) and v.rhs.name == "R"


def test_union_all_chain_is_one_node_and_parentheses_nest():
    prog = parse("""
        schema s(a:int);
        table A(s);
        table B(s);
        table C(s);
        verify A UNION ALL B UNION ALL C A UNION ALL (B UNION ALL C);
    """)
    flat, nested = prog.statements[-1].lhs, prog.statements[-1].rhs
    assert isinstance(flat, UnionAll)
    assert [b.name for b in flat.branches] == ["A", "B", "C"]
    assert isinstance(nested, UnionAll) and len(nested.branches) == 2
    a, bc = nested.branches
    assert a.name == "A" and isinstance(bc, UnionAll)
    assert [b.name for b in bc.branches] == ["B", "C"]


def test_select_distinct_sugar():
    prog = parse("""
        schema s(a:int);
        table R(s);
        verify (SELECT DISTINCT x.a AS a FROM R x) R;
    """)
    q = prog.statements[-1].lhs
    assert isinstance(q, Distinct)
    assert isinstance(q.query, Select)


def test_bare_colref_projection_names_itself():
    prog = parse("""
        schema s(a:int);
        table R(s);
        verify (SELECT x.a FROM R x) R;
    """)
    item = prog.statements[-1].lhs.items[0]
    assert isinstance(item, ExprItem) and item.name == "a"


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse("schema s(a:int)\ntable R(s);")
    assert exc.value.line == 2
    assert exc.value.col >= 1


def test_undeclared_relation_rejected():
    with pytest.raises(ParseError) as exc:
        parse("schema s(a:int); table R(s); verify Q R;")
    assert "undeclared relation" in exc.value.msg


def test_roundtrip_stability():
    src = FIG_INDEX + """
verify (SELECT DISTINCT x.a AS a FROM R x, R y WHERE x.a = y.k OR NOT x.k = 0) R;
verify (SELECT x.k AS k, cnt(x.a) AS n FROM R x GROUP BY x.k)
       (SELECT x.k AS k, cnt(x.a) AS n FROM R x GROUP BY x.k);
verify (SELECT x.a AS c FROM R x WHERE EXISTS (SELECT y.k AS k FROM R y WHERE y.k = x.k)) R;
verify ((SELECT * FROM R x) EXCEPT (SELECT * FROM R y)) R;
verify (R UNION ALL R UNION ALL R) (R UNION ALL (R UNION ALL R));
"""
    p1 = parse(src)
    printed = print_program(p1)
    p2 = parse(printed)
    assert print_program(p2) == printed


def test_comments_and_strings():
    prog = parse("""
        schema s(a:string); -- trailing comment
        table R(s);
        verify (SELECT * FROM R x WHERE x.a = 'hi') R; -- another
    """)
    lit = prog.statements[-1].lhs.where.rhs
    assert lit.value == "hi" and lit.ty == "string"


def test_arithmetic_expressions_parse_as_functions():
    prog = parse("""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT * FROM R x WHERE x.a + 5 > x.b) R;
    """)
    cmp = prog.statements[-1].lhs.where
    assert cmp.op == ">"
    assert cmp.lhs.name == "+"
