from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from semiq.parser import MAX_NESTING, ParseError, parse, tokenize
from semiq.sqlast import (AggQuery, AndP, App, Cmp, ColRef, Distinct, ExprItem,
                          NotP, OrP, Pos, Select, SchemaStmt, Star, TableRef,
                          UnionAll, VerifyStmt)

from conftest import FIG_INDEX
from helpers import print_program


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
schema ss(k:int, n:string);
table S(ss);
foreign key S(k) references R(k);
view V SELECT x.k AS k FROM R x WHERE x.k = 1 AND x.a = 2 AND x.k = 3;
verify (SELECT y.n AS n, y.k + 1 AS m FROM S y WHERE y.n = 'hi' AND TRUE OR FALSE)
       (SELECT y.n AS n, y.k + 1 AS m FROM S y WHERE (y.k * 2) - 1 = y.k);
verify (SELECT v.k AS k FROM V v WHERE NOT EXISTS (SELECT y.k AS k FROM S y WHERE y.k = v.k))
       V;
verify (SELECT u.k AS k, cnt(SELECT y.k AS k FROM S y) AS c FROM (SELECT x.k AS k FROM R x) u)
       (SELECT u.k AS k, cnt(SELECT y.k AS k FROM S y) AS c FROM (R) u);
verify (DISTINCT (R UNION ALL R))
       (SELECT DISTINCT x.k AS k, x.a AS a FROM R x
        WHERE (x.k = 1 AND x.a = 2) AND x.k = 3 OR (x.a = 1 OR x.k = 2) OR x.a = x.k);
"""
    p1 = parse(src)
    printed = print_program(p1)
    p2 = parse(printed)
    assert print_program(p2) == printed


def _where(text: str):
    return parse("schema s(a:int, b:int);\ntable R(s);\n"
                 f"verify (SELECT * FROM R x WHERE {text}) R;").statements[-1].lhs.where


def test_an_and_chain_is_one_node():
    w = _where("x.a = 1 AND x.b = 2 AND x.a = 3")
    assert isinstance(w, AndP) and len(w.args) == 3
    assert [c.rhs.value for c in w.args] == [1, 2, 3]


def test_a_parenthesized_conjunction_stays_a_node_of_its_own():
    w = _where("(x.a = 1 AND x.b = 2) AND x.a = 3")
    assert isinstance(w, AndP) and len(w.args) == 2
    inner, last = w.args
    assert isinstance(inner, AndP) and len(inner.args) == 2
    assert isinstance(last, Cmp) and last.rhs.value == 3


def test_and_binds_tighter_inside_one_or_chain():
    w = _where("x.a = 1 OR x.b = 2 AND x.a = 3 OR x.b = 4")
    assert isinstance(w, OrP) and len(w.args) == 3
    first, middle, last = w.args
    assert isinstance(first, Cmp) and isinstance(last, Cmp)
    assert isinstance(middle, AndP) and len(middle.args) == 2


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


def test_precedence_and_left_associativity():
    prog = parse("""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x.a - x.b - 1 * x.a / 2 AS o FROM R x
                WHERE NOT x.a = 1 AND x.b = 2 AND x.a = 3 OR x.b = 4 OR x.a = 5) R;
    """)
    q = prog.statements[-1].lhs
    e = q.items[0].expr
    # ((x.a - x.b) - ((1 * x.a) / 2))
    assert e.name == "-" and e.args[0].name == "-"
    assert e.args[1].name == "/" and e.args[1].args[0].name == "*"
    w = q.where
    # (NOT a AND b AND c) OR d OR e: each chain is one node
    assert isinstance(w, OrP) and len(w.args) == 3
    conj = w.args[0]
    assert isinstance(conj, AndP) and len(conj.args) == 3
    assert isinstance(conj.args[0], NotP)
    assert all(isinstance(d, Cmp) for d in w.args[1:])


def test_parenthesized_predicate_or_expression():
    prog = parse("""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x.a AS o FROM R x WHERE (x.a = 1 OR x.b = 2) AND (x.a + 1) * 2 = x.b) R;
    """)
    w = prog.statements[-1].lhs.where
    assert isinstance(w, AndP) and isinstance(w.args[0], OrP)
    cmp = w.args[1]
    assert isinstance(cmp, Cmp) and cmp.lhs.name == "*"
    assert cmp.pos == Pos(4, 73)  # the comparison starts at its '('


def test_aggregate_over_a_query_or_over_arguments():
    prog = parse("""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT cnt(SELECT y.a AS a FROM R y) AS n, cnt(x.a, 1) AS m FROM R x) R;
    """)
    agg, call = (item.expr for item in prog.statements[-1].lhs.items)
    assert isinstance(agg, AggQuery) and isinstance(agg.query, Select)
    assert isinstance(call, App) and len(call.args) == 2


def test_tokens_are_tuples_padded_with_eof():
    toks = tokenize("verify R -- trailing comment")
    assert toks[0] == ("KW", "VERIFY", 1, 1)
    assert toks[1] == ("IDENT", "R", 1, 8)
    # the comment ends the text, so the end is where it starts
    assert all(t == ("EOF", "", 1, 10) for t in toks[2:])


DECL = "schema s(a:int, b:int); table R(s);\n"

# one input per place the parser raises, with the message and position
# of the error it gives
ERRORS = [
    ("verify (SELECT * FROM R x WHERE x.a = 'ab) R;",
     "unterminated string literal", 2, 39),
    ("verify R ! R;", "unexpected character '!'", 2, 10),
    ("foreign R(a) references R(b);", "expected KEY", 2, 9),
    ("schema t(a:int) -- no semicolon", "expected ';'", 2, 17),
    ("table (s);", "expected table name", 2, 7),
    ("verify (SELECT x.a AS o FROM R x WHERE " + "NOT " * 201 + "x.a = 1) R;",
     "nesting deeper than 200 levels", 2, 840),
    ("R;", "expected a statement keyword", 2, 1),
    ("select;", "unexpected keyword SELECT", 2, 1),
    ("schema t(a:float);", "unknown base type float", 2, 12),
    ("verify Q R;", "undeclared relation Q", 2, 8),
    ("verify 1 R;", "expected a query", 2, 8),
    ("verify (SELECT * FROM Q x) R;", "undeclared relation Q", 2, 23),
    ("verify (SELECT x.a + 1 FROM R x) R;",
     "projection expression needs AS <name>", 2, 16),
    # a predicate in parentheses followed by a comparison is read as an
    # expression, which stops at the inner '='
    ("verify (SELECT * FROM R x WHERE (x.a = 1) = 1) R;", "expected ')'", 2, 38),
    ("verify (SELECT * FROM R x WHERE x.a AND x.b = 1) R;",
     "expected a comparison operator", 2, 37),
    ("verify (SELECT a FROM R x) R;",
     "bare identifier a; attribute references must be alias-qualified", 2, 16),
    ("verify (SELECT * FROM R x WHERE = 1) R;", "expected an expression", 2, 33),
]


@pytest.mark.parametrize("src,msg,line,col", ERRORS,
                         ids=[e[1].split(";")[0] for e in ERRORS])
def test_error_message_and_position(src, msg, line, col):
    with pytest.raises(ParseError) as exc:
        parse(DECL + src)
    assert (exc.value.msg, exc.value.line, exc.value.col) == (msg, line, col)
    assert str(exc.value) == f"{msg} at {line}:{col}"


def _nested(family: str, d: int) -> str:
    """A verify whose left query nests ``d`` levels of one construct."""
    where = {
        "paren": "(" * d + "x.a = 1" + ")" * d,
        "expr-paren": "(" * d + "x.a" + ")" * d + " = 1",
        "not": "NOT " * d + "x.a = 1",
        "exists": "EXISTS (SELECT * FROM R y WHERE " * d + "x.a = 1" + ")" * d,
        "aggregate": "cnt(SELECT y.a AS a FROM R y WHERE " * d + "x.a = 1"
                     + ") = 1" * d,
        "call": "f(" * d + "x.a" + ")" * d + " = 1",
    }[family]
    return DECL + f"verify (SELECT x.a AS a FROM R x WHERE {where}) R;"


NESTING = ("paren", "expr-paren", "not", "exists", "aggregate", "call")


def _frames() -> int:
    f, k = sys._getframe(), 0
    while f is not None:
        f, k = f.f_back, k + 1
    return k


@pytest.mark.parametrize("family", NESTING)
def test_each_nesting_level_takes_at_most_four_frames(family):
    src = _nested(family, MAX_NESTING)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 4 * MAX_NESTING + 20)
    try:
        parse(src)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("family", NESTING)
def test_nesting_past_the_limit_is_a_parse_error(family):
    src = _nested(family, 5000)
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.msg == f"nesting deeper than {MAX_NESTING} levels"
    # the error is at the token that opens level 201
    opener = {"paren": "(", "expr-paren": "(", "not": "NOT", "exists": "EXISTS",
              "aggregate": "cnt", "call": "f"}[family]
    line2 = src.split("\n")[1]
    start = len("verify (SELECT x.a AS a FROM R x WHERE ")
    cols = [k + 1 for k in range(start, len(line2)) if line2.startswith(opener, k)]
    assert (exc.value.line, exc.value.col) == (2, cols[MAX_NESTING])


def test_derived_tables_take_no_frames():
    d = 2000
    q = "SELECT t.a AS a FROM R t"
    for _ in range(d):
        q = f"SELECT t.a AS a FROM ({q}) t"
    prog = parse(DECL + f"verify ({'(' * d}{q}{')' * d}) {'DISTINCT ' * d}R;")
    selects, node = 0, prog.statements[-1].lhs
    while isinstance(node, Select):
        selects, node = selects + 1, node.sources[0].query
    assert selects == d + 1 and isinstance(node, TableRef)
    distincts, node = 0, prog.statements[-1].rhs
    while isinstance(node, Distinct):
        distincts, node = distincts + 1, node.query
    assert distincts == d and isinstance(node, TableRef)


# the sha256 of repr(parse(text)) over the bundled programs and every
# perfbench workload program at seeds 1 and 2, with each AND or OR chain one
# node; folding those nodes back into left-nested binary ones gives the
# binary-chain parser's pin, 268b26e0b5442870ac14c07895cf38a2...
AST_PIN = "52d631e76418a714b75b0d6727147cff1d286e1d0ed6ef59eebf2e0f0c0e1cae"


def test_ast_pin():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [p.read_text() for p in sorted((root / "benchmarks").glob("*.cos"))]
    for seed in (1, 2):
        for name in sorted(workloads.WORKLOADS):
            texts += [inst.text for inst in workloads.build(name, seed, root)]
    assert len(texts) == 346
    h = hashlib.sha256()
    for text in texts:
        h.update(repr(parse(text)).encode())
        h.update(b"\n")
    assert h.hexdigest() == AST_PIN
