from __future__ import annotations

import itertools

import pytest

from semiq import SemanticError, build_env, infer_schema, parse
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import GenSizes, gen_instances, interp_query
from semiq.schema import Schema

from conftest import parse_query


def test_infer_base_table(index_program):
    _, env = index_program
    q = parse_query("R")
    assert infer_schema(q, env) == env.tables["R"]


def test_infer_alias_star_recovers_table_schema(index_program):
    # the projected t2.* side of the index rewrite has R's schema
    prog, env = index_program
    q = prog.statements[-1].rhs
    assert infer_schema(q, env) == env.tables["R"]


def test_infer_cross_product_concatenates():
    prog = parse("""
        schema s1(a:int, ??);
        schema s2(b:int, ??);
        table t1(s1);
        table t2(s2);
        verify (SELECT * FROM t1 x, t2 y) (SELECT * FROM t1 x, t2 y);
    """)
    env = build_env(prog)
    got = infer_schema(prog.statements[-1].lhs, env)
    assert set(got.attr_names()) == {"a", "b"}
    assert got.rest == frozenset({"s1", "s2"})
    flipped = parse_query("SELECT * FROM t2 y, t1 x", relations=("t1", "t2"))
    assert infer_schema(flipped, env) == got  # attribute bags, not lists


def test_infer_expr_items_and_duplicates():
    prog = parse("""
        schema s(a:int, b:string);
        table R(s);
        verify (SELECT x.a AS u, x.b AS w FROM R x) R;
    """)
    env = build_env(prog)
    got = infer_schema(prog.statements[-1].lhs, env)
    assert dict(got.attrs) == {"u": "int", "w": "string"}
    with pytest.raises(SemanticError):
        infer_schema(parse_query("SELECT x.a AS u, x.b AS u FROM R x"), env)


def test_unknown_attribute_rejected_unless_generic():
    prog = parse("""
        schema s(a:int);
        schema g(a:int, ??);
        table R(s);
        table G(g);
        verify R R;
    """)
    env = build_env(prog)
    with pytest.raises(SemanticError):
        infer_schema(parse_query("SELECT x.zz AS z FROM R x"), env)
    got = infer_schema(parse_query("SELECT x.zz AS z FROM G x", ("G",)), env)
    assert got.attr_type("z") == "?"


def test_ambiguous_star_rejected():
    prog = parse("""
        schema s(a:int);
        table R(s);
        table S(s);
        verify R R;
    """)
    env = build_env(prog)
    with pytest.raises(SemanticError):
        infer_schema(parse_query("SELECT * FROM R x, S y"), env)


def test_union_all_schema_mismatch():
    prog = parse("""
        schema s1(a:int);
        schema s2(b:int);
        table R(s1);
        table S(s2);
        verify R R;
    """)
    env = build_env(prog)
    with pytest.raises(SemanticError):
        infer_schema(parse_query("R UNION ALL S"), env)


def test_infer_agrees_with_interpreter_tuple_shape():
    prog = parse("""
        schema s(a:int, b:int);
        table R(s);
        table S(s);
        verify R R;
    """)
    env = build_env(prog)
    queries = [
        "SELECT x.a AS p, y.b AS q FROM R x, S y WHERE x.a = y.a",
        "SELECT DISTINCT x.b AS c FROM R x",
        "(SELECT x.a AS v FROM R x) UNION ALL (SELECT y.b AS v FROM S y)",
    ]
    for src in queries:
        q = inline_views(desugar_groupby(parse_query(src)), env)
        sch = infer_schema(q, env)
        for db in itertools.islice(
                gen_instances(env, [], GenSizes(2, 2, 2), seed=3), 5):
            for asg in interp_query(q, db, env):
                assert set(a for a, _ in asg) == set(sch.attr_names())


def test_schema_equality_ignores_order():
    s1 = Schema("x", (("a", "int"), ("b", "int")))
    s2 = Schema("y", (("b", "int"), ("a", "int")))
    assert s1 == s2 and hash(s1) == hash(s2)


DECLS = "schema s(a:int, b:int);\ntable R(s);\ntable T(s);\nkey T(a);\n"


@pytest.mark.parametrize("decl, message", [
    ("schema s(c:int);", "schema s already declared"),
    ("table R(s);", "table R already declared"),
    ("view V SELECT x.a AS a FROM R x;\nindex V on R(a);", "view V already declared"),
    ("key Q(a);", "undeclared table Q"),
    ("key R(z);", "key attribute R.z not in schema"),
    ("foreign key R(z) references T(a);", "foreign key attribute R.z not in schema"),
    ("foreign key R(a) references T(z);", "foreign key attribute T.z not in schema"),
    ("foreign key R(a, b) references T(a);", "foreign key attribute lists differ in length"),
    ("foreign key R(b) references T(b);", "foreign key target T(b) is not a declared key"),
])
def test_each_bad_declaration_is_a_semantic_error(decl, message):
    with pytest.raises(SemanticError) as exc:
        build_env(parse(DECLS + decl))
    assert str(exc.value) == message
