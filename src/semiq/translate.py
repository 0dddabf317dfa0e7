"""Denotation of queries as semiring expressions.

Each query becomes a function of one output tuple variable: FROM items
introduce summation variables, WHERE multiplies predicate factors, the
projection binds the output variable's attributes with equality atoms,
DISTINCT squashes, UNION ALL adds, EXCEPT multiplies by a negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frontend import projection_schema
from .schema import Schema, SchemaEnv, SemanticError
from .sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ,
    Exists, ExprItem, Lit, NotP, OrP, Select, Star, TableRef, UnionAll,
)
from .exprs import (
    Add, AggCall, AttrRef, Const, Func, Mul, Not, Pred, PredApp, Rel, Squash,
    Sum, TupleSlice, TupleVar, Exp, VarGen, ZERO, ONE, mk_eq, mk_neq,
    mk_tuple_eq, mul, substitute,
)


@dataclass
class Denotation:
    out_var: TupleVar
    body: Exp

    @property
    def schema(self) -> Schema:
        return self.out_var.schema


Scope = tuple[dict[str, TupleVar], ...]


def denote(q, env: SchemaEnv, gen: VarGen, scopes: Scope = ()) -> Denotation:
    """Denote a desugared, view-free query."""
    if isinstance(q, TableRef):
        sch = env.table_schema(q.name)
        t = gen.fresh(sch)
        return Denotation(t, Rel(q.name, t))
    if isinstance(q, Distinct):
        d = denote(q.query, env, gen, scopes)
        return Denotation(d.out_var, Squash(d.body))
    if isinstance(q, UnionAll):
        d1 = denote(q.lhs, env, gen, scopes)
        d2 = denote(q.rhs, env, gen, scopes)
        if d1.schema != d2.schema:
            raise SemanticError("schema mismatch in UNION ALL")
        return Denotation(d1.out_var,
                          Add(d1.body, substitute(d2.body, {d2.out_var: d1.out_var})))
    if isinstance(q, ExceptQ):
        d1 = denote(q.lhs, env, gen, scopes)
        d2 = denote(q.rhs, env, gen, scopes)
        if d1.schema != d2.schema:
            raise SemanticError("schema mismatch in EXCEPT")
        return Denotation(d1.out_var,
                          Mul(d1.body, Not(substitute(d2.body, {d2.out_var: d1.out_var}))))
    if isinstance(q, Select):
        return _denote_select(q, env, gen, scopes)
    raise SemanticError(f"cannot denote query node {type(q).__name__}")


def _denote_select(q: Select, env: SchemaEnv, gen: VarGen, scopes: Scope) -> Denotation:
    if q.group_by:
        raise SemanticError("internal: GROUP BY must be desugared before denotation")
    src_vars: list[TupleVar] = []
    src_factors: list[Exp] = []
    local: dict[str, TupleVar] = {}
    for src in q.sources:
        if isinstance(src.query, TableRef):
            sch = env.table_schema(src.query.name)
            v = gen.fresh(sch)
            factor: Exp = Rel(src.query.name, v)
        else:
            d = denote(src.query, env, gen, scopes)
            v, factor = d.out_var, d.body
        if src.alias in local:
            raise SemanticError(f"duplicate alias {src.alias} in FROM")
        local[src.alias] = v
        src_vars.append(v)
        src_factors.append(factor)
    inner = scopes + (local,)
    where_factor = denote_pred(q.where, env, gen, inner) if q.where is not None else ONE

    # SELECT * over a single source passes the source tuple through unchanged
    if len(q.items) == 1 and isinstance(q.items[0], Star) and len(src_vars) == 1:
        t = src_vars[0]
        return Denotation(t, mul(src_factors[0], where_factor))

    out_schema = _items_schema(q, env, local, scopes)
    t = gen.fresh(out_schema)
    proj_atoms: list[Exp] = []
    items = list(q.items)
    single_alias_star = len(items) == 1 and isinstance(items[0], AliasStar)
    for item in items:
        if isinstance(item, Star):
            for alias in local:
                proj_atoms.extend(_alias_star_atoms(t, local[alias]))
        elif isinstance(item, AliasStar):
            v = _lookup(item.alias, (local,))
            if single_alias_star and v.schema == out_schema:
                proj_atoms.append(Pred(mk_tuple_eq(t, v)))
            else:
                proj_atoms.extend(_alias_star_atoms(t, v))
        elif isinstance(item, ExprItem):
            s = denote_expr(item.expr, env, gen, inner)
            proj_atoms.append(Pred(mk_eq(AttrRef(t, item.name), s)))
        else:
            raise SemanticError("unknown projection item")
    body = mul(*proj_atoms, *src_factors, where_factor)
    for v in reversed(src_vars):
        body = Sum(v, body)
    return Denotation(t, body)


def _alias_star_atoms(t: TupleVar, v: TupleVar) -> list[Exp]:
    """Atoms binding the output's copy of one alias's attributes."""
    if v.schema.generic:
        return [Pred(mk_tuple_eq(TupleSlice(t, v.schema), v))]
    return [Pred(mk_eq(AttrRef(t, a), AttrRef(v, a))) for a in v.schema.attr_names()]


def _items_schema(q: Select, env: SchemaEnv, local: dict[str, TupleVar],
                  scopes: Scope) -> Schema:
    schema_scopes = tuple({a: v.schema for a, v in sc.items()} for sc in scopes)
    return projection_schema(q, env, {a: v.schema for a, v in local.items()},
                             schema_scopes)


def _lookup(alias: str, scopes: Scope) -> TupleVar:
    for sc in reversed(scopes):
        if alias in sc:
            return sc[alias]
    raise SemanticError(f"unknown alias {alias}")


def denote_pred(p, env: SchemaEnv, gen: VarGen, scopes: Scope) -> Exp:
    if isinstance(p, Cmp):
        l = denote_expr(p.lhs, env, gen, scopes)
        r = denote_expr(p.rhs, env, gen, scopes)
        if p.op == "=":
            return Pred(mk_eq(l, r))
        if p.op == "<>":
            return Pred(mk_neq(l, r))
        return Pred(PredApp(p.op, (l, r)))
    if isinstance(p, AndP):
        return Mul(denote_pred(p.lhs, env, gen, scopes),
                   denote_pred(p.rhs, env, gen, scopes))
    if isinstance(p, OrP):
        return Squash(Add(denote_pred(p.lhs, env, gen, scopes),
                          denote_pred(p.rhs, env, gen, scopes)))
    if isinstance(p, NotP):
        if isinstance(p.body, Exists):
            d = denote(p.body.query, env, gen, scopes)
            return Not(Sum(d.out_var, d.body))
        return Not(denote_pred(p.body, env, gen, scopes))
    if isinstance(p, BoolLit):
        return ONE if p.value else ZERO
    if isinstance(p, Exists):
        d = denote(p.query, env, gen, scopes)
        return Squash(Sum(d.out_var, d.body))
    raise SemanticError(f"cannot denote predicate {type(p).__name__}")


def denote_expr(e, env: SchemaEnv, gen: VarGen, scopes: Scope):
    if isinstance(e, ColRef):
        v = _lookup(e.alias, scopes)
        if not v.schema.has_attr(e.attr) and not v.schema.generic:
            raise SemanticError(f"unknown attribute {e.alias}.{e.attr}")
        return AttrRef(v, e.attr)
    if isinstance(e, Lit):
        return Const(e.value, e.ty)
    if isinstance(e, App):
        return Func(e.name, tuple(denote_expr(a, env, gen, scopes) for a in e.args))
    if isinstance(e, AggQuery):
        d = denote(e.query, env, gen, scopes)
        return AggCall(e.name, d.out_var, d.body)
    raise SemanticError(f"cannot denote expression {type(e).__name__}")
