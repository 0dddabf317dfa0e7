"""Denotation of queries as semiring expressions.

Each query becomes a function of one output tuple variable: FROM items
introduce summation variables, WHERE multiplies predicate factors, the
projection binds the output variable's attributes with equality atoms,
DISTINCT squashes, UNION ALL adds, EXCEPT multiplies by a negation.  The
branches of a UNION ALL or EXCEPT, and a verify's right side, are denoted
over the left operand's output variable whenever their output schema equals
its schema; only a branch that types a column the left leaves ``?`` gets a
variable of its own, which `unify_outputs` renames.

The same walk resolves aliases, checks every column reference and types
each output column: this is the only scoping and typing pass over a query.
"""

from __future__ import annotations

from .record import record
from .schema import UNKNOWN, Schema, SchemaEnv, SemanticError, unify_schemas
from .sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ,
    Exists, ExprItem, Lit, NotP, OrP, Select, Star, TableRef, UnionAll,
)
from .exprs import (
    AggCall, AttrRef, Const, Func, Mul, Not, Pred, PredApp, Rel, Squash,
    TupleSlice, TupleVar, Exp, VarGen, ZERO, ONE, mk_eq, mk_neq,
    add, mk_tuple_eq, mul, substitute, sum_,
)


@record
class Denotation:
    out_var: TupleVar
    body: Exp

    @property
    def schema(self) -> Schema:
        return self.out_var.schema


Scope = tuple[dict[str, TupleVar], ...]


def denote(q, env: SchemaEnv, gen: VarGen, scopes: Scope = (),
           out: TupleVar | None = None) -> Denotation:
    """Denote a desugared, view-free query; over ``out`` itself when its
    output schema equals ``out``'s (see `_out_var`)."""
    if isinstance(q, TableRef):
        sch = env.table_schema(q.name)
        t = _out_var(gen, sch, out)
        return Denotation(t, Rel(q.name, t))
    if isinstance(q, Distinct):
        d = denote(q.query, env, gen, scopes, out)
        return Denotation(d.out_var, Squash(d.body))
    if isinstance(q, UnionAll):
        d = denote(q.branches[0], env, gen, scopes, out)
        bodies = [d.body]
        for b in q.branches[1:]:
            t, bodies[0], body = unify_outputs(
                d, denote(b, env, gen, scopes, d.out_var), "UNION ALL")
            if t != d.out_var:  # refines a ``?`` column: at most once per column
                bodies[1:] = [substitute(x, {d.out_var: t}) for x in bodies[1:]]
            bodies.append(body)
            d = Denotation(t, bodies[0])
        return Denotation(d.out_var, add(*bodies))
    if isinstance(q, ExceptQ):
        d = denote(q.lhs, env, gen, scopes, out)
        t, b1, b2 = unify_outputs(d, denote(q.rhs, env, gen, scopes, d.out_var),
                                  "EXCEPT")
        return Denotation(t, Mul((b1, Not(b2))))
    if isinstance(q, Select):
        return _denote_select(q, env, gen, scopes, out)
    raise SemanticError(f"cannot denote query node {type(q).__name__}")


def _out_var(gen: VarGen, sch: Schema, out: TupleVar | None) -> TupleVar:
    """``out`` when it has schema ``sch``, else a fresh variable; the fresh
    id is drawn either way, so sharing ``out`` renumbers nothing."""
    t = gen.fresh(sch)
    return out if out is not None and out.schema == sch else t


def unify_outputs(d1: Denotation, d2: Denotation, what: str):
    """One output variable for two denotations combined by ``what``, and
    both bodies over it.  It is ``d1``'s unless ``d2`` types a column that
    ``d1`` leaves ``?``; a body already over it is kept as it is."""
    sch = unify_schemas(d1.schema, d2.schema, what)
    t, body1 = d1.out_var, d1.body
    if sch != t.schema:
        t = TupleVar(t.vid, sch, t.hint)
        body1 = substitute(body1, {d1.out_var: t})
    return t, body1, d2.body if d2.out_var == t else substitute(d2.body, {d2.out_var: t})


def _denote_select(q: Select, env: SchemaEnv, gen: VarGen, scopes: Scope,
                   out: TupleVar | None) -> Denotation:
    if q.group_by:
        raise SemanticError("internal: GROUP BY must be desugared before denotation")
    # SELECT * over a single source passes the source tuple through unchanged
    through = len(q.items) == 1 and isinstance(q.items[0], Star) and len(q.sources) == 1
    src_factors: list[Exp] = []
    local: dict[str, TupleVar] = {}
    for src in q.sources:
        if src.alias in local:
            raise _error(f"duplicate alias {src.alias} in FROM", src.pos)
        d = denote(src.query, env, gen, scopes, out if through else None)
        local[src.alias] = d.out_var
        src_factors.append(d.body)
    inner = scopes + (local,)
    where_factor = denote_pred(q.where, env, gen, inner) if q.where is not None else ONE

    if through:
        [t] = local.values()
        return Denotation(t, mul(src_factors[0], where_factor))

    out_schema = Schema("", ())
    for item in q.items:
        if isinstance(item, Star):
            for v in local.values():
                out_schema = out_schema.concat(v.schema)
        elif isinstance(item, AliasStar):
            out_schema = out_schema.concat(_lookup(item.alias, (local,), item.pos).schema)
        elif isinstance(item, ExprItem):
            ty = _expr_type(item.expr, inner)
            out_schema = out_schema.concat(Schema("", ((item.name, ty),)))
        else:
            raise SemanticError("unknown projection item")
    t = _out_var(gen, out_schema, out)
    proj_atoms: list[Exp] = []
    for item in q.items:
        if isinstance(item, Star):
            for v in local.values():
                proj_atoms.extend(_alias_star_atoms(t, v))
        elif isinstance(item, AliasStar):
            v = local[item.alias]
            if len(q.items) == 1:  # the output is the alias's tuple
                proj_atoms.append(Pred(mk_tuple_eq(t, v)))
            else:
                proj_atoms.extend(_alias_star_atoms(t, v))
        else:
            s = denote_expr(item.expr, env, gen, inner)
            proj_atoms.append(Pred(mk_eq(AttrRef(t, item.name), s)))
    return Denotation(t, sum_(tuple(local.values()),
                              mul(*proj_atoms, *src_factors, where_factor)))


def _alias_star_atoms(t: TupleVar, v: TupleVar) -> list[Exp]:
    """Atoms binding the output's copy of one alias's attributes."""
    if v.schema.generic:
        return [Pred(mk_tuple_eq(TupleSlice(t, v.schema), v))]
    return [Pred(mk_eq(AttrRef(t, a), AttrRef(v, a))) for a in v.schema.attr_names()]


def _error(msg: str, pos) -> SemanticError:
    return SemanticError(msg, pos.line if pos else None, pos.col if pos else None)


def _lookup(alias: str, scopes: Scope, pos) -> TupleVar:
    for sc in reversed(scopes):
        if alias in sc:
            return sc[alias]
    raise _error(f"unknown alias {alias}", pos)


def _column(e: ColRef, scopes: Scope) -> AttrRef:
    v = _lookup(e.alias, scopes, e.pos)
    if not v.schema.has_attr(e.attr) and not v.schema.generic:
        raise _error(f"unknown attribute {e.alias}.{e.attr}", e.pos)
    return AttrRef(v, e.attr)


def _expr_type(e, scopes: Scope) -> str:
    """An output column's type: its attribute's (``?`` over a generic
    tail), a literal's own, ``?`` for anything computed."""
    if isinstance(e, ColRef):
        sch = _column(e, scopes).var.schema
        return sch.attr_type(e.attr) if sch.has_attr(e.attr) else UNKNOWN
    if isinstance(e, Lit):
        return e.ty
    return UNKNOWN


def denote_pred(p, env: SchemaEnv, gen: VarGen, scopes: Scope) -> Exp:
    if isinstance(p, Cmp):
        l = denote_expr(p.lhs, env, gen, scopes)
        r = denote_expr(p.rhs, env, gen, scopes)
        if p.op == "=":
            return Pred(mk_eq(l, r))
        if p.op == "<>":
            return Pred(mk_neq(l, r))
        return Pred(PredApp(p.op, (l, r)))
    if isinstance(p, AndP):  # a product's spine stands for the left-nested chain
        return Mul(tuple(denote_pred(a, env, gen, scopes) for a in p.args))
    if isinstance(p, OrP):
        return Squash(add(*(denote_pred(a, env, gen, scopes) for a in p.args)))
    if isinstance(p, NotP):
        if isinstance(p.body, Exists):
            d = denote(p.body.query, env, gen, scopes)
            return Not(sum_((d.out_var,), d.body))
        return Not(denote_pred(p.body, env, gen, scopes))
    if isinstance(p, BoolLit):
        return ONE if p.value else ZERO
    if isinstance(p, Exists):
        d = denote(p.query, env, gen, scopes)
        return Squash(sum_((d.out_var,), d.body))
    raise SemanticError(f"cannot denote predicate {type(p).__name__}")


def denote_expr(e, env: SchemaEnv, gen: VarGen, scopes: Scope):
    if isinstance(e, ColRef):
        return _column(e, scopes)
    if isinstance(e, Lit):
        return Const(e.value, e.ty)
    if isinstance(e, App):
        return Func(e.name, tuple(denote_expr(a, env, gen, scopes) for a in e.args))
    if isinstance(e, AggQuery):
        d = denote(e.query, env, gen, scopes)
        return AggCall(e.name, d.out_var, d.body)
    raise SemanticError(f"cannot denote expression {type(e).__name__}")
