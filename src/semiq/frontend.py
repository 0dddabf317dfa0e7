"""Declaration processing and query-level rewrites.

Builds the schema environment from a parsed program, infers output schemas,
desugars GROUP BY into correlated aggregate subqueries, and inlines views
and indexes.  All passes are pure AST-to-AST functions.
"""

from __future__ import annotations

from .schema import FkConstraint, KeyConstraint, Schema, SchemaEnv, SemanticError
from .sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ,
    Exists, ExprItem, FkStmt, IndexStmt, KeyStmt, Lit, NotP, OrP, Program,
    Select, SchemaStmt, Source, Star, TableRef, TableStmt, UnionAll,
    VerifyStmt, ViewStmt, children, map_children, transform, walk,
)

UNKNOWN = "?"


def build_env(program: Program) -> SchemaEnv:
    """Sequentially validate declarations; view bodies are stored desugared."""
    env = SchemaEnv()
    for s in program.statements:
        if isinstance(s, SchemaStmt):
            rest = frozenset([s.name]) if s.generic else frozenset()
            env.declare_schema(Schema(s.name, s.attrs, rest))
        elif isinstance(s, TableStmt):
            env.declare_table(s.name, s.schema_name)
        elif isinstance(s, KeyStmt):
            env.add_key(KeyConstraint(s.table, tuple(s.attrs)))
        elif isinstance(s, FkStmt):
            env.add_fk(FkConstraint(s.source, tuple(s.source_attrs),
                                    s.target, tuple(s.target_attrs)))
        elif isinstance(s, ViewStmt):
            body = desugar_groupby(s.query)
            infer_schema(body, env)
            env.declare_view(s.name, body)
        elif isinstance(s, IndexStmt):
            env.declare_view(s.name, index_view(s, env))
        elif isinstance(s, VerifyStmt):
            infer_schema(desugar_groupby(s.lhs), env)
            infer_schema(desugar_groupby(s.rhs), env)
        else:
            raise SemanticError(f"unknown statement {type(s).__name__}")
    return env


def index_view(s: IndexStmt, env: SchemaEnv) -> Select:
    """An index is the view projecting the indexed attributes from its table."""
    sch = env.table_schema(s.table)
    for a in s.attrs:
        if not sch.has_attr(a):
            raise SemanticError(f"index attribute {s.table}.{a} not in schema",
                                s.pos.line if s.pos else None,
                                s.pos.col if s.pos else None)
    alias = "x"
    items = tuple(ExprItem(ColRef(alias, a), a) for a in s.attrs)
    return Select(items, (Source(TableRef(s.table), alias),))


# ---------------------------------------------------------------------------
# Schema inference

def _unify_types(t1: str, t2: str) -> str | None:
    if t1 == t2:
        return t1
    if t1 == UNKNOWN:
        return t2
    if t2 == UNKNOWN:
        return t1
    return None


def _unify_schemas(s1: Schema, s2: Schema, what: str) -> Schema:
    if set(s1.attr_names()) != set(s2.attr_names()) or s1.rest != s2.rest:
        raise SemanticError(f"schema mismatch in {what}: "
                            f"{sorted(s1.attr_names())} vs {sorted(s2.attr_names())}")
    attrs = []
    for a, t in s1.attrs:
        u = _unify_types(t, s2.attr_type(a))
        if u is None:
            raise SemanticError(f"attribute {a} has conflicting types in {what}")
        attrs.append((a, u))
    return Schema(s1.name, tuple(attrs), s1.rest)


def _expr_type(e, env: SchemaEnv, scopes) -> str:
    if isinstance(e, ColRef):
        sch = _resolve_alias(e.alias, scopes, e.pos)
        if sch.has_attr(e.attr):
            return sch.attr_type(e.attr)
        if sch.generic:
            return UNKNOWN
        raise SemanticError(f"unknown attribute {e.alias}.{e.attr}",
                            e.pos.line if e.pos else None,
                            e.pos.col if e.pos else None)
    if isinstance(e, Lit):
        return e.ty
    if isinstance(e, App):
        for a in e.args:
            _expr_type(a, env, scopes)
        return UNKNOWN
    if isinstance(e, AggQuery):
        infer_schema(e.query, env, scopes)
        return UNKNOWN
    raise SemanticError(f"unknown expression {type(e).__name__}")


def _resolve_alias(alias: str, scopes, pos=None) -> Schema:
    for scope in reversed(scopes):
        if alias in scope:
            return scope[alias]
    raise SemanticError(f"unknown alias {alias}",
                        pos.line if pos else None, pos.col if pos else None)


def _validate_pred(p, env: SchemaEnv, scopes) -> None:
    if isinstance(p, Cmp):
        _expr_type(p.lhs, env, scopes)
        _expr_type(p.rhs, env, scopes)
    elif isinstance(p, NotP):
        _validate_pred(p.body, env, scopes)
    elif isinstance(p, (AndP, OrP)):
        _validate_pred(p.lhs, env, scopes)
        _validate_pred(p.rhs, env, scopes)
    elif isinstance(p, BoolLit):
        pass
    elif isinstance(p, Exists):
        infer_schema(p.query, env, scopes)
    else:
        raise SemanticError(f"unknown predicate {type(p).__name__}")


def source_schemas(q: Select, env: SchemaEnv, scopes) -> dict[str, Schema]:
    local: dict[str, Schema] = {}
    for src in q.sources:
        if src.alias in local:
            raise SemanticError(f"duplicate alias {src.alias} in FROM",
                                src.pos.line if src.pos else None,
                                src.pos.col if src.pos else None)
        local[src.alias] = infer_schema(src.query, env, scopes)
    return local


def infer_schema(q, env: SchemaEnv, scopes=()) -> Schema:
    """Output schema of a query; raises SemanticError on bad references."""
    if isinstance(q, TableRef):
        if q.name in env.views:
            return infer_schema(env.views[q.name], env)
        return env.table_schema(q.name)
    if isinstance(q, Distinct):
        return infer_schema(q.query, env, scopes)
    if isinstance(q, UnionAll):
        return _unify_schemas(infer_schema(q.lhs, env, scopes),
                              infer_schema(q.rhs, env, scopes), "UNION ALL")
    if isinstance(q, ExceptQ):
        return _unify_schemas(infer_schema(q.lhs, env, scopes),
                              infer_schema(q.rhs, env, scopes), "EXCEPT")
    if isinstance(q, Select):
        local = source_schemas(q, env, scopes)
        inner = scopes + (local,)
        if q.where is not None:
            _validate_pred(q.where, env, inner)
        if q.group_by:
            for g in q.group_by:
                sch = _resolve_alias(g.alias, (local,), g.pos)
                if not sch.has_attr(g.attr) and not sch.generic:
                    raise SemanticError(f"unknown attribute {g.alias}.{g.attr}")
            return infer_schema(desugar_groupby(q), env, scopes)
        return projection_schema(q, env, local, scopes)
    raise SemanticError(f"unknown query node {type(q).__name__}")


def projection_schema(q: Select, env: SchemaEnv, local: dict[str, Schema],
                      scopes=()) -> Schema:
    """Output schema of a Select's items, given the schema of each of its
    sources by alias; the sources are not inferred again."""
    inner = scopes + (local,)
    out = Schema("", ())
    for item in q.items:
        if isinstance(item, Star):
            for alias in local:
                out = out.concat(local[alias])
        elif isinstance(item, AliasStar):
            out = out.concat(_resolve_alias(item.alias, (local,), item.pos))
        elif isinstance(item, ExprItem):
            ty = _expr_type(item.expr, env, inner)
            out = out.concat(Schema("", ((item.name, ty),)))
        else:
            raise SemanticError("unknown projection item")
    return out


# ---------------------------------------------------------------------------
# GROUP BY desugaring

def shorthand_column_names(args) -> list[str]:
    """Output column names for an aggregate-shorthand subquery."""
    names = []
    for i, a in enumerate(args):
        names.append(a.attr if isinstance(a, ColRef) else f"v{i + 1}")
    if len(set(names)) != len(names):
        names = [f"v{i + 1}" for i in range(len(args))]
    return names


# The query-typed children of a Select are exactly its FROM subqueries.
_QUERY_TYPES = (TableRef, Select, UnionAll, ExceptQ, Distinct)


def _rename(node, ren: dict[str, str]):
    """Rename free alias references (shadowed aliases keep their meaning)."""
    if isinstance(node, ColRef):
        return ColRef(ren[node.alias], node.attr, node.pos) if node.alias in ren else node
    if isinstance(node, Select):
        bound = {s.alias for s in node.sources}
        if not bound.isdisjoint(ren):
            # FROM subqueries do not see their sibling aliases; the rest does
            inner = {k: v for k, v in ren.items() if k not in bound}
            return map_children(node, lambda c: _rename(
                c, ren if isinstance(c, _QUERY_TYPES) else inner))
    return map_children(node, lambda c: _rename(c, ren))


def _expr_refs_outside(e, grouped: set[tuple[str, str]], local_aliases: set[str]) -> bool:
    """Does e reference a local, non-grouped attribute?"""
    if isinstance(e, ColRef):
        return e.alias in local_aliases and (e.alias, e.attr) not in grouped
    if isinstance(e, AggQuery):
        return False  # explicit aggregate already encapsulates its scan
    return any(_expr_refs_outside(a, grouped, local_aliases) for a in children(e))


def desugar_groupby(q):
    """Rewrite grouped queries into correlated aggregate subqueries.

    One output row per group: the outer scan over fresh aliases is
    deduplicated with DISTINCT, each aggregate becomes an aggregate over the
    subquery of its group's rows.  Idempotent on GROUP-BY-free input.
    """
    counter = [0]
    used = {s.alias for n in walk(q) if isinstance(n, Select) for s in n.sources}

    def fresh_alias() -> str:
        while True:
            counter[0] += 1
            cand = f"g{counter[0]}"
            if cand not in used:
                used.add(cand)
                return cand

    def _desugar_one(node: Select):
        grouped = {(g.alias, g.attr) for g in node.group_by}
        local_aliases = {s.alias for s in node.sources}
        for alias, _attr in grouped:
            if alias not in local_aliases:
                raise SemanticError(f"GROUP BY references unknown alias {alias}")
        ren = {s.alias: fresh_alias() for s in node.sources}
        outer_sources = tuple(Source(s.query, ren[s.alias], s.pos) for s in node.sources)
        corr = None
        for g in node.group_by:
            c = Cmp("=", ColRef(g.alias, g.attr), ColRef(ren[g.alias], g.attr))
            corr = c if corr is None else AndP(corr, c)

        def inner_query(args) -> Select:
            names = shorthand_column_names(args)
            items = tuple(ExprItem(a, n) for a, n in zip(args, names))
            where = node.where
            if where is None:
                where = corr
            elif corr is not None:
                where = AndP(where, corr)
            return Select(items, node.sources, where)

        out_items = []
        for it in node.items:
            if not isinstance(it, ExprItem):
                raise SemanticError("grouped query must project named expressions")
            e = it.expr
            if isinstance(e, App) and _expr_refs_outside(e, grouped, local_aliases):
                out_items.append(ExprItem(AggQuery(e.name, inner_query(list(e.args))),
                                          it.name, it.pos))
            elif _expr_refs_outside(e, grouped, local_aliases):
                raise SemanticError(
                    f"projection {it.name} references a non-grouped attribute")
            else:
                out_items.append(ExprItem(_rename(e, ren), it.name, it.pos))
        outer_where = _rename(node.where, ren) if node.where is not None else None
        return Distinct(Select(tuple(out_items), outer_sources, outer_where))

    return transform(q, lambda n: _desugar_one(n)
                     if isinstance(n, Select) and n.group_by else n)


# ---------------------------------------------------------------------------
# View and index inlining

def inline_views(q, env: SchemaEnv, _stack: tuple[str, ...] = ()):
    """Replace each view/index occurrence by its defining query, transitively."""
    def expand(n):
        if not isinstance(n, TableRef) or n.name not in env.views:
            return n
        if n.name in _stack:
            raise SemanticError(f"cyclic view definition involving {n.name}")
        return inline_views(env.views[n.name], env, _stack + (n.name,))

    return transform(q, expand)
