"""Declaration processing and query-level rewrites.

Builds the schema environment from a parsed program, desugars GROUP BY
into correlated aggregate subqueries, and inlines views and indexes.  All
passes are pure AST-to-AST functions; scoping and typing are left to the
denotation (`translate.denote`).
"""

from __future__ import annotations

from .exprs import VarGen
from .schema import FkConstraint, KeyConstraint, Schema, SchemaEnv, SemanticError
from .sqlast import (
    AggQuery, AndP, App, Cmp, ColRef, Distinct, ExceptQ, ExprItem, FkStmt,
    IndexStmt, KeyStmt, Program, Select, SchemaStmt, Source, TableRef,
    TableStmt, UnionAll, VerifyStmt, ViewStmt, children, map_children,
    transform, walk,
)
from .translate import denote


def build_env(program: Program) -> SchemaEnv:
    """Sequentially validate declarations; view bodies are stored desugared.
    Verify statements are checked when they are prepared."""
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
        elif not isinstance(s, VerifyStmt):
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

def infer_schema(q, env: SchemaEnv) -> Schema:
    """Output schema of a query, from its denotation (the one scoping and
    typing pass); raises SemanticError on bad references."""
    return denote(inline_views(desugar_groupby(q), env), env, VarGen()).schema


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
    subquery of its group's rows.  GROUP-BY-free input is returned as is.
    """
    if not any(isinstance(n, Select) and n.group_by for n in walk(q)):
        return q
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
        # with every key projected as a column, DISTINCT keeps one row per
        # group; an unprojected key would merge groups that SQL keeps apart
        projected = {(it.expr.alias, it.expr.attr) for it in node.items
                     if isinstance(it, ExprItem) and isinstance(it.expr, ColRef)}
        for g in node.group_by:
            if g.alias not in local_aliases:
                raise SemanticError(f"GROUP BY references unknown alias {g.alias}")
            if (g.alias, g.attr) not in projected:
                raise SemanticError(f"GROUP BY column {g.alias}.{g.attr} is not projected",
                                    g.pos.line if g.pos else None,
                                    g.pos.col if g.pos else None)
        ren = {s.alias: fresh_alias() for s in node.sources}
        outer_sources = tuple(Source(s.query, ren[s.alias], s.pos) for s in node.sources)
        corr = [Cmp("=", ColRef(g.alias, g.attr), ColRef(ren[g.alias], g.attr))
                for g in node.group_by]
        corr = corr[0] if len(corr) == 1 else AndP(tuple(corr))

        def inner_query(args) -> Select:
            names = shorthand_column_names(args)
            items = tuple(ExprItem(a, n) for a, n in zip(args, names))
            where = corr if node.where is None else AndP((node.where, corr))
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
    """Replace each view/index occurrence by its defining query,
    transitively; a query that names no view is returned as is."""
    if not (env.views and any(isinstance(n, TableRef) and n.name in env.views
                              for n in walk(q))):
        return q

    def expand(n):
        if not isinstance(n, TableRef) or n.name not in env.views:
            return n
        if n.name in _stack:
            raise SemanticError(f"cyclic view definition involving {n.name}")
        return inline_views(env.views[n.name], env, _stack + (n.name,))

    return transform(q, expand)
