"""AST for the declaration/query input language."""

from __future__ import annotations

from operator import is_not

from .record import factory, record


@record(hash=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# -- scalar expressions -------------------------------------------------------

@record(hash=True)
class ColRef:
    alias: str
    attr: str
    pos: Pos | None = None


@record(hash=True)
class Lit:
    value: object
    ty: str  # int | string: TRUE and FALSE are predicates, BoolLit
    pos: Pos | None = None


@record(hash=True)
class App:
    """Uninterpreted function or operator application."""
    name: str
    args: tuple["Expr", ...]
    pos: Pos | None = None


@record(hash=True)
class AggQuery:
    """Aggregate applied to a subquery's bag."""
    name: str
    query: "Query"
    pos: Pos | None = None


Expr = object  # ColRef | Lit | App | AggQuery


# -- predicates ---------------------------------------------------------------

@record(hash=True)
class Cmp:
    op: str  # = <> < <= > >=
    lhs: Expr
    rhs: Expr
    pos: Pos | None = None


@record(hash=True)
class NotP:
    body: "Predicate"


@record(hash=True)
class AndP:
    """Two or more conjuncts: AND is associative, so a chain is one node; a
    parenthesized conjunct stays a node of its own."""
    args: tuple["Predicate", ...]


@record(hash=True)
class OrP:
    """Two or more disjuncts, as ``AndP``."""
    args: tuple["Predicate", ...]


@record(hash=True)
class BoolLit:
    value: bool


@record(hash=True)
class Exists:
    query: "Query"


Predicate = object


# -- projections ----------------------------------------------------------------

@record(hash=True)
class Star:
    pos: Pos | None = None


@record(hash=True)
class AliasStar:
    alias: str
    pos: Pos | None = None


@record(hash=True)
class ExprItem:
    expr: Expr
    name: str
    pos: Pos | None = None


ProjItem = object


# -- queries ----------------------------------------------------------------------

@record(hash=True)
class TableRef:
    name: str
    pos: Pos | None = None


@record(hash=True)
class Source:
    query: "Query"
    alias: str
    pos: Pos | None = None


@record(hash=True)
class Select:
    items: tuple[ProjItem, ...]
    sources: tuple[Source, ...]
    where: Predicate | None = None
    group_by: tuple[ColRef, ...] | None = None
    pos: Pos | None = None


@record(hash=True)
class UnionAll:
    """A union of two or more queries: ``+`` is associative, so a chain of
    UNION ALLs is one node."""
    branches: tuple["Query", ...]


@record(hash=True)
class ExceptQ:
    lhs: "Query"
    rhs: "Query"


@record(hash=True)
class Distinct:
    query: "Query"


Query = object  # TableRef | Select | UnionAll | ExceptQ | Distinct


# -- statements -------------------------------------------------------------------

@record(hash=True)
class SchemaStmt:
    name: str
    attrs: tuple[tuple[str, str], ...]
    generic: bool
    pos: Pos | None = None


@record(hash=True)
class TableStmt:
    name: str
    schema_name: str
    pos: Pos | None = None


@record(hash=True)
class KeyStmt:
    table: str
    attrs: tuple[str, ...]
    pos: Pos | None = None


@record(hash=True)
class FkStmt:
    source: str
    source_attrs: tuple[str, ...]
    target: str
    target_attrs: tuple[str, ...]
    pos: Pos | None = None


@record(hash=True)
class ViewStmt:
    name: str
    query: Query
    pos: Pos | None = None


@record(hash=True)
class IndexStmt:
    name: str
    table: str
    attrs: tuple[str, ...]
    pos: Pos | None = None


@record(hash=True)
class VerifyStmt:
    lhs: Query
    rhs: Query
    pos: Pos | None = None


Statement = object


@record
class Program:
    statements: list = factory(list)

    def verifies(self) -> list[VerifyStmt]:
        return [s for s in self.statements if isinstance(s, VerifyStmt)]


# -- traversal ----------------------------------------------------------------
#
# The one place that knows a node's children and how to rebuild a node from
# new ones.  Child order, shared by all four functions: a Select's source
# queries, then its projected expressions, then WHERE, then its GROUP BY
# columns; lhs before rhs; the operands of App, AndP, OrP and UnionAll left
# to right.  Source, ExprItem, Star and AliasStar are not nodes: a Select's
# children skip over them.

def _select_children(q: Select) -> list:
    out = [s.query for s in q.sources]
    out.extend(it.expr for it in q.items if type(it) is ExprItem)
    if q.where is not None:
        out.append(q.where)
    if q.group_by:
        out.extend(q.group_by)
    return out


def _select_rebuild(q: Select, kids) -> Select:
    it_kids = iter(kids)
    sources = tuple(s if s.query is k else Source(k, s.alias, s.pos)
                    for s, k in zip(q.sources, it_kids))
    items = []
    for it in q.items:
        if type(it) is ExprItem:
            e = next(it_kids)
            it = it if e is it.expr else ExprItem(e, it.name, it.pos)
        items.append(it)
    where = next(it_kids) if q.where is not None else None
    group_by = tuple(it_kids) if q.group_by else q.group_by
    return Select(tuple(items), sources, where, group_by, q.pos)


def _rebuild(node, old, new):
    """node with children new in place of old; node itself when every new
    child is the old one."""
    if not any(map(is_not, old, new)):
        return node
    t = type(node)
    if t is Select:
        return _select_rebuild(node, new)
    if t is Cmp:
        return Cmp(node.op, new[0], new[1], node.pos)
    if t is AggQuery:
        return AggQuery(node.name, new[0], node.pos)
    if t is App:
        return App(node.name, tuple(new), node.pos)
    if t is UnionAll or t is AndP or t is OrP:
        return t(tuple(new))
    return t(*new)  # every field is a child: ExceptQ, Distinct, ...


_CHILDREN = {
    Select: _select_children,
    UnionAll: lambda n: n.branches, ExceptQ: lambda n: (n.lhs, n.rhs),
    AndP: lambda n: n.args, OrP: lambda n: n.args,
    Cmp: lambda n: (n.lhs, n.rhs), NotP: lambda n: (n.body,),
    Distinct: lambda n: (n.query,), Exists: lambda n: (n.query,),
    AggQuery: lambda n: (n.query,), App: lambda n: n.args,
}


def children(node) -> tuple | list:
    """The immediate query, predicate and expression children of node, in
    the shared child order; empty for leaves (TableRef, ColRef, Lit,
    BoolLit)."""
    get = _CHILDREN.get(type(node))
    return get(node) if get is not None else ()


def walk(node):
    """Every node under node (itself included) in pre-order, children in
    the shared child order.  Iterative, so depth costs no Python frames."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def map_children(node, f):
    """node with each child c replaced by f(c), children in the shared
    order; node itself (the same object) when every f(c) is c."""
    kids = children(node)
    return _rebuild(node, kids, [f(c) for c in kids])


def transform(node, post):
    """Bottom-up rebuild: each node's children are transformed first, in the
    shared child order, then post is applied to the node rebuilt from them
    (the same object when no child changed).  Iterative, so depth costs no
    Python frames."""
    out: list = []
    stack = [(node, None)]
    while stack:
        n, kids = stack.pop()
        if kids is None:
            kids = children(n)
            if kids:
                stack.append((n, kids))
                stack.extend((c, None) for c in reversed(kids))
                continue
        else:
            k = len(out) - len(kids)
            n = _rebuild(n, kids, out[k:])
            del out[k:]
        out.append(post(n))
    return out[0]
