"""Semiring expression trees.

The value algebra has 0, 1, +, *, a squash operator ||.|| clamping toward
0/1, a negation not(.), and summation over all tuples of a schema.  Relation
atoms R(t), predicate atoms [b], and scalar terms (attribute references,
constants, uninterpreted functions, aggregates) hang off the tree.

A sum is one node, ``Add(terms)``, and a product one node, ``Mul(factors)``.
Each stands for the left spine of binary nodes over its operands: a k-operand
node counts k - 1 nodes, and operand i has the trace path of that spine
(``l.`` k - 1 - i times, then ``r.`` if i > 0).  No term of a sum is itself
a sum (``add`` splices them in); a factor that is a product stays one factor.
A summation is one node too, ``Sum(vars, body)``, over distinct binders and
a body that is not a summation (``sum_`` splices one in); it stands for the
nest of one-binder summations, outermost first: k binders count k nodes.

Nodes are slotted value classes, immutable by convention (checked by
tests/test_value_nodes.py); substitution and alpha-comparison drive the rest.
"""

from __future__ import annotations

from operator import is_
from typing import Iterator, Union

from .record import record
from .schema import Schema, footprint_key


@record(hash=True)
class TupleVar:
    vid: int
    schema: Schema
    hint: str = "t"

    def __repr__(self) -> str:
        return f"{self.hint}{self.vid}"


class VarGen:
    """Fresh tuple-variable supply; one per pipeline run for determinism."""

    def __init__(self, start: int = 1):
        self._next = start

    def fresh(self, schema: Schema, hint: str = "t") -> TupleVar:
        v = TupleVar(self._next, schema, hint)
        self._next += 1
        return v


# ---------------------------------------------------------------------------
# Scalars and tuple expressions

@record(hash=True)
class AttrRef:
    var: TupleVar
    attr: str


@record(hash=True)
class Const:
    value: object
    ty: str


@record(hash=True)
class Func:
    name: str
    args: tuple["Scalar", ...]


@record(hash=True)
class AggCall:
    """Uninterpreted aggregate over the bag described by ``lam var. body``."""
    name: str
    var: TupleVar
    body: "Exp"


Scalar = Union[AttrRef, Const, Func, AggCall]


@record(hash=True)
class TupleSlice:
    """Sub-tuple of ``var`` covering exactly the footprint of ``part``."""
    var: TupleVar
    part: Schema


@record(hash=True)
class TupleCons:
    """Record literal: named attributes mapped to scalar expressions."""
    fields: tuple[tuple[str, Scalar], ...]  # sorted by attribute name

    def field_map(self) -> dict[str, Scalar]:
        return dict(self.fields)


TupleExpr = Union[TupleVar, TupleSlice, TupleCons]


def mk_record(fields: dict[str, Scalar]) -> TupleCons:
    return TupleCons(tuple(sorted(fields.items())))


# ---------------------------------------------------------------------------
# Predicate atoms; all satisfy [b] = ||[b]|| by construction.

@record(hash=True)
class EqAtom:
    lhs: Scalar
    rhs: Scalar


@record(hash=True)
class NeqAtom:
    lhs: Scalar
    rhs: Scalar


@record(hash=True)
class PredApp:
    """Uninterpreted predicate, e.g. comparisons other than equality."""
    name: str
    args: tuple[Scalar, ...]


@record(hash=True)
class TupleEqAtom:
    lhs: TupleExpr
    rhs: TupleExpr


@record(hash=True)
class TupleNeqAtom:
    lhs: TupleExpr
    rhs: TupleExpr


PredAtom = Union[EqAtom, NeqAtom, PredApp, TupleEqAtom, TupleNeqAtom]


# ---------------------------------------------------------------------------
# Expression nodes

@record(hash=True)
class Zero:
    pass


@record(hash=True)
class One:
    pass


@record(hash=True)
class Add:
    """Two or more terms, none a sum; see ``add``."""
    terms: tuple["Exp", ...]


@record(hash=True)
class Mul:
    """Two or more factors; stands for the left spine of binary products.  A
    factor that is itself a product stays one factor."""
    factors: tuple["Exp", ...]


@record(hash=True)
class Squash:
    body: "Exp"


@record(hash=True)
class Not:
    body: "Exp"


@record(hash=True)
class Sum:
    """One or more distinct binders over a body; see ``sum_``."""
    vars: tuple[TupleVar, ...]
    body: "Exp"


@record(hash=True)
class Pred:
    atom: PredAtom


@record(hash=True)
class Rel:
    name: str
    var: TupleVar


Exp = Union[Zero, One, Add, Mul, Squash, Not, Sum, Pred, Rel]

ZERO = Zero()
ONE = One()


def mul(*es: Exp) -> Exp:
    """Smart product: drops units, annihilates on zero; one node, a lone
    factor, or ONE."""
    fs = tuple(e for e in es if not isinstance(e, One))
    if any(isinstance(e, Zero) for e in fs):
        return ZERO
    return Mul(fs) if len(fs) > 1 else fs[0] if fs else ONE


def add(*es: Exp) -> Exp:
    """Smart sum: splices in the terms of nested sums; one node, a lone term,
    or ZERO.  Zero terms stay: dropping them is the step add-zero."""
    ts: list[Exp] = []
    for e in es:
        if type(e) is Add:
            ts.extend(e.terms)
        else:
            ts.append(e)
    return Add(tuple(ts)) if len(ts) > 1 else ts[0] if ts else ZERO


def sum_(vs: tuple[TupleVar, ...], body: Exp) -> Exp:
    """Smart summation: one node, a summation body's binders spliced in, or
    the body alone when there are no binders."""
    if type(body) is Sum:
        vs, body = vs + body.vars, body.body
    return Sum(vs, body) if vs else body


def mk_eq(l: Scalar, r: Scalar) -> PredAtom:
    return EqAtom(*sorted((l, r), key=scalar_sort_key))


def mk_neq(l: Scalar, r: Scalar) -> PredAtom:
    return NeqAtom(*sorted((l, r), key=scalar_sort_key))


def mk_tuple_eq(l: TupleExpr, r: TupleExpr) -> PredAtom:
    return TupleEqAtom(*sorted((l, r), key=tuple_sort_key))


def mk_tuple_neq(l: TupleExpr, r: TupleExpr) -> PredAtom:
    return TupleNeqAtom(*sorted((l, r), key=tuple_sort_key))


def scalar_sort_key(s: Scalar) -> tuple:
    if isinstance(s, Const):
        return (0, s.ty, repr(s.value))
    if isinstance(s, AttrRef):
        return (1, s.var.vid, s.attr)
    if isinstance(s, Func):
        return (2, s.name, tuple(scalar_sort_key(a) for a in s.args))
    if isinstance(s, AggCall):
        return (3, s.name, pretty(s.body))
    raise TypeError(s)


def tuple_sort_key(t: TupleExpr) -> tuple:
    if isinstance(t, TupleVar):
        return (0, t.vid)
    if isinstance(t, TupleSlice):
        return (1, t.var.vid, sorted(t.part.attr_names()), sorted(t.part.rest))
    if isinstance(t, TupleCons):
        return (2, tuple((n, scalar_sort_key(s)) for n, s in t.fields))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Traversal
#
# The one place that knows a node's children and how to rebuild a node from
# new ones.  Node kinds: expressions, predicate atoms, scalars and tuple
# expressions.  Child order, shared by every function below: lhs before rhs,
# a sum's terms and a product's factors left to right;
# a Sum's or an AggCall's body (their bound variables are not children); a
# Pred's atom; Func and PredApp arguments left to right; a record's field
# values in attribute order.  Variables reached through AttrRef, TupleSlice
# and Rel are fields, not children; a TupleVar in tuple position is a leaf.

_CHILDREN = {
    Add: lambda n: n.terms, Mul: lambda n: n.factors,
    Squash: lambda n: (n.body,), Not: lambda n: (n.body,),
    Sum: lambda n: (n.body,), AggCall: lambda n: (n.body,),
    Pred: lambda n: (n.atom,),
    EqAtom: lambda n: (n.lhs, n.rhs), NeqAtom: lambda n: (n.lhs, n.rhs),
    TupleEqAtom: lambda n: (n.lhs, n.rhs), TupleNeqAtom: lambda n: (n.lhs, n.rhs),
    PredApp: lambda n: n.args, Func: lambda n: n.args,
    TupleCons: lambda n: tuple(s for _, s in n.fields),
}

# Symmetric atoms and records go through their mk_ constructors, which keep
# them sorted, a sum through add and a summation through sum_, which keep
# them flat.
_REBUILD = {
    Add: lambda n, k: add(*k), Mul: lambda n, k: Mul(tuple(k)),
    Squash: lambda n, k: Squash(*k), Not: lambda n, k: Not(*k),
    Sum: lambda n, k: sum_(n.vars, *k), AggCall: lambda n, k: AggCall(n.name, n.var, *k),
    Pred: lambda n, k: Pred(*k),
    EqAtom: lambda n, k: mk_eq(*k), NeqAtom: lambda n, k: mk_neq(*k),
    TupleEqAtom: lambda n, k: mk_tuple_eq(*k), TupleNeqAtom: lambda n, k: mk_tuple_neq(*k),
    PredApp: lambda n, k: PredApp(n.name, tuple(k)), Func: lambda n, k: Func(n.name, tuple(k)),
    TupleCons: lambda n, k: mk_record(dict(zip((a for a, _ in n.fields), k))),
}


def children(n) -> tuple:
    """The immediate children of any node, in the shared child order; empty
    for leaves (Zero, One, Rel, Const, AttrRef, TupleVar, TupleSlice)."""
    get = _CHILDREN.get(type(n))
    return get(n) if get is not None else ()


def walk(n) -> Iterator:
    """Every node under n (itself included) in pre-order, children in the
    shared child order.  Iterative, so depth costs no Python frames."""
    stack = [n]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(children(x)))


def rewrite(n, f):
    """Top-down rebuild.  f is tried on each node in pre-order: a node it
    returns replaces that node and is not descended into; on None the node is
    rebuilt from its rewritten children (the same object when none changed).
    Iterative, so depth costs no Python frames."""
    r = f(n)
    if r is not None:
        return r
    kids = children(n)
    if not kids:
        return n
    # one frame per open node: (node, children, children left, new children)
    frames = [(n, kids, iter(kids), [])]
    while True:
        x, kids, todo, new = frames[-1]
        for c in todo:
            r = f(c)
            if r is None:
                ck = children(c)
                if ck:
                    frames.append((c, ck, iter(ck), []))
                    break
                r = c
            new.append(r)
        else:
            frames.pop()
            r = x if all(map(is_, kids, new)) else _REBUILD[type(x)](x, new)
            if not frames:
                return r
            frames[-1][3].append(r)


def count_nodes(e: Exp) -> int:
    """Expression nodes of e; a Pred counts one, whatever its atom holds, a
    k-term sum or k-factor product k - 1 and a k-binder summation k, the
    binary and one-binder nodes they stand for."""
    count, stack = 0, [e]
    while stack:
        x = stack.pop()
        t = type(x)
        count += (len(x.vars) if t is Sum else
                  len(children(x)) - 1 if t is Add or t is Mul else 1)
        if type(x) is not Pred:
            stack.extend(children(x))
    return count


# ---------------------------------------------------------------------------
# Free variables

def free_vars(n) -> set[TupleVar]:
    """Free tuple variables of any node; Sum and AggCall bind their vars."""
    out: set[TupleVar] = set()
    stack = [n]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is AttrRef or t is TupleSlice or t is Rel:
            out.add(x.var)
        elif t is TupleVar:
            out.add(x)
        elif t is Sum or t is AggCall:
            inner = free_vars(x.body)
            inner.difference_update(x.vars if t is Sum else (x.var,))
            out |= inner
        else:
            stack.extend(children(x))
    return out


# ---------------------------------------------------------------------------
# Substitution of a tuple variable by a tuple expression (capture-avoiding)

class SubstError(Exception):
    pass


def substitute(e, mapping: dict[TupleVar, TupleExpr]):
    """Replace the free occurrences of each variable of ``mapping`` in any
    node by its tuple expression, all at once; a replacement variable's
    attribute footprint must match (its types may differ through ``?``).  Raises SubstError where a binder (Sum or AggCall)
    would capture a variable of a replacement."""
    return substitution(mapping)(e)


def substitution(mapping: dict[TupleVar, TupleExpr]):
    """`substitute` by ``mapping`` as a function of the node, the mapping
    checked once for all the nodes it is applied to."""
    by_vid: dict[int, tuple[TupleVar, TupleExpr]] = {}
    for v, r in mapping.items():
        if isinstance(r, TupleVar) and r.schema != v.schema and \
                footprint_key(r.schema) != footprint_key(v.schema):
            raise SubstError(f"schema mismatch substituting {v} by {r}")
        by_vid[v.vid] = (v, r)
    # the replacements' free variables, collected at the first binder
    r_vars: set[TupleVar] | None = None

    def step(n):
        nonlocal r_vars
        t = type(n)
        if t is AttrRef:
            # the hot case: a vid lookup settles most misses without
            # TupleVar's field-by-field comparison
            hit = by_vid.get(n.var.vid)
            if hit is None or n.var != hit[0]:
                return n
            r = hit[1]
            if isinstance(r, TupleVar):
                return AttrRef(r, n.attr)
            if isinstance(r, TupleSlice):
                return AttrRef(r.var, n.attr)
            fields = r.field_map()
            if n.attr not in fields:
                raise SubstError(f"record replacement lacks attribute {n.attr}")
            return fields[n.attr]
        if t is TupleVar:
            hit = by_vid.get(n.vid)
            return hit[1] if hit is not None and n == hit[0] else n
        if t is TupleSlice:
            hit = by_vid.get(n.var.vid)
            if hit is None or n.var != hit[0]:
                return n
            r = hit[1]
            if isinstance(r, TupleVar):
                return TupleSlice(r, n.part)
            if isinstance(r, TupleCons):
                if n.part.rest:
                    raise SubstError("cannot slice a record over a generic footprint")
                names = set(n.part.attr_names())
                fields = {a: s for a, s in r.fields if a in names}
                if set(fields) != names:
                    raise SubstError("record replacement does not cover slice footprint")
                return mk_record(fields)
            raise SubstError("cannot nest slices")
        if t is Rel:
            hit = by_vid.get(n.var.vid)
            if hit is None or n.var != hit[0]:
                return n
            if isinstance(hit[1], TupleVar):
                return Rel(n.name, hit[1])
            raise SubstError(f"cannot substitute non-variable tuple into {n.name}(...)")
        if t is Sum or t is AggCall:
            binders = n.vars if t is Sum else (n.var,)
            shadowed = [v for v in binders
                        if (hit := by_vid.get(v.vid)) is not None and v == hit[0]]
            if shadowed:
                # a binder shadows its variable; the others go on inside
                rest = {v: r for v, r in mapping.items() if v not in shadowed}
                if not rest:
                    return n
                if not set().union(*map(free_vars, rest.values())).isdisjoint(binders):
                    raise SubstError("variable capture during substitution")
                body = substitute(n.body, rest)
                return Sum(n.vars, body) if t is Sum else AggCall(n.name, n.var, body)
            if r_vars is None:
                r_vars = set().union(*map(free_vars, mapping.values()))
            if not r_vars.isdisjoint(binders):
                raise SubstError("variable capture during substitution")
        return None

    return lambda e: rewrite(e, step)


# ---------------------------------------------------------------------------
# Canonical (alpha-normal) keys and pretty printing

def _canon_scalar(s: Scalar, env: dict[int, object], counter: list[int]) -> tuple:
    if isinstance(s, AttrRef):
        return ("attr", env.get(s.var.vid, ("free", s.var.vid)), s.attr)
    if isinstance(s, Const):
        return ("const", s.ty, repr(s.value))
    if isinstance(s, Func):
        return ("func", s.name,
                tuple(_canon_scalar(a, env, counter) for a in s.args))
    if isinstance(s, AggCall):
        return ("agg", s.name, _canon(s.body, dict(env), counter, (s.var,)))
    raise TypeError(s)


def _canon_tuple(t: TupleExpr, env: dict[int, object], counter: list[int]) -> tuple:
    if isinstance(t, TupleVar):
        return ("var", env.get(t.vid, ("free", t.vid)))
    if isinstance(t, TupleSlice):
        return ("slice", env.get(t.var.vid, ("free", t.var.vid)),
                tuple(sorted(t.part.attr_names())), tuple(sorted(t.part.rest)))
    if isinstance(t, TupleCons):
        return ("record",
                tuple((n, _canon_scalar(s, env, counter)) for n, s in t.fields))
    raise TypeError(t)


def _canon_atom(a: PredAtom, env: dict[int, object], counter: list[int]) -> tuple:
    if isinstance(a, (EqAtom, NeqAtom)):
        tag = "eq" if isinstance(a, EqAtom) else "neq"
        sides = sorted((_canon_scalar(a.lhs, env, counter),
                        _canon_scalar(a.rhs, env, counter)))
        return (tag, tuple(sides))
    if isinstance(a, PredApp):
        return ("pred", a.name,
                tuple(_canon_scalar(s, env, counter) for s in a.args))
    if isinstance(a, (TupleEqAtom, TupleNeqAtom)):
        tag = "teq" if isinstance(a, TupleEqAtom) else "tneq"
        sides = sorted((_canon_tuple(a.lhs, env, counter),
                        _canon_tuple(a.rhs, env, counter)))
        return (tag, tuple(sides))
    raise TypeError(a)


def _canon(e: Exp, env: dict[int, object], counter: list[int],
           binders: tuple[TupleVar, ...] = ()) -> tuple:
    for v in binders:
        counter[0] += 1
        env[v.vid] = ("bound", counter[0])
    if isinstance(e, Zero):
        return ("0",)
    if isinstance(e, One):
        return ("1",)
    if isinstance(e, (Add, Mul)):
        return ("+" if isinstance(e, Add) else "*",
                *(_canon(c, env, counter) for c in children(e)))
    if isinstance(e, Squash):
        return ("||", _canon(e.body, env, counter))
    if isinstance(e, Not):
        return ("not", _canon(e.body, env, counter))
    if isinstance(e, Sum):
        key = _canon(e.body, dict(env), counter, e.vars)
        for v in reversed(e.vars):  # the nest of one-binder summations
            key = ("sum", footprint_key(v.schema), key)
        return key
    if isinstance(e, Pred):
        return ("[]", _canon_atom(e.atom, env, counter))
    if isinstance(e, Rel):
        return ("rel", e.name, env.get(e.var.vid, ("free", e.var.vid)))
    raise TypeError(e)


def canon_key(e: Exp) -> tuple:
    """Alpha-invariant structural key; free vars keyed by their vid."""
    return _canon(e, {}, [0])


def agg_canon_key(agg: AggCall) -> tuple:
    """Alpha-invariant key of an aggregate's bag abstraction (binds its
    tuple variable before keying the body)."""
    return (agg.name, footprint_key(agg.var.schema),
            _canon(agg.body, {}, [0], (agg.var,)))


# ---------------------------------------------------------------------------
# Printer with deterministic variable numbering

def _pname(v: TupleVar, names: dict[int, str]) -> str:
    return names.get(v.vid, f"{v.hint}{v.vid}")


def _print_scalar(s: Scalar, names: dict[int, str]) -> str:
    if isinstance(s, AttrRef):
        return f"{_pname(s.var, names)}.{s.attr}"
    if isinstance(s, Const):
        if s.ty == "string":
            return f"'{s.value}'"
        return str(s.value).upper() if s.ty == "bool" else str(s.value)
    if isinstance(s, Func):
        return f"{s.name}({', '.join(_print_scalar(a, names) for a in s.args)})"
    if isinstance(s, AggCall):
        return f"{s.name}(lam {_pname(s.var, names)}. {pretty(s.body, dict(names))})"
    raise TypeError(s)


def _print_tuple(t: TupleExpr, names: dict[int, str]) -> str:
    if isinstance(t, TupleVar):
        return _pname(t, names)
    if isinstance(t, TupleSlice):
        attrs = ",".join(sorted(t.part.attr_names()) + [f"??{r}" for r in sorted(t.part.rest)])
        return f"{_pname(t.var, names)}|{{{attrs}}}"
    if isinstance(t, TupleCons):
        inner = ", ".join(f"{n}: {_print_scalar(s, names)}" for n, s in t.fields)
        return f"({inner})"
    raise TypeError(t)


def _sorted_sides(l: str, r: str) -> tuple[str, str]:
    return (l, r) if (len(l), l) <= (len(r), r) else (r, l)


def print_atom(a: PredAtom, names: dict[int, str]) -> str:
    # symmetric atoms print shorter side first, so alpha-equal expressions
    # render identically
    if isinstance(a, EqAtom):
        l, r = _sorted_sides(_print_scalar(a.lhs, names), _print_scalar(a.rhs, names))
        return f"[{l} = {r}]"
    if isinstance(a, NeqAtom):
        l, r = _sorted_sides(_print_scalar(a.lhs, names), _print_scalar(a.rhs, names))
        return f"[{l} != {r}]"
    if isinstance(a, PredApp):
        if len(a.args) == 2 and not a.name[0].isalpha():
            return (f"[{_print_scalar(a.args[0], names)} {a.name} "
                    f"{_print_scalar(a.args[1], names)}]")
        return f"[{a.name}({', '.join(_print_scalar(s, names) for s in a.args)})]"
    if isinstance(a, TupleEqAtom):
        l, r = _sorted_sides(_print_tuple(a.lhs, names), _print_tuple(a.rhs, names))
        return f"[{l} = {r}]"
    if isinstance(a, TupleNeqAtom):
        l, r = _sorted_sides(_print_tuple(a.lhs, names), _print_tuple(a.rhs, names))
        return f"[{l} != {r}]"
    raise TypeError(a)


def pretty(e: Exp, names: dict[int, str] | None = None) -> str:
    """Deterministic rendering; bound variables numbered in binder order."""
    names = dict(names) if names else {}
    counter = 0
    for n in walk(e):
        if type(n) is Sum or type(n) is AggCall:
            for v in n.vars if type(n) is Sum else (n.var,):
                counter += 1
                names.setdefault(v.vid, f"t{counter}")
    # an explicit stack, so nesting costs no Python frames: ``todo`` holds
    # what is left to print, next last, as strings and (expression, prec)
    # pairs; prec: 0 sum/add, 1 mul, 2 atom
    out: list[str] = []
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, (Add, Mul)):
            parts, sep, inner = ((e.terms, " + ", 0) if isinstance(e, Add)
                                 else (e.factors, " * ", 1))
            out.append("(" if prec > inner else "")
            todo.append(")" if prec > inner else "")
            for k in range(len(parts) - 1, 0, -1):
                todo += ((parts[k], inner), sep)
            todo.append((parts[0], inner))
        elif isinstance(e, (Squash, Not)):
            out.append("||" if isinstance(e, Squash) else "not(")
            todo += ("||" if isinstance(e, Squash) else ")", (e.body, 0))
        elif isinstance(e, Sum):
            head = ",".join(_pname(v, names) for v in e.vars)
            out.append(f"{'(' if prec > 0 else ''}sum{{{head}}} ")
            todo += (")" if prec > 0 else "", (e.body, 1))
        elif isinstance(e, Pred):
            out.append(print_atom(e.atom, names))
        elif isinstance(e, Rel):
            out.append(f"{e.name}({_pname(e.var, names)})")
        elif isinstance(e, (Zero, One)):
            out.append("0" if isinstance(e, Zero) else "1")
        else:
            raise TypeError(e)
    return "".join(out)
