"""Semiring expression trees.

The value algebra has 0, 1, +, *, a squash operator ||.|| clamping toward
0/1, a negation not(.), and summation over all tuples of a schema.  Relation
atoms R(t), predicate atoms [b], and scalar terms (attribute references,
constants, uninterpreted functions, aggregates) hang off the tree.

Expressions are immutable; substitution and comparison up to bound-variable
renaming are the structural work-horses for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .schema import Schema, footprint_key


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class AttrRef:
    var: TupleVar
    attr: str


@dataclass(frozen=True)
class Const:
    value: object
    ty: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple["Scalar", ...]


@dataclass(frozen=True)
class AggCall:
    """Uninterpreted aggregate over the bag described by ``lam var. body``."""
    name: str
    var: TupleVar
    body: "Exp"


Scalar = Union[AttrRef, Const, Func, AggCall]


@dataclass(frozen=True)
class TupleSlice:
    """Sub-tuple of ``var`` covering exactly the footprint of ``part``."""
    var: TupleVar
    part: Schema

    @property
    def key(self):
        return footprint_key(self.part)


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class EqAtom:
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class NeqAtom:
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class PredApp:
    """Uninterpreted predicate, e.g. comparisons other than equality."""
    name: str
    args: tuple[Scalar, ...]


@dataclass(frozen=True)
class TupleEqAtom:
    lhs: TupleExpr
    rhs: TupleExpr


@dataclass(frozen=True)
class TupleNeqAtom:
    lhs: TupleExpr
    rhs: TupleExpr


PredAtom = Union[EqAtom, NeqAtom, PredApp, TupleEqAtom, TupleNeqAtom]


# ---------------------------------------------------------------------------
# Expression nodes

@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Add:
    lhs: "Exp"
    rhs: "Exp"


@dataclass(frozen=True)
class Mul:
    lhs: "Exp"
    rhs: "Exp"


@dataclass(frozen=True)
class Squash:
    body: "Exp"


@dataclass(frozen=True)
class Not:
    body: "Exp"


@dataclass(frozen=True)
class Sum:
    var: TupleVar
    body: "Exp"


@dataclass(frozen=True)
class Pred:
    atom: PredAtom


@dataclass(frozen=True)
class Rel:
    name: str
    var: TupleVar


Exp = Union[Zero, One, Add, Mul, Squash, Not, Sum, Pred, Rel]

ZERO = Zero()
ONE = One()


def mul(*es: Exp) -> Exp:
    """Smart product: drops units, annihilates on zero, left-associates."""
    acc: Exp | None = None
    for e in es:
        if isinstance(e, Zero):
            return ZERO
        if isinstance(e, One):
            continue
        acc = e if acc is None else Mul(acc, e)
    return acc if acc is not None else ONE


def add(*es: Exp) -> Exp:
    acc: Exp | None = None
    for e in es:
        if isinstance(e, Zero):
            continue
        acc = e if acc is None else Add(acc, e)
    return acc if acc is not None else ZERO


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
# Free variables

def scalar_free_vars(s: Scalar) -> set[TupleVar]:
    if isinstance(s, AttrRef):
        return {s.var}
    if isinstance(s, Const):
        return set()
    if isinstance(s, Func):
        out: set[TupleVar] = set()
        for a in s.args:
            out |= scalar_free_vars(a)
        return out
    if isinstance(s, AggCall):
        return free_vars(s.body) - {s.var}
    raise TypeError(s)


def tuple_free_vars(t: TupleExpr) -> set[TupleVar]:
    if isinstance(t, TupleVar):
        return {t}
    if isinstance(t, TupleSlice):
        return {t.var}
    if isinstance(t, TupleCons):
        out: set[TupleVar] = set()
        for _, s in t.fields:
            out |= scalar_free_vars(s)
        return out
    raise TypeError(t)


def atom_free_vars(a: PredAtom) -> set[TupleVar]:
    if isinstance(a, (EqAtom, NeqAtom)):
        return scalar_free_vars(a.lhs) | scalar_free_vars(a.rhs)
    if isinstance(a, PredApp):
        out: set[TupleVar] = set()
        for s in a.args:
            out |= scalar_free_vars(s)
        return out
    if isinstance(a, (TupleEqAtom, TupleNeqAtom)):
        return tuple_free_vars(a.lhs) | tuple_free_vars(a.rhs)
    raise TypeError(a)


def free_vars(e: Exp) -> set[TupleVar]:
    if isinstance(e, (Zero, One)):
        return set()
    if isinstance(e, (Add, Mul)):
        return free_vars(e.lhs) | free_vars(e.rhs)
    if isinstance(e, (Squash, Not)):
        return free_vars(e.body)
    if isinstance(e, Sum):
        return free_vars(e.body) - {e.var}
    if isinstance(e, Pred):
        return atom_free_vars(e.atom)
    if isinstance(e, Rel):
        return {e.var}
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Substitution of a tuple variable by a tuple expression (capture-avoiding)

class SubstError(Exception):
    pass


def _subst_scalar(s: Scalar, v: TupleVar, r: TupleExpr) -> Scalar:
    if isinstance(s, AttrRef):
        if s.var != v:
            return s
        if isinstance(r, TupleVar):
            return AttrRef(r, s.attr)
        if isinstance(r, TupleSlice):
            return AttrRef(r.var, s.attr)
        fields = r.field_map()
        if s.attr not in fields:
            raise SubstError(f"record replacement lacks attribute {s.attr}")
        return fields[s.attr]
    if isinstance(s, Const):
        return s
    if isinstance(s, Func):
        return Func(s.name, tuple(_subst_scalar(a, v, r) for a in s.args))
    if isinstance(s, AggCall):
        if s.var == v:
            return s
        return AggCall(s.name, s.var, substitute(s.body, v, r))
    raise TypeError(s)


def _subst_tuple(t: TupleExpr, v: TupleVar, r: TupleExpr) -> TupleExpr:
    if isinstance(t, TupleVar):
        return r if t == v else t
    if isinstance(t, TupleSlice):
        if t.var != v:
            return t
        if isinstance(r, TupleVar):
            return TupleSlice(r, t.part)
        if isinstance(r, TupleCons):
            if t.part.rest:
                raise SubstError("cannot slice a record over a generic footprint")
            names = set(t.part.attr_names())
            fields = {n: s for n, s in r.fields if n in names}
            if set(fields) != names:
                raise SubstError("record replacement does not cover slice footprint")
            return mk_record(fields)
        raise SubstError("cannot nest slices")
    if isinstance(t, TupleCons):
        return mk_record({n: _subst_scalar(s, v, r) for n, s in t.fields})
    raise TypeError(t)


def _subst_atom(a: PredAtom, v: TupleVar, r: TupleExpr) -> PredAtom:
    if isinstance(a, EqAtom):
        return mk_eq(_subst_scalar(a.lhs, v, r), _subst_scalar(a.rhs, v, r))
    if isinstance(a, NeqAtom):
        return mk_neq(_subst_scalar(a.lhs, v, r), _subst_scalar(a.rhs, v, r))
    if isinstance(a, PredApp):
        return PredApp(a.name, tuple(_subst_scalar(s, v, r) for s in a.args))
    if isinstance(a, TupleEqAtom):
        return mk_tuple_eq(_subst_tuple(a.lhs, v, r), _subst_tuple(a.rhs, v, r))
    if isinstance(a, TupleNeqAtom):
        return mk_tuple_neq(_subst_tuple(a.lhs, v, r), _subst_tuple(a.rhs, v, r))
    raise TypeError(a)


def substitute(e: Exp, v: TupleVar, r: TupleExpr) -> Exp:
    """Replace free occurrences of ``v`` by ``r``; replacement schema must match."""
    if isinstance(r, TupleVar) and r.schema != v.schema:
        raise SubstError(f"schema mismatch substituting {v} by {r}")
    if isinstance(e, (Zero, One)):
        return e
    if isinstance(e, Add):
        return Add(substitute(e.lhs, v, r), substitute(e.rhs, v, r))
    if isinstance(e, Mul):
        return Mul(substitute(e.lhs, v, r), substitute(e.rhs, v, r))
    if isinstance(e, Squash):
        return Squash(substitute(e.body, v, r))
    if isinstance(e, Not):
        return Not(substitute(e.body, v, r))
    if isinstance(e, Sum):
        if e.var == v:
            return e
        if e.var in tuple_free_vars(r):
            raise SubstError("variable capture during substitution")
        return Sum(e.var, substitute(e.body, v, r))
    if isinstance(e, Pred):
        return Pred(_subst_atom(e.atom, v, r))
    if isinstance(e, Rel):
        if e.var != v:
            return e
        if isinstance(r, TupleVar):
            return Rel(e.name, r)
        raise SubstError(f"cannot substitute non-variable tuple into {e.name}(...)")
    raise TypeError(e)


def _replace_in_scalar(s: Scalar, old: Scalar, new: Scalar) -> Scalar:
    if s == old:
        return new
    if isinstance(s, Func):
        return Func(s.name, tuple(_replace_in_scalar(a, old, new) for a in s.args))
    if isinstance(s, AggCall):
        return AggCall(s.name, s.var, replace_scalar(s.body, old, new))
    return s


def _replace_in_tuple(t: TupleExpr, old: Scalar, new: Scalar) -> TupleExpr:
    if isinstance(t, TupleCons):
        return mk_record({n: _replace_in_scalar(s, old, new) for n, s in t.fields})
    return t


def _replace_in_atom(a: PredAtom, old: Scalar, new: Scalar) -> PredAtom:
    if isinstance(a, EqAtom):
        return mk_eq(_replace_in_scalar(a.lhs, old, new), _replace_in_scalar(a.rhs, old, new))
    if isinstance(a, NeqAtom):
        return mk_neq(_replace_in_scalar(a.lhs, old, new), _replace_in_scalar(a.rhs, old, new))
    if isinstance(a, PredApp):
        return PredApp(a.name, tuple(_replace_in_scalar(s, old, new) for s in a.args))
    if isinstance(a, TupleEqAtom):
        return mk_tuple_eq(_replace_in_tuple(a.lhs, old, new), _replace_in_tuple(a.rhs, old, new))
    if isinstance(a, TupleNeqAtom):
        return mk_tuple_neq(_replace_in_tuple(a.lhs, old, new), _replace_in_tuple(a.rhs, old, new))
    raise TypeError(a)


def replace_scalar(e: Exp, old: Scalar, new: Scalar) -> Exp:
    """Replace every occurrence of the scalar term ``old`` by ``new``."""
    if isinstance(e, (Zero, One, Rel)):
        return e
    if isinstance(e, Add):
        return Add(replace_scalar(e.lhs, old, new), replace_scalar(e.rhs, old, new))
    if isinstance(e, Mul):
        return Mul(replace_scalar(e.lhs, old, new), replace_scalar(e.rhs, old, new))
    if isinstance(e, Squash):
        return Squash(replace_scalar(e.body, old, new))
    if isinstance(e, Not):
        return Not(replace_scalar(e.body, old, new))
    if isinstance(e, Sum):
        return Sum(e.var, replace_scalar(e.body, old, new))
    if isinstance(e, Pred):
        return Pred(_replace_in_atom(e.atom, old, new))
    raise TypeError(e)


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
        return ("agg", s.name, _canon(s.body, dict(env), counter, s.var))
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
           bind_first: TupleVar | None = None) -> tuple:
    if bind_first is not None:
        counter[0] += 1
        env[bind_first.vid] = ("bound", counter[0])
    if isinstance(e, Zero):
        return ("0",)
    if isinstance(e, One):
        return ("1",)
    if isinstance(e, Add):
        return ("+", _canon(e.lhs, env, counter), _canon(e.rhs, env, counter))
    if isinstance(e, Mul):
        return ("*", _canon(e.lhs, env, counter), _canon(e.rhs, env, counter))
    if isinstance(e, Squash):
        return ("||", _canon(e.body, env, counter))
    if isinstance(e, Not):
        return ("not", _canon(e.body, env, counter))
    if isinstance(e, Sum):
        counter[0] += 1
        inner = dict(env)
        inner[e.var.vid] = ("bound", counter[0])
        return ("sum", footprint_key(e.var.schema), _canon(e.body, inner, counter))
    if isinstance(e, Pred):
        return ("[]", _canon_atom(e.atom, env, counter))
    if isinstance(e, Rel):
        return ("rel", e.name, env.get(e.var.vid, ("free", e.var.vid)))
    raise TypeError(e)


def canon_key(e: Exp, free_names: dict[int, object] | None = None) -> tuple:
    """Alpha-invariant structural key; free vars keyed by ``free_names``."""
    env: dict[int, object] = {}
    if free_names:
        for vid, name in free_names.items():
            env[vid] = ("named", name)
    return _canon(e, env, [0])


def agg_canon_key(agg: AggCall) -> tuple:
    """Alpha-invariant key of an aggregate's bag abstraction (binds its
    tuple variable before keying the body)."""
    return (agg.name, footprint_key(agg.var.schema),
            _canon(agg.body, {}, [0], bind_first=agg.var))


def alpha_equal(e1: Exp, e2: Exp,
                pairs: list[tuple[TupleVar, TupleVar]] | None = None) -> bool:
    """Structural equality up to bound-variable renaming.

    ``pairs`` aligns free variables of ``e1`` with those of ``e2`` (e.g. the
    two output variables); unpaired free variables must be identical.
    """
    n1: dict[int, object] = {}
    n2: dict[int, object] = {}
    for i, (a, b) in enumerate(pairs or []):
        n1[a.vid] = ("pair", i)
        n2[b.vid] = ("pair", i)
    return canon_key(e1, n1) == canon_key(e2, n2)


# ---------------------------------------------------------------------------
# Printer with deterministic variable numbering

def _name_binders(e: Exp, names: dict[int, str], counter: list[int]) -> None:
    if isinstance(e, Sum):
        counter[0] += 1
        names.setdefault(e.var.vid, f"t{counter[0]}")
        _name_binders(e.body, names, counter)
    elif isinstance(e, (Add, Mul)):
        _name_binders(e.lhs, names, counter)
        _name_binders(e.rhs, names, counter)
    elif isinstance(e, (Squash, Not)):
        _name_binders(e.body, names, counter)
    elif isinstance(e, Pred):
        for s in _atom_scalars(e.atom):
            if isinstance(s, AggCall):
                counter[0] += 1
                names.setdefault(s.var.vid, f"t{counter[0]}")
                _name_binders(s.body, names, counter)


def _scalar_subterms(s: Scalar) -> Iterator[Scalar]:
    yield s
    if isinstance(s, Func):
        for a in s.args:
            yield from _scalar_subterms(a)


def _atom_scalars(a: PredAtom) -> Iterator[Scalar]:
    """All scalar subterms of an atom, including inside records."""
    tops: list[Scalar] = []
    if isinstance(a, (EqAtom, NeqAtom)):
        tops = [a.lhs, a.rhs]
    elif isinstance(a, PredApp):
        tops = list(a.args)
    elif isinstance(a, (TupleEqAtom, TupleNeqAtom)):
        for side in (a.lhs, a.rhs):
            if isinstance(side, TupleCons):
                tops.extend(s for _, s in side.fields)
    for t in tops:
        yield from _scalar_subterms(t)


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
    _name_binders(e, names, [0])
    return _pp(e, names, 0)


def _pp(e: Exp, names: dict[int, str], prec: int) -> str:
    # prec: 0 sum/add, 1 mul, 2 atom
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, One):
        return "1"
    if isinstance(e, Add):
        s = f"{_pp(e.lhs, names, 0)} + {_pp(e.rhs, names, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Mul):
        s = f"{_pp(e.lhs, names, 1)} * {_pp(e.rhs, names, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(e, Squash):
        return f"||{_pp(e.body, names, 0)}||"
    if isinstance(e, Not):
        return f"not({_pp(e.body, names, 0)})"
    if isinstance(e, Sum):
        binders = [e.var]
        body = e.body
        while isinstance(body, Sum):
            binders.append(body.var)
            body = body.body
        head = ",".join(_pname(v, names) for v in binders)
        s = f"sum{{{head}}} {_pp(body, names, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Pred):
        return print_atom(e.atom, names)
    if isinstance(e, Rel):
        return f"{e.name}({_pname(e.var, names)})"
    raise TypeError(e)


def count_nodes(e: Exp) -> int:
    if isinstance(e, (Zero, One, Pred, Rel)):
        return 1
    if isinstance(e, (Add, Mul)):
        return 1 + count_nodes(e.lhs) + count_nodes(e.rhs)
    if isinstance(e, (Squash, Not)):
        return 1 + count_nodes(e.body)
    if isinstance(e, Sum):
        return 1 + count_nodes(e.body)
    raise TypeError(e)
