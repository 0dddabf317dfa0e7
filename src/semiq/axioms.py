"""The equational kernel.

``AXIOMS`` is the reference catalog of the identities the normalizer
applies, each as a function that rewrites the root of the expression it is
given or raises ``AxiomMatchError``.  The tests model-check each entry,
and the term algebra of ``spnf`` logs each application by its name: it
applies the identities to terms directly, not through these functions.  A
sum and a summation are each one node (see ``exprs``): ``sum-add``,
``distr-mul-add`` and ``add-zero`` act on every term of a sum, and
``sum-add``, ``sum-hoist`` and ``sum-zero`` on every binder of a summation,
in one application.  The other identities of the paper are model-checked in
the tests, not executed here.
"""

from __future__ import annotations

from typing import Callable

from .exprs import (
    Add, Mul, Not, One, Pred, Squash, Sum, Exp, Zero, ZERO, ONE, add,
    free_vars, sum_,
)


class AxiomMatchError(Exception):
    pass


# -- semiring ---------------------------------------------------------------

def _add_zero(e):
    # every zero term at once; ZERO when all are
    if isinstance(e, Add) and any(type(t) is Zero for t in e.terms):
        return add(*(t for t in e.terms if type(t) is not Zero))
    raise AxiomMatchError("add-zero")


def _pair(e, axiom: str) -> tuple[Exp, Exp]:
    # the two-factor product the normalizer builds
    if isinstance(e, Mul) and len(e.factors) == 2:
        return e.factors
    raise AxiomMatchError(axiom)


def _mul_one(e):
    l, r = _pair(e, "mul-one")
    if isinstance(l, One):
        return r
    if isinstance(r, One):
        return l
    raise AxiomMatchError("mul-one")


def _mul_zero(e):
    l, r = _pair(e, "mul-zero")
    if isinstance(l, Zero) or isinstance(r, Zero):
        return ZERO
    raise AxiomMatchError("mul-zero")


def _distr_mul_add(e):
    # (a + b) * (c + d) -> a*c + b*c + a*d + b*d: both factors' terms at once,
    # the left factor's varying fastest (the order splitting the right
    # factor first, one binary sum at a time, gives)
    l, r = _pair(e, "distr-mul-add")
    if isinstance(l, Add) or isinstance(r, Add):
        ls = l.terms if isinstance(l, Add) else (l,)
        rs = r.terms if isinstance(r, Add) else (r,)
        return Add(tuple(Mul((x, y)) for y in rs for x in ls))
    raise AxiomMatchError("distr-mul-add")


# -- squash -----------------------------------------------------------------

def _squash_zero(e):
    if isinstance(e, Squash) and isinstance(e.body, Zero):
        return ZERO
    raise AxiomMatchError("squash-zero")


def _squash_one(e):
    if isinstance(e, Squash) and isinstance(e.body, One):
        return ONE
    raise AxiomMatchError("squash-one")


def _squash_one_plus(e):
    if isinstance(e, Squash) and isinstance(e.body, Add):
        if any(isinstance(t, One) for t in e.body.terms):
            return ONE
    raise AxiomMatchError("squash-one-plus")


def _squash_lift_add(e):
    # ||  ||x|| + y || -> || x + y ||
    if isinstance(e, Squash) and isinstance(e.body, Add):
        terms = e.body.terms
        for i, t in enumerate(terms):
            if isinstance(t, Squash):
                return Squash(add(*terms[:i], t.body, *terms[i + 1:]))
    raise AxiomMatchError("squash-lift-add")


def _squash_idem(e):
    if isinstance(e, Squash) and isinstance(e.body, Squash):
        return e.body
    raise AxiomMatchError("squash-idem")


# -- negation ---------------------------------------------------------------

def _not_zero(e):
    if isinstance(e, Not) and isinstance(e.body, Zero):
        return ONE
    raise AxiomMatchError("not-zero")


def _not_squash(e):
    if isinstance(e, Not) and isinstance(e.body, Squash):
        return Not(e.body.body)
    raise AxiomMatchError("not-squash")


def _squash_not(e):
    if isinstance(e, Squash) and isinstance(e.body, Not):
        return e.body
    raise AxiomMatchError("squash-not")


# -- summation --------------------------------------------------------------

def _sum_add(e):
    # sum{v..} (a + b + ...) -> sum{v..} a + sum{v..} b + ...: all at once
    if isinstance(e, Sum) and isinstance(e.body, Add):
        return Add(tuple(sum_(e.vars, t) for t in e.body.terms))
    raise AxiomMatchError("sum-add")


def _sum_hoist(e):
    # (sum{u..} x) * (sum{v..} y) -> sum{v.., u..} (x * y): the binders of
    # both factors in one step, the right factor's first (the order
    # hoisting one binder at a time gives).  No binder may be free in the
    # other factor, nor a left binder bound on the right as well; each
    # side's free variables are collected once, and only if the other side
    # has binders to check against them.
    l, r = _pair(e, "sum-hoist")
    if type(l) is Sum or type(r) is Sum:
        us, x = (l.vars, l.body) if type(l) is Sum else ((), l)
        vs, y = (r.vars, r.body) if type(r) is Sum else ((), r)
        l_free = {v.vid for v in free_vars(l)} if vs else ()
        r_taken = {v.vid for v in (*free_vars(r), *vs)} if us else ()
        if any(v.vid in l_free for v in vs) or any(u.vid in r_taken for u in us):
            raise AxiomMatchError("sum-hoist")
        return Sum(vs + us, Mul((x, y)))
    raise AxiomMatchError("sum-hoist")


def _sum_zero(e):
    if isinstance(e, Sum) and isinstance(e.body, Zero):
        return ZERO
    raise AxiomMatchError("sum-zero")


# -- predicates -------------------------------------------------------------

def _pred_squash_elim(e):
    if isinstance(e, Squash) and isinstance(e.body, Pred):
        return e.body
    raise AxiomMatchError("pred-squash-elim")


AXIOMS: dict[str, Callable] = {
    "add-zero": _add_zero,
    "mul-one": _mul_one,
    "mul-zero": _mul_zero,
    "distr-mul-add": _distr_mul_add,
    "squash-zero": _squash_zero,
    "squash-one": _squash_one,
    "squash-one-plus": _squash_one_plus,
    "squash-lift-add": _squash_lift_add,
    "squash-idem": _squash_idem,
    "not-zero": _not_zero,
    "not-squash": _not_squash,
    "squash-not": _squash_not,
    "sum-add": _sum_add,
    "sum-hoist": _sum_hoist,
    "sum-zero": _sum_zero,
    "pred-squash-elim": _pred_squash_elim,
}


