"""The equational kernel.

Every rewrite the system performs is an application of one of the named
identities below at a position in an expression tree.  ``apply_axiom``
navigates to the position, matches the identity's left-hand side, and
replaces it with the right-hand side; everything above is rebuilt unchanged.

Products are treated as commutative-associative at the chain level: a few
entries ("prod-comm", "squash-mul", "pull-not") act on a whole product chain
and stand for the finite sequence of binary commutativity/associativity
steps that realizes them.
"""

from __future__ import annotations

from typing import Callable

from .exprs import (
    Add, EqAtom, Mul, Not, One, Pred, Rel, Squash, Sum, SubstError, TupleEqAtom,
    TupleVar, Exp, Zero, ZERO, ONE, alpha_equal, canon_key, free_vars, mk_eq,
    mk_neq, mk_tuple_eq, mk_tuple_neq, replace_scalar, substitute,
)


class AxiomMatchError(Exception):
    pass


def flatten_mul(e: Exp) -> list[Exp]:
    if isinstance(e, Mul):
        return flatten_mul(e.lhs) + flatten_mul(e.rhs)
    return [e]


def rebuild_mul(factors: list[Exp]) -> Exp:
    if not factors:
        return ONE
    acc = factors[0]
    for f in factors[1:]:
        acc = Mul(acc, f)
    return acc


def flatten_add(e: Exp) -> list[Exp]:
    if isinstance(e, Add):
        return flatten_add(e.lhs) + flatten_add(e.rhs)
    return [e]


def rebuild_add(terms: list[Exp]) -> Exp:
    if not terms:
        return ZERO
    acc = terms[0]
    for t in terms[1:]:
        acc = Add(acc, t)
    return acc


def _factor_rank(f: Exp) -> int:
    if isinstance(f, Pred):
        return 0
    if isinstance(f, Squash):
        return 1
    if isinstance(f, Not):
        return 2
    if isinstance(f, Rel):
        return 3
    return 4


def factor_sort_key(f: Exp) -> tuple:
    return (_factor_rank(f), canon_key(f))


# -- semiring ---------------------------------------------------------------

def _add_comm(e):
    if isinstance(e, Add):
        return Add(e.rhs, e.lhs)
    raise AxiomMatchError("add-comm")


def _add_assoc(e):
    if isinstance(e, Add) and isinstance(e.rhs, Add):
        return Add(Add(e.lhs, e.rhs.lhs), e.rhs.rhs)
    raise AxiomMatchError("add-assoc")


def _add_zero(e):
    if isinstance(e, Add):
        if isinstance(e.lhs, Zero):
            return e.rhs
        if isinstance(e.rhs, Zero):
            return e.lhs
    raise AxiomMatchError("add-zero")


def _mul_comm(e):
    if isinstance(e, Mul):
        return Mul(e.rhs, e.lhs)
    raise AxiomMatchError("mul-comm")


def _mul_assoc(e):
    if isinstance(e, Mul) and isinstance(e.rhs, Mul):
        return Mul(Mul(e.lhs, e.rhs.lhs), e.rhs.rhs)
    raise AxiomMatchError("mul-assoc")


def _mul_one(e):
    if isinstance(e, Mul):
        if isinstance(e.lhs, One):
            return e.rhs
        if isinstance(e.rhs, One):
            return e.lhs
    raise AxiomMatchError("mul-one")


def _mul_zero(e):
    if isinstance(e, Mul) and (isinstance(e.lhs, Zero) or isinstance(e.rhs, Zero)):
        return ZERO
    raise AxiomMatchError("mul-zero")


def _distr_mul_add(e):
    if isinstance(e, Mul) and isinstance(e.rhs, Add):
        return Add(Mul(e.lhs, e.rhs.lhs), Mul(e.lhs, e.rhs.rhs))
    if isinstance(e, Mul) and isinstance(e.lhs, Add):
        return Add(Mul(e.lhs.lhs, e.rhs), Mul(e.lhs.rhs, e.rhs))
    raise AxiomMatchError("distr-mul-add")


def _prod_comm(e):
    """Sort a product chain: predicates, squash, negation, relation atoms."""
    if not isinstance(e, Mul):
        raise AxiomMatchError("prod-comm")
    factors = flatten_mul(e)
    ordered = sorted(factors, key=factor_sort_key)
    if ordered == factors:
        raise AxiomMatchError("prod-comm: already ordered")
    return rebuild_mul(ordered)


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
        if any(isinstance(t, One) for t in flatten_add(e.body)):
            return ONE
    raise AxiomMatchError("squash-one-plus")


def _squash_lift_add(e):
    # ||  ||x|| + y || -> || x + y ||
    if isinstance(e, Squash) and isinstance(e.body, Add):
        terms = flatten_add(e.body)
        for i, t in enumerate(terms):
            if isinstance(t, Squash):
                return Squash(rebuild_add(terms[:i] + [t.body] + terms[i + 1:]))
    raise AxiomMatchError("squash-lift-add")


def _squash_idem(e):
    if isinstance(e, Squash) and isinstance(e.body, Squash):
        return e.body
    raise AxiomMatchError("squash-idem")


def _squash_mul(e):
    """Merge every squash factor of a product chain into one."""
    if isinstance(e, Mul):
        factors = flatten_mul(e)
        squashes = [f for f in factors if isinstance(f, Squash)]
        if len(squashes) >= 2:
            rest = [f for f in factors if not isinstance(f, Squash)]
            merged = Squash(rebuild_mul([s.body for s in squashes]))
            return rebuild_mul(rest + [merged])
    raise AxiomMatchError("squash-mul")


def _squash_square(e):
    if isinstance(e, Mul):
        factors = flatten_mul(e)
        for i, f in enumerate(factors):
            if isinstance(f, Squash):
                for j in range(i + 1, len(factors)):
                    if factors[j] == f:
                        return rebuild_mul(factors[:j] + factors[j + 1:])
    if isinstance(e, Squash) and isinstance(e.body, Mul):
        factors = flatten_mul(e.body)
        seen = []
        dropped = False
        for f in factors:
            if f in seen:
                dropped = True
                continue
            seen.append(f)
        if dropped:
            return Squash(rebuild_mul(seen))
    raise AxiomMatchError("squash-square")


def _absorb_squash(e):
    if isinstance(e, Mul):
        factors = flatten_mul(e)
        for i, f in enumerate(factors):
            if isinstance(f, Squash):
                body_factors = flatten_mul(f.body)
                rest = factors[:i] + factors[i + 1:]
                if body_factors and all(b in rest for b in body_factors):
                    return rebuild_mul(rest)
    raise AxiomMatchError("absorb-squash")


def _squash_of_idem(e, proof: "list[tuple[str, tuple, dict]] | None" = None):
    """x*x = x  =>  ||x|| = x.  The caller must supply a kernel derivation
    rewriting x*x into x; it is replayed here before the squash is removed."""
    if not isinstance(e, Squash):
        raise AxiomMatchError("squash-of-idem: not a squash")
    if proof is None:
        raise AxiomMatchError("squash-of-idem: missing idempotence derivation")
    x = e.body
    cur: Exp = Mul(x, x)
    for name, path, params in proof:
        cur = apply_axiom(cur, name, path, **params)
    if not alpha_equal(cur, x):
        raise AxiomMatchError("squash-of-idem: derivation does not establish x*x = x")
    return x


def _squash_sum(e):
    if isinstance(e, Squash) and isinstance(e.body, Sum):
        s = e.body
        return Squash(Sum(s.var, Squash(s.body)))
    raise AxiomMatchError("squash-sum")


def _squash_flatten(e):
    # || a*||x|| + y || -> || a*x + y ||
    if isinstance(e, Squash):
        terms = flatten_add(e.body)
        for i, t in enumerate(terms):
            factors = flatten_mul(t)
            for j, f in enumerate(factors):
                if isinstance(f, Squash):
                    new_t = rebuild_mul(factors[:j] + [f.body] + factors[j + 1:])
                    return Squash(rebuild_add(terms[:i] + [new_t] + terms[i + 1:]))
    raise AxiomMatchError("squash-flatten")


# -- negation ---------------------------------------------------------------

def _not_zero(e):
    if isinstance(e, Not) and isinstance(e.body, Zero):
        return ONE
    raise AxiomMatchError("not-zero")


def _not_mul(e):
    if isinstance(e, Not) and isinstance(e.body, Mul):
        return Squash(Add(Not(e.body.lhs), Not(e.body.rhs)))
    raise AxiomMatchError("not-mul")


def _not_add(e):
    if isinstance(e, Not) and isinstance(e.body, Add):
        return Mul(Not(e.body.lhs), Not(e.body.rhs))
    raise AxiomMatchError("not-add")


def _not_squash(e):
    if isinstance(e, Not) and isinstance(e.body, Squash):
        return Not(e.body.body)
    raise AxiomMatchError("not-squash")


def _squash_not(e):
    if isinstance(e, Squash) and isinstance(e.body, Not):
        return e.body
    raise AxiomMatchError("squash-not")


def _pull_not(e):
    """Merge every negation factor of a product chain into one."""
    if isinstance(e, Mul):
        factors = flatten_mul(e)
        nots = [f for f in factors if isinstance(f, Not)]
        if len(nots) >= 2:
            rest = [f for f in factors if not isinstance(f, Not)]
            merged = Not(rebuild_add([n.body for n in nots]))
            return rebuild_mul(rest + [merged])
    raise AxiomMatchError("pull-not")


# -- summation --------------------------------------------------------------

def _sum_add(e):
    if isinstance(e, Sum) and isinstance(e.body, Add):
        return Add(Sum(e.var, e.body.lhs), Sum(e.var, e.body.rhs))
    raise AxiomMatchError("sum-add")


def _sum_swap(e):
    if isinstance(e, Sum) and isinstance(e.body, Sum):
        return Sum(e.body.var, Sum(e.var, e.body.body))
    raise AxiomMatchError("sum-swap")


def _sum_hoist(e):
    if isinstance(e, Mul) and isinstance(e.rhs, Sum) and e.rhs.var not in free_vars(e.lhs):
        return Sum(e.rhs.var, Mul(e.lhs, e.rhs.body))
    if isinstance(e, Mul) and isinstance(e.lhs, Sum) and e.lhs.var not in free_vars(e.rhs):
        return Sum(e.lhs.var, Mul(e.lhs.body, e.rhs))
    raise AxiomMatchError("sum-hoist")


def _sum_zero(e):
    if isinstance(e, Sum) and isinstance(e.body, Zero):
        return ZERO
    raise AxiomMatchError("sum-zero")


def _is_binding_eq(atom, v: TupleVar):
    """Return the replacement tuple expression if atom is [v = e], v not in e."""
    if isinstance(atom, TupleEqAtom):
        for a, b in ((atom.lhs, atom.rhs), (atom.rhs, atom.lhs)):
            if isinstance(a, TupleVar) and a == v and v not in free_vars(b):
                return b
    return None


def _sum_one(e):
    if isinstance(e, Sum) and isinstance(e.body, Pred):
        if _is_binding_eq(e.body.atom, e.var) is not None:
            return ONE
    raise AxiomMatchError("sum-one")


def _sum_elim_eq(e):
    """sum{t} [t=e] * f(t)  ->  f(e)   (also handles the bare [t=e] factor)."""
    if not isinstance(e, Sum):
        raise AxiomMatchError("sum-elim-eq: not a summation")
    factors = flatten_mul(e.body) if not isinstance(e.body, (Add, Sum)) else None
    if factors is None:
        raise AxiomMatchError("sum-elim-eq: body not a product")
    for i, f in enumerate(factors):
        if isinstance(f, Pred):
            repl = _is_binding_eq(f.atom, e.var)
            if repl is not None:
                rest = factors[:i] + factors[i + 1:]
                if not rest:
                    return ONE
                try:
                    out = substitute(rebuild_mul(rest), {e.var: repl})
                except SubstError as exc:
                    raise AxiomMatchError(f"sum-elim-eq: {exc}") from exc
                return out
    raise AxiomMatchError("sum-elim-eq: no binding equality")


# -- predicates and equality ------------------------------------------------

def _pred_squash_intro(e):
    if isinstance(e, Pred):
        return Squash(e)
    raise AxiomMatchError("pred-squash-intro")


def _pred_squash_elim(e):
    if isinstance(e, Squash) and isinstance(e.body, Pred):
        return e.body
    raise AxiomMatchError("pred-squash-elim")


def _eq_refl(e):
    if isinstance(e, Pred):
        a = e.atom
        if isinstance(a, EqAtom) and a.lhs == a.rhs:
            return ONE
        if isinstance(a, TupleEqAtom) and a.lhs == a.rhs:
            return ONE
    raise AxiomMatchError("eq-refl")


def _excluded_middle(e, lhs=None, rhs=None, tuple_level: bool = False):
    """x -> ([l=r] + [l!=r]) * x"""
    if lhs is None or rhs is None:
        raise AxiomMatchError("excluded-middle: missing pair")
    if tuple_level:
        split = Add(Pred(mk_tuple_eq(lhs, rhs)), Pred(mk_tuple_neq(lhs, rhs)))
    else:
        split = Add(Pred(mk_eq(lhs, rhs)), Pred(mk_neq(lhs, rhs)))
    return Mul(split, e)


def _subst_eq(e, lhs=None, rhs=None):
    """In a product containing [lhs = rhs], replace lhs by rhs in the other
    factors (scalar level, tuple-variable level via the equality atom)."""
    if lhs is None or rhs is None:
        raise AxiomMatchError("subst-eq: missing pair")
    if not isinstance(e, Mul):
        raise AxiomMatchError("subst-eq: not a product")
    factors = flatten_mul(e)
    want = mk_eq(lhs, rhs) if not isinstance(lhs, TupleVar) else mk_tuple_eq(lhs, rhs)
    idx = next((i for i, f in enumerate(factors)
                if isinstance(f, Pred) and f.atom == want), None)
    if idx is None:
        raise AxiomMatchError("subst-eq: equality factor not present")
    if isinstance(lhs, TupleVar):
        try:
            rest = [substitute(f, {lhs: rhs}) if i != idx else f
                    for i, f in enumerate(factors)]
        except SubstError as exc:
            raise AxiomMatchError(str(exc)) from exc
    else:
        rest = [replace_scalar(f, lhs, rhs) if i != idx else f
                for i, f in enumerate(factors)]
    return rebuild_mul(rest)


AXIOMS: dict[str, Callable] = {
    "add-comm": _add_comm,
    "add-assoc": _add_assoc,
    "add-zero": _add_zero,
    "mul-comm": _mul_comm,
    "mul-assoc": _mul_assoc,
    "mul-one": _mul_one,
    "mul-zero": _mul_zero,
    "distr-mul-add": _distr_mul_add,
    "prod-comm": _prod_comm,
    "squash-zero": _squash_zero,
    "squash-one": _squash_one,
    "squash-one-plus": _squash_one_plus,
    "squash-lift-add": _squash_lift_add,
    "squash-idem": _squash_idem,
    "squash-mul": _squash_mul,
    "squash-square": _squash_square,
    "absorb-squash": _absorb_squash,
    "squash-of-idem": _squash_of_idem,
    "squash-sum": _squash_sum,
    "squash-flatten": _squash_flatten,
    "not-zero": _not_zero,
    "not-mul": _not_mul,
    "not-add": _not_add,
    "not-squash": _not_squash,
    "squash-not": _squash_not,
    "pull-not": _pull_not,
    "sum-add": _sum_add,
    "sum-swap": _sum_swap,
    "sum-hoist": _sum_hoist,
    "sum-zero": _sum_zero,
    "sum-one": _sum_one,
    "sum-elim-eq": _sum_elim_eq,
    "pred-squash-intro": _pred_squash_intro,
    "pred-squash-elim": _pred_squash_elim,
    "eq-refl": _eq_refl,
    "excluded-middle": _excluded_middle,
    "subst-eq": _subst_eq,
}


def apply_axiom(e: Exp, axiom: str, path: tuple[str, ...] = (), **params) -> Exp:
    """Apply the named identity at ``path`` (steps "l", "r", "b")."""
    if axiom not in AXIOMS:
        raise AxiomMatchError(f"unknown axiom {axiom}")
    if not path:
        return AXIOMS[axiom](e, **params)
    step, rest = path[0], path[1:]
    if step == "l" and isinstance(e, (Add, Mul)):
        return type(e)(apply_axiom(e.lhs, axiom, rest, **params), e.rhs)
    if step == "r" and isinstance(e, (Add, Mul)):
        return type(e)(e.lhs, apply_axiom(e.rhs, axiom, rest, **params))
    if step == "b" and isinstance(e, (Squash, Not)):
        return type(e)(apply_axiom(e.body, axiom, rest, **params))
    if step == "b" and isinstance(e, Sum):
        return Sum(e.var, apply_axiom(e.body, axiom, rest, **params))
    raise AxiomMatchError(f"path step {step!r} does not match node {type(e).__name__}")
