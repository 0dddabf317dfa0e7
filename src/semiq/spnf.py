"""Sum-product normal form.

A normal expression is a sum of terms; each term is a single summation over
a product of predicate factors, at most one squash factor, at most one
negation factor, and relation atoms.  ``to_spnf`` reaches this shape by
repeatedly applying kernel identities (distribution, summation hoisting,
factor merging).  ``Normalizer.app`` applies each identity by its ``AXIOMS``
entry and logs it; ``_merge_chain`` does the factor-chain steps itself and
logs them as ``squash-mul`` and ``pull-not``.

A normalized product lists its plain factors (predicates and relation
atoms) in any order, then its squash, then its negation; ``Term.make``
alone puts factors in order.  Each product takes one hoist step, which
moves every summation of both factors out at once, so the steps of
normalizing a nest grow linearly with its depth, and a merge appends the
shorter factor lists to the longest without keying any factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .axioms import AXIOMS, split_binders
from .config import Budget
from .trace import Trace
from .exprs import (
    Add, AggCall, Mul, Not, One, Pred, PredAtom, Rel, Squash, Sum, TupleVar,
    Exp, VarGen, Zero, ZERO, canon_key, count_nodes, flatten_add, free_vars, mul,
    rebuild_add, rewrite, substitute,
)


class SpnfError(Exception):
    pass


# ---------------------------------------------------------------------------
# Normal-form data types

@dataclass(frozen=True)
class Term:
    sum_vars: tuple[TupleVar, ...]
    preds: tuple[PredAtom, ...]
    squash: "SpnfExp | None"   # None encodes the omitted factor ||1||
    neg: "SpnfExp | None"      # None encodes the omitted factor not(0)
    atoms: tuple[tuple[str, TupleVar], ...]

    @staticmethod
    def make(sum_vars=(), preds=(), squash=None, neg=None, atoms=()) -> "Term":
        preds = tuple(sorted(preds, key=_atom_key))
        atoms = tuple(sorted(atoms, key=lambda a: (a[0], a[1].vid)))
        return Term(tuple(sum_vars), preds, squash, neg, atoms)

    def is_unit(self) -> bool:
        return not (self.sum_vars or self.preds or self.atoms
                    or self.squash is not None or self.neg is not None)

    def squash_only(self) -> bool:
        return (not self.sum_vars and not self.preds and not self.atoms
                and self.neg is None and self.squash is not None)

    def factors(self) -> list[Exp]:
        fs: list[Exp] = [Pred(p) for p in self.preds]
        if self.squash is not None:
            fs.append(Squash(self.squash.to_exp()))
        if self.neg is not None:
            fs.append(Not(self.neg.to_exp()))
        fs.extend(Rel(r, v) for r, v in self.atoms)
        return fs

    def to_exp(self) -> Exp:
        body = mul(*self.factors())
        for v in reversed(self.sum_vars):
            body = Sum(v, body)
        return body

@dataclass(frozen=True)
class SpnfExp:
    terms: tuple[Term, ...]

    @staticmethod
    def zero() -> "SpnfExp":
        return SpnfExp(())

    @staticmethod
    def one() -> "SpnfExp":
        return SpnfExp((Term.make(),))

    def to_exp(self) -> Exp:
        if not self.terms:
            return ZERO
        return rebuild_add([t.to_exp() for t in self.terms])

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].is_unit()


def _atom_key(a: PredAtom) -> tuple:
    return canon_key(Pred(a))


# ---------------------------------------------------------------------------
# Binder uniquification (alpha steps; keeps hoisting capture-free)

def uniquify(e: Exp, gen: VarGen, trace: Trace | None = None) -> Exp:
    seen: set[int] = set()

    def step(x):
        t = type(x)
        if t is not Sum and t is not AggCall:
            return None
        body, var = x.body, x.var
        if var.vid in seen:
            fresh = gen.fresh(var.schema, var.hint)
            if trace and t is Sum:
                trace.note("alpha-rename", f"{var}->{fresh}")
            body = substitute(body, {var: fresh})
            var = fresh
        seen.add(var.vid)
        body = rewrite(body, step)
        return Sum(var, body) if t is Sum else AggCall(x.name, var, body)

    return rewrite(e, step)


# ---------------------------------------------------------------------------
# The normalizer

class Normalizer:
    """``stage`` names the budget stage its steps count in: the normalize
    stage, or the stage that dissolves a squash."""

    def __init__(self, gen: VarGen, trace: Trace | None = None,
                 budget: Budget | None = None, stage: str = "normalize"):
        self.gen = gen
        self.trace = trace or Trace(enabled=False)
        self.budget = budget or Budget()
        self.stage = stage

    def app(self, axiom: str, node: Exp, path: str) -> Exp:
        self.budget.step(self.stage)
        out = AXIOMS[axiom](node)
        self.trace.rule(axiom, path)
        return out

    def run(self, e: Exp) -> SpnfExp:
        e = uniquify(e, self.gen, self.trace)
        nf = self.nf(e, "")
        self.budget.check_nodes(count_nodes(nf))
        return parse_spnf(nf)

    # -- recursive normalization ------------------------------------------

    def nf(self, e: Exp, path: str) -> Exp:
        self.budget.step(self.stage)
        if isinstance(e, (Zero, One, Rel)):
            return e
        if isinstance(e, Pred):
            return Pred(self._nf_atom(e.atom, path))
        if isinstance(e, Add):
            # a UNION ALL denotes a left spine of Adds: walk it in a loop,
            # then take the right operands innermost first, as recursion would
            spine = []
            while isinstance(e, Add):
                spine.append((e.rhs, path))
                e, path = e.lhs, path + "l."
                if isinstance(e, Add):
                    self.budget.step(self.stage)  # nf's step on entering e
            out = self.nf(e, path)
            for rhs, path in reversed(spine):
                r = self.nf(rhs, path + "r.")
                cur = Add(out, r)
                out = self.app("add-zero", cur, path) \
                    if isinstance(out, Zero) or isinstance(r, Zero) else cur
            return out
        if isinstance(e, Sum):
            body = self.nf(e.body, path + "b.")
            return self._post_sum(e.var, body, path)
        if isinstance(e, Mul):
            # e stands for a left spine of binary products: walk it in a
            # loop.  Factor i > 0 is the right operand of the spine node
            # k - 1 - i levels below e, factor 0 the left operand of the
            # innermost node
            k = len(e.factors)
            for _ in range(k - 2):
                self.budget.step(self.stage)  # nf's step on each inner node
            out = self.nf(e.factors[0], path + "l." * (k - 1))
            for i in range(1, k):
                spine = path + "l." * (k - 1 - i)
                out = self._mul_nf(out, self.nf(e.factors[i], spine + "r."), spine)
            return out
        if isinstance(e, Squash):
            body = self.nf(e.body, path + "b.")
            return self._squash_nf(body, path)
        if isinstance(e, Not):
            body = self.nf(e.body, path + "b.")
            return self._not_nf(body, path)
        raise TypeError(e)

    def _nf_atom(self, a: PredAtom, path: str) -> PredAtom:
        # the body in term order, which the aggregate's key sees
        return rewrite(a, lambda s: AggCall(
            s.name, s.var, parse_spnf(self.nf(s.body, path + "agg.")).to_exp())
            if type(s) is AggCall else None)

    # sum-add and distr-mul-add split the left operand of a sum in a loop,
    # down its left spine, then take the right operands innermost first, as
    # recursion would: a UNION ALL's spine costs no Python frames

    def _post_sum(self, v: TupleVar, body: Exp, path: str) -> Exp:
        spine = []
        while isinstance(body, Add):
            split = self.app("sum-add", Sum(v, body), path)
            spine.append((split.rhs.body, path))
            body, path = split.lhs.body, path + "l."
        out = self.app("sum-zero", Sum(v, body), path) \
            if isinstance(body, Zero) else Sum(v, body)
        for rhs, path in reversed(spine):
            out = Add(out, self._post_sum(v, rhs, path + "r."))
        return out

    def _mul_nf(self, l: Exp, r: Exp, path: str) -> Exp:
        spine = []
        while (isinstance(l, Add) or isinstance(r, Add)) and \
                not any(isinstance(x, (Zero, One)) for x in (l, r)):
            split = self.app("distr-mul-add", Mul((l, r)), path)
            spine.append((split.rhs, path))
            (l, r), path = split.lhs.factors, path + "l."
        cur = Mul((l, r))
        if isinstance(l, Zero) or isinstance(r, Zero):
            out = self.app("mul-zero", cur, path)
        elif isinstance(l, One) or isinstance(r, One):
            out = self.app("mul-one", cur, path)
        elif isinstance(l, Sum) or isinstance(r, Sum):
            # one step hoists every binder; the body sits where hoisting
            # one binder at a time would leave it
            binders, body = split_binders(self.app("sum-hoist", cur, path))
            out = self._mul_nf(*body.factors, path + "b." * len(binders))
            for v in reversed(binders):
                out = Sum(v, out)
        else:
            out = self._merge_chain([list(_factors(l)), list(_factors(r))], path)
        for rhs, path in reversed(spine):
            out = Add(out, self._mul_nf(*rhs.factors, path + "r."))
        return out

    def _merge_chain(self, runs: list[list[Exp]], path: str) -> Exp:
        """The product of ``runs``, each the factors of a normalized product
        or one factor, so each ends in at most one squash and then at most
        one negation; the lists are consumed."""
        squashes: list[Exp] = []
        negs: list[Exp] = []
        for run in runs:
            if type(run[-1]) is Not:
                negs.append(run.pop())
            if run and type(run[-1]) is Squash:
                squashes.append(run.pop())
        plain = max(runs, key=len)
        for run in runs:
            if run is not plain:
                plain.extend(run)
        if len(squashes) > 1:
            self.trace.rule("squash-mul", path)
            self.budget.step(self.stage)
            body = squashes[0].body
            for f in squashes[1:]:
                body = self._mul_nf(body, f.body, path + "sq.")
            merged = self._squash_nf(body, path + "sq.")
            squashes = []
            (squashes if type(merged) is Squash else
             negs if type(merged) is Not else plain).append(merged)
        if len(negs) > 1:
            self.trace.rule("pull-not", path)
            self.budget.step(self.stage)
            negs = [Not(rebuild_add([n.body for n in negs]))]
        plain += squashes + negs
        return plain[0] if len(plain) == 1 else Mul(tuple(plain))

    def _squash_nf(self, body: Exp, path: str) -> Exp:
        cur = Squash(body)
        if isinstance(body, Zero):
            return self.app("squash-zero", cur, path)
        if isinstance(body, One):
            return self.app("squash-one", cur, path)
        if isinstance(body, Squash):
            return self.app("squash-idem", cur, path)
        if isinstance(body, Not):
            return self.app("squash-not", cur, path)
        if isinstance(body, Pred):
            return self.app("pred-squash-elim", cur, path)
        if isinstance(body, Add):
            terms = flatten_add(body)
            if any(isinstance(t, One) for t in terms):
                return self.app("squash-one-plus", cur, path)
            if any(isinstance(t, Squash) for t in terms):
                lifted = self.app("squash-lift-add", cur, path)
                return self._squash_nf(lifted.body, path)
        return cur

    def _not_nf(self, body: Exp, path: str) -> Exp:
        cur = Not(body)
        if isinstance(body, Zero):
            return self.app("not-zero", cur, path)
        if isinstance(body, Squash):
            stripped = self.app("not-squash", cur, path)
            return self._not_nf(stripped.body, path)
        return cur


def _factors(e: Exp) -> tuple[Exp, ...]:
    return e.factors if isinstance(e, Mul) else (e,)


def to_spnf(e: Exp, gen: VarGen, trace: Trace | None = None,
            budget: Budget | None = None, stage: str = "normalize") -> SpnfExp:
    return Normalizer(gen, trace, budget, stage).run(e)


# ---------------------------------------------------------------------------
# Parsing a normalized tree into the term structure

def parse_spnf(e: Exp) -> SpnfExp:
    if isinstance(e, Zero):
        return SpnfExp.zero()
    terms = []
    for t in flatten_add(e):
        terms.append(_parse_term(t))
    return SpnfExp(tuple(terms))


def _parse_term(e: Exp) -> Term:
    binders, e = split_binders(e)
    preds: list[PredAtom] = []
    squash: SpnfExp | None = None
    neg: SpnfExp | None = None
    atoms: list[tuple[str, TupleVar]] = []
    for f in _factors(e):
        if isinstance(f, Pred):
            preds.append(f.atom)
        elif isinstance(f, Rel):
            atoms.append((f.name, f.var))
        elif isinstance(f, Squash):
            if squash is not None:
                raise SpnfError("two squash factors survived normalization")
            squash = parse_spnf(f.body)
        elif isinstance(f, Not):
            if neg is not None:
                raise SpnfError("two negation factors survived normalization")
            neg = parse_spnf(f.body)
        elif isinstance(f, One):
            continue
        else:
            raise SpnfError(f"unexpected factor {type(f).__name__} in normal form")
    return Term.make(binders, preds, squash, neg, atoms)


# ---------------------------------------------------------------------------
# Shape checking

def check_spnf(e: SpnfExp, outer_vars: frozenset[int] = frozenset()) -> bool:
    """True iff the term invariants hold syntactically."""
    try:
        _check(e, outer_vars)
        return True
    except SpnfError:
        return False


def _check(e: SpnfExp, outer: frozenset[int]) -> None:
    if not isinstance(e, SpnfExp):
        raise SpnfError("not a normal-form expression")
    for t in e.terms:
        vids = [v.vid for v in t.sum_vars]
        if len(set(vids)) != len(vids):
            raise SpnfError("duplicate summation variable")
        scope = outer | set(vids)
        for rel, v in t.atoms:
            if v.vid not in scope:
                raise SpnfError(f"atom {rel}({v}) references out-of-scope variable")
        for p in t.preds:
            for v in free_vars(p):
                if v.vid not in scope:
                    raise SpnfError("predicate references out-of-scope variable")
        if t.squash is not None:
            if t.squash.is_one():
                raise SpnfError("squash slot holding 1 must be omitted")
            _check(t.squash, frozenset(scope))
        if t.neg is not None:
            if t.neg.is_zero():
                raise SpnfError("negation slot holding 0 must be omitted")
            _check(t.neg, frozenset(scope))


def nested_terms(e: SpnfExp) -> Iterator[Term]:
    """The terms of e and, recursively, of every squash and negation slot
    under them, in pre-order (a term's squash slot before its negation)."""
    stack = list(reversed(e.terms))
    while stack:
        t = stack.pop()
        yield t
        for slot in (t.neg, t.squash):
            if slot is not None:
                stack.extend(reversed(slot.terms))


# ---------------------------------------------------------------------------
# Term algebra used by canonization

def dissolve_squash(t: Term, gen: VarGen, trace: Trace | None = None,
                    budget: Budget | None = None, *, stage: str) -> SpnfExp:
    """The term with its squash slot's content multiplied in as a plain
    factor (inside the binders, since the slot may reference them); the
    normalizer's steps count in the caller's ``stage``."""
    factors = replace(t, squash=None).factors()
    if t.squash is not None:
        factors.append(t.squash.to_exp())
    body = mul(*factors)
    for v in reversed(t.sum_vars):
        body = Sum(v, body)
    return to_spnf(body, gen, trace, budget, stage)

