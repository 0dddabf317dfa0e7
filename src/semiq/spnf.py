"""Sum-product normal form.

A normal expression is a sum of terms; each term is a single summation over
a product of predicate factors, at most one squash factor, at most one
negation factor, and relation atoms.  ``to_spnf`` reaches this shape by
repeatedly applying kernel identities (distribution, summation hoisting,
factor merging) in one walk of its input.  ``Normalizer.app`` applies each
identity by its ``AXIOMS`` entry and logs it; ``_merge_chain`` does the
factor-chain steps itself and logs them as ``squash-mul`` and ``pull-not``.
Hoisting captures no variable because ``nf`` renames a binder it has met
before where it meets it (an alpha step, noted as ``alpha-rename`` for a
summation's binder).

A normalized product lists its plain factors (predicates and relation
atoms) in any order, then its squash, then its negation; ``Term.make``
alone puts factors in order.  Each product takes one hoist step, which
moves every summation of both factors out at once, so the steps of
normalizing a nest grow linearly with its depth, and a merge appends the
shorter factor lists to the longest without keying any factor.

A sum is one node, ``Add(terms)``: ``sum-add``, ``distr-mul-add`` and
``add-zero`` each act on all its terms in one application, logged as one
``RULE`` line and charged the binary steps it stands for.  Each term keeps
the trace path it has in the node's binary spine (``_spine``), and ``nf``
takes a step per inner node of a sum's or a product's spine.  A summation
is one node too, ``Sum(vars, body)``, as a term's ``sum_vars`` is one
tuple: ``sum-add`` and ``sum-zero`` act on all its binders in one
application, and ``nf`` takes a step per binder.
"""

from __future__ import annotations

from math import prod
from typing import Iterator

from .axioms import AXIOMS
from .config import Budget
from .record import record, replace
from .trace import Trace
from .exprs import (
    Add, AggCall, Mul, Not, One, Pred, PredAtom, Rel, Squash, Sum, TupleVar,
    Exp, VarGen, Zero, add, canon_key, children, count_nodes, mul,
    rewrite, substitute, sum_,
)


class SpnfError(Exception):
    pass


# ---------------------------------------------------------------------------
# Normal-form data types

@record(hash=True)
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
        return sum_(self.sum_vars, mul(*self.factors()))

@record(hash=True)
class SpnfExp:
    terms: tuple[Term, ...]

    @staticmethod
    def zero() -> "SpnfExp":
        return SpnfExp(())

    @staticmethod
    def one() -> "SpnfExp":
        return SpnfExp((Term.make(),))

    def to_exp(self) -> Exp:
        return add(*(t.to_exp() for t in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].is_unit()


def _atom_key(a: PredAtom) -> tuple:
    return canon_key(Pred(a))


# ---------------------------------------------------------------------------
# The normalizer

class Normalizer:
    """``stage`` names the budget stage its steps count in: the normalize
    stage, or the stage that dissolves a squash.  ``nf`` renames a binder
    it has met before (``_bind``), so a normalizer serves one input."""

    def __init__(self, gen: VarGen, trace: Trace | None = None,
                 budget: Budget | None = None, stage: str = "normalize"):
        self.gen = gen
        self.trace = trace or Trace(enabled=False)
        self.budget = budget or Budget()
        self.stage = stage
        self.seen: set[int] = set()   # the vids of the binders met

    def app(self, axiom: str, node: Exp, path: str) -> Exp:
        # charged before it is made, so the budget bounds a distribution
        for _ in range(_binary_steps(axiom, node)):
            self.budget.step(self.stage)
        out = AXIOMS[axiom](node)
        self.trace.rule(axiom, path)
        return out

    def run(self, e: Exp) -> SpnfExp:
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
        if isinstance(e, (Add, Mul)):
            ops = _spine(path, children(e))
            for _ in range(len(ops) - 2):
                self.budget.step(self.stage)  # nf's step on each inner node
            if isinstance(e, Add):
                out = add(*(self.nf(t, p) for t, p in ops))
                return self.app("add-zero", out, path) \
                    if any(type(t) is Zero for t in out.terms) else out
            # factor i > 0 is multiplied in at the spine node its path leaves
            out = self.nf(*ops[0])
            for f, p in ops[1:]:
                out = self._mul_nf(out, self.nf(f, p), p[:-2])
            return out
        if isinstance(e, Sum):
            for _ in range(len(e.vars) - 1):
                self.budget.step(self.stage)  # nf's step on each inner binder
            vs, body = self._bind(e)
            body = self.nf(body, path + "b." * len(vs))
            # a normalized sum has no zero term, so sum-add leaves none
            if isinstance(body, Add):
                return self.app("sum-add", Sum(vs, body), path)
            if isinstance(body, Zero):
                return self.app("sum-zero", Sum(vs, body), path)
            return sum_(vs, body)
        if isinstance(e, Squash):
            body = self.nf(e.body, path + "b.")
            return self._squash_nf(body, path)
        if isinstance(e, Not):
            body = self.nf(e.body, path + "b.")
            return self._not_nf(body, path)
        raise TypeError(e)

    def _bind(self, x: Sum | AggCall) -> tuple[tuple[TupleVar, ...], Exp]:
        """The binders and body of ``x``, each binder met before renamed to
        a fresh variable, in the body too; a summation's renames are logged."""
        body, out = x.body, []
        for v in x.vars if type(x) is Sum else (x.var,):
            if v.vid in self.seen:
                fresh = self.gen.fresh(v.schema, v.hint)
                if type(x) is Sum:
                    self.trace.note("alpha-rename", f"{v}->{fresh}")
                body = substitute(body, {v: fresh})
                v = fresh
            self.seen.add(v.vid)
            out.append(v)
        return tuple(out), body

    def _nf_atom(self, a: PredAtom, path: str) -> PredAtom:
        def agg(s):
            [v], body = self._bind(s)
            # the body in term order, which the aggregate's key sees
            return AggCall(s.name, v, parse_spnf(self.nf(body, path + "agg.")).to_exp())
        return rewrite(a, lambda s: agg(s) if type(s) is AggCall else None)

    def _mul_nf(self, l: Exp, r: Exp, path: str) -> Exp:
        if (isinstance(l, Add) or isinstance(r, Add)) and \
                not any(isinstance(x, (Zero, One)) for x in (l, r)):
            split = self.app("distr-mul-add", Mul((l, r)), path)
            return add(*(self._mul_nf(*t.factors, p)
                         for t, p in _spine(path, split.terms)))
        cur = Mul((l, r))
        if isinstance(l, Zero) or isinstance(r, Zero):
            return self.app("mul-zero", cur, path)
        if isinstance(l, One) or isinstance(r, One):
            return self.app("mul-one", cur, path)
        if isinstance(l, Sum) or isinstance(r, Sum):
            # one step hoists every binder; the body sits where hoisting
            # one binder at a time would leave it
            h = self.app("sum-hoist", cur, path)
            return sum_(h.vars, self._mul_nf(*h.body.factors,
                                             path + "b." * len(h.vars)))
        return self._merge_chain([list(_factors(l)), list(_factors(r))], path)

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
            negs = [Not(add(*(n.body for n in negs)))]
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
            if any(isinstance(t, One) for t in body.terms):
                return self.app("squash-one-plus", cur, path)
            if any(isinstance(t, Squash) for t in body.terms):
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


def _terms(e: Exp) -> tuple[Exp, ...]:
    return e.terms if isinstance(e, Add) else (e,)


def _spine(path: str, ops) -> list[tuple[Exp, str]]:
    """Each operand of the sum or product at ``path`` with its trace path in
    the left spine of binary nodes it stands for: of k operands, operand
    i > 0 is the right operand of the node k - 1 - i levels down, operand 0
    the left operand of the innermost."""
    k = len(ops)
    return [(x, path + "l." * (k - 1 - i) + ("r." if i else ""))
            for i, x in enumerate(ops)]


def _binary_steps(axiom: str, node: Exp) -> int:
    """The binary applications that applying ``axiom`` to ``node`` stands
    for: a term out but the first for sum-add and distr-mul-add, a zero
    dropped for add-zero (all but one when all terms are), else one; on a
    summation, each once per binder."""
    k = len(node.vars) if type(node) is Sum else 1
    if axiom in ("sum-add", "distr-mul-add"):
        return k * (prod(len(_terms(c)) for c in children(node)) - 1)
    if axiom == "add-zero":
        zeros = sum(type(t) is Zero for t in node.terms)
        return zeros - (zeros == len(node.terms))
    return k


def to_spnf(e: Exp, gen: VarGen, trace: Trace | None = None,
            budget: Budget | None = None, stage: str = "normalize") -> SpnfExp:
    return Normalizer(gen, trace, budget, stage).run(e)


# ---------------------------------------------------------------------------
# Parsing a normalized tree into the term structure

def parse_spnf(e: Exp) -> SpnfExp:
    if isinstance(e, Zero):
        return SpnfExp.zero()
    return SpnfExp(tuple(map(_parse_term, _terms(e))))


def _parse_term(e: Exp) -> Term:
    binders, e = (e.vars, e.body) if type(e) is Sum else ((), e)
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
    return to_spnf(sum_(t.sum_vars, mul(*factors)), gen, trace, budget, stage)

