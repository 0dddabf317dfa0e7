"""Sum-product normal form.

A normal expression is a sum of terms; each term is a single summation over
a product of predicate factors, at most one squash factor, at most one
negation factor, and relation atoms.  ``to_spnf`` folds its input into
terms in one iterative post-order walk: each node's normal form is built
from its operands' by an operation of the term algebra, ``product``,
``summation``, ``squash`` or ``negation`` (or ``plus``, which drops zeros).
Each applies the kernel identities that fit its operands' shapes and logs
each by its ``AXIOMS`` name; a product logs ``squash-mul`` and ``pull-not``
when it merges two squash or two negation factors.  The fold renames a
binder it has met before where it meets it (an alpha step, noted as
``alpha-rename`` for a summation's binder), so each binder is checked once
against those seen and is unique: a product hoists the binders of both
factors in one step, capturing nothing, and scans no side condition.  A
merge appends one factor list to the other, and ``Term.make`` sorts each
finished term once.

Steps and trace paths are those of the binary nodes an n-ary one stands
for: a sum's or product's operand keeps its path in the left spine
(``_spine``), a k-binder summation is k one-binder ones, and ``sum-add``,
``distr-mul-add`` and ``add-zero`` are each one ``RULE`` line charged the
binary steps it stands for.  The fold takes a step per binary node.
"""

from __future__ import annotations

from typing import Iterator

from .config import Budget
from .record import record
from .trace import Trace
from .exprs import (
    Add, AggCall, Mul, Not, One, Pred, PredAtom, Rel, Squash, Sum, TupleVar,
    Exp, VarGen, Zero, add, canon_key, children, mul, rewrite, substitute,
    sum_,
)


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


def _root(s: SpnfExp) -> type:
    """The node class at the root of ``s.to_exp()``."""
    if len(s.terms) != 1:
        return Add if s.terms else Zero
    t = s.terms[0]
    n = len(t.preds) + len(t.atoms) + (t.squash is not None) + (t.neg is not None)
    return (Sum if t.sum_vars else Mul if n > 1 else One if not n else
            Pred if t.preds else Rel if t.atoms else
            Squash if t.squash is not None else Not)


def _bind_all(vs: tuple[TupleVar, ...], s: SpnfExp) -> SpnfExp:
    return SpnfExp(tuple(Term(vs + t.sum_vars, t.preds, t.squash, t.neg, t.atoms)
                         for t in s.terms))


_ZERO = SpnfExp.zero()
_ONE = SpnfExp.one()
_INNER = (Add, Mul, Sum, Squash, Not)


# ---------------------------------------------------------------------------
# The term algebra and the fold through it

class Normalizer:
    """``stage`` names the budget stage its steps count in: the normalize
    stage, or the stage that dissolves a squash.  ``fold`` renames a binder
    it has met before (``_bind``) to a fresh variable of ``gen``, so a
    normalizer folds one input.  The terms of a result are not yet in
    ``Term.make`` order."""

    def __init__(self, gen: VarGen | None, trace: Trace | None = None,
                 budget: Budget | None = None, stage: str = "normalize"):
        self.gen = gen
        self.trace = trace or Trace(enabled=False)
        self.budget = budget or Budget()
        self.stage = stage
        self.seen: set[int] = set()   # the vids of the binders met

    def rule(self, name: str, path: str, steps: int = 1) -> None:
        # charged first, so the budget bounds a distribution
        for _ in range(steps):
            self.budget.step(self.stage)
        self.trace.rule(name, path)

    def plus(self, parts: list[SpnfExp], path: str) -> SpnfExp:
        zeros = sum(not p.terms for p in parts)
        terms = tuple(t for p in parts for t in p.terms)
        if zeros:
            self.rule("add-zero", path, zeros - (not terms))
        return SpnfExp(terms)

    def product(self, l: SpnfExp, r: SpnfExp, path: str) -> SpnfExp:
        kl, kr = _root(l), _root(r)
        if Add in (kl, kr) and Zero not in (kl, kr) and One not in (kl, kr):
            # each term of l by each of r, l's varying fastest
            self.rule("distr-mul-add", path, len(l.terms) * len(r.terms) - 1)
            pairs = [(SpnfExp((x,)), SpnfExp((y,))) for y in r.terms for x in l.terms]
            return SpnfExp(tuple(t for xy, p in _spine(path, pairs)
                                 for t in self.product(*xy, p).terms))
        if kl is Zero or kr is Zero:
            self.rule("mul-zero", path)
            return _ZERO
        if kl is One or kr is One:
            self.rule("mul-one", path)
            return r if kl is One else l
        [x], [y] = l.terms, r.terms
        if kl is Sum or kr is Sum:
            # one step hoists every binder, r's first, and the body sits
            # where hoisting one binder at a time would leave it
            self.rule("sum-hoist", path)
            vs = y.sum_vars + x.sum_vars
            x, y = (SpnfExp((Term((), t.preds, t.squash, t.neg, t.atoms),)) for t in (x, y))
            return _bind_all(vs, self.product(x, y, path + "b." * len(vs)))
        preds, atoms = x.preds + y.preds, x.atoms + y.atoms
        squash = x.squash if y.squash is None else y.squash
        negs = [n for n in (x.neg, y.neg) if n is not None]
        if x.squash is not None and y.squash is not None:
            self.rule("squash-mul", path)
            [m] = self.squash(self.product(x.squash, y.squash, path + "sq."),
                              path + "sq.").terms
            preds, squash = preds + m.preds, m.squash
            negs += [m.neg] if m.neg is not None else []
        if len(negs) > 1:
            self.rule("pull-not", path)
            negs = [SpnfExp(tuple(t for n in negs for t in n.terms))]
        return SpnfExp((Term((), preds, squash, negs[0] if negs else None, atoms),))

    def summation(self, vs: tuple[TupleVar, ...], s: SpnfExp, path: str) -> SpnfExp:
        if not s.terms:
            self.rule("sum-zero", path, len(vs))
            return s
        if len(s.terms) > 1:
            self.rule("sum-add", path, len(vs) * (len(s.terms) - 1))
        return _bind_all(vs, s)

    def squash(self, s: SpnfExp, path: str) -> SpnfExp:
        while True:
            k = _root(s)
            if k is Zero:
                self.rule("squash-zero", path)
            elif k is One:
                self.rule("squash-one", path)
            elif k is Squash:
                self.rule("squash-idem", path)
            elif k is Not:
                self.rule("squash-not", path)
            elif k is Pred:
                self.rule("pred-squash-elim", path)
            elif k is Add and any(t.is_unit() for t in s.terms):
                self.rule("squash-one-plus", path)
                return _ONE
            elif k is Add and any(t.squash_only() for t in s.terms):
                # ||  ||x|| + y || -> || x + y ||, and that squash again
                self.rule("squash-lift-add", path)
                i = next(i for i, t in enumerate(s.terms) if t.squash_only())
                s = SpnfExp(s.terms[:i] + s.terms[i].squash.terms + s.terms[i + 1:])
                continue
            else:
                return SpnfExp((Term((), (), s, None, ()),))
            return s

    def negation(self, s: SpnfExp, path: str) -> SpnfExp:
        while _root(s) is Squash:
            self.rule("not-squash", path)
            s = s.terms[0].squash
        if not s.terms:
            self.rule("not-zero", path)
            return _ONE
        return SpnfExp((Term((), (), None, s, ()),))

    def fold(self, e: Exp, path: str = "") -> SpnfExp:
        """The normal form of ``e``, by a post-order walk on an explicit
        stack, so depth costs no Python frames."""
        # open nodes: [class, path, binders, operands left, the path of the
        # current one, results so far]
        stack: list[list] = []
        while True:
            self.budget.step(self.stage)
            kind = type(e)
            if kind in _INNER:
                vs = ()
                if kind is Add or kind is Mul:
                    ops = _spine(path, children(e))
                    for _ in range(len(ops) - 2):
                        self.budget.step(self.stage)  # a step per inner spine node
                elif kind is Sum:
                    for _ in range(len(e.vars) - 1):
                        self.budget.step(self.stage)  # a step per inner binder
                    vs, body = self._bind(e)
                    ops = [(body, path + "b." * len(vs))]
                else:
                    ops = [(e.body, path + "b.")]
                todo = iter(ops)
                e, child = next(todo)
                stack.append([kind, path, vs, todo, child, []])
                path = child
                continue
            out = self._leaf(e, path)
            while stack:
                frame = stack[-1]
                kind, at, vs, todo, child, done = frame
                if kind is Mul and done:
                    # operand i > 0 is multiplied in at the spine node its
                    # path leaves
                    out = self.product(done.pop(), out, child[:-2])
                done.append(out)
                if (nxt := next(todo, None)) is not None:
                    e, path = nxt
                    frame[4] = path
                    break
                stack.pop()
                out = (self.plus(done, at) if kind is Add else out if kind is Mul else
                       self.summation(vs, out, at) if kind is Sum else
                       self.squash(out, at) if kind is Squash else self.negation(out, at))
            else:
                return out

    def _leaf(self, e: Exp, path: str) -> SpnfExp:
        kind = type(e)
        if kind is Rel:
            return SpnfExp((Term((), (), None, None, ((e.name, e.var),)),))
        if kind is Pred:
            return SpnfExp((Term((), (self._nf_atom(e.atom, path),), None, None, ()),))
        if kind is Zero or kind is One:
            return _ZERO if kind is Zero else _ONE
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
            return AggCall(s.name, v, _finish(self.fold(body, path + "agg.")).to_exp())
        return rewrite(a, lambda s: agg(s) if type(s) is AggCall else None)


def _spine(path: str, ops) -> list[tuple[Exp, str]]:
    """Each operand of the sum or product at ``path`` with its trace path in
    the left spine of binary nodes it stands for: of k operands, operand
    i > 0 is the right operand of the node k - 1 - i levels down, operand 0
    the left operand of the innermost."""
    k = len(ops)
    return [(x, path + "l." * (k - 1 - i) + ("r." if i else ""))
            for i, x in enumerate(ops)]


def _finish(s: SpnfExp) -> SpnfExp:
    """``s`` with each term, its slots' too, in ``Term.make`` order."""
    return SpnfExp(tuple(
        Term.make(t.sum_vars, t.preds, t.squash and _finish(t.squash),
                  t.neg and _finish(t.neg), t.atoms) for t in s.terms))


def _size(s: SpnfExp) -> int:
    """``count_nodes(s.to_exp())``, without building the expression."""
    sums = [s, *(x for t in nested_terms(s) for x in (t.squash, t.neg) if x is not None)]
    n = sum(len(x.terms) - 1 if x.terms else 1 for x in sums)
    for t in nested_terms(s):
        k = len(t.preds) + len(t.atoms) + (t.squash is not None) + (t.neg is not None)
        n += len(t.sum_vars) + (2 * k - 1 if k else 1)
    return n


def to_spnf(e: Exp, gen: VarGen, trace: Trace | None = None,
            budget: Budget | None = None, stage: str = "normalize") -> SpnfExp:
    norm = Normalizer(gen, trace, budget, stage)
    s = norm.fold(e)
    norm.budget.check_nodes(_size(s))
    return _finish(s)


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


def dissolve_squash(t: Term, trace: Trace | None = None,
                    budget: Budget | None = None, *, stage: str) -> SpnfExp:
    """The term with its squash slot's content multiplied in as a plain
    factor, inside the binders, since the slot may reference them; the
    product's steps count in the caller's ``stage``."""
    norm = Normalizer(None, trace, budget, stage)
    s = SpnfExp((Term((), t.preds, None, t.neg, t.atoms),))
    if t.squash is not None:
        s = t.squash if s.is_one() else norm.product(s, t.squash, "b." * len(t.sum_vars))
    if t.sum_vars:
        s = norm.summation(t.sum_vars, s, "")
    norm.budget.check_nodes(_size(s))
    return _finish(s)
