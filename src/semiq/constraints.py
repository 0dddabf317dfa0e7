"""Canonization of normal-form expressions under integrity constraints.

Three interleaved passes run to a fixpoint on every term, recursively
inside squash and negation slots: elimination of summations bound by an
equality, the key-constraint collapse, and the foreign-key expansion.  Each
round builds the closure of the term as it stands and applies the first
pass that changes the term, with every instance that closure allows: all
summation variables with a candidate in one simultaneous substitution (each
tuple class keeps its least variable and every other member is replaced by
it), every key-equal atom pair (each dropped summation variable replaced by
the kept one), or, for one foreign key, every source atom that needs
expanding.  A nesting chain or a class of any size therefore takes a
constant number of rounds, and one chase round is one level of the
chase.  The round in which no pass fires saturates the term, and its closure
is kept in ``Canonizer.closures`` for the term returned, so that the search
does not build it again.
Saturation writes each equality class of the term's congruence closure as
a spanning chain: its members sorted, each equal to the next, so k members
take k - 1 atoms and the chain is canonical.  Terms whose square provably
equals themselves are additionally rewritten into their own squash (the
key-guarded stability rewrite), which lets set-level reasoning see through
bag-level structure.
"""

from __future__ import annotations

from functools import cached_property

from .config import Budget
from .congruence import Closure, closure_of
from .record import replace
from .schema import FkConstraint, KeyConstraint, SchemaEnv
from .spnf import SpnfExp, Term, dissolve_squash, nested_terms, parse_spnf
from .trace import Trace
from .exprs import (
    AggCall, AttrRef, Const, EqAtom, Pred, PredAtom, TupleEqAtom, TupleNeqAtom,
    TupleSlice, TupleVar, VarGen, canon_key, free_vars, mk_eq, mk_record,
    mk_tuple_eq, rewrite, scalar_sort_key, substitution, tuple_sort_key, walk,
)


def _is_reflexive(a: PredAtom) -> bool:
    return (isinstance(a, EqAtom) and a.lhs == a.rhs) or \
           (isinstance(a, TupleEqAtom) and a.lhs == a.rhs)


def subst_term(t: Term, mapping: dict[TupleVar, object]) -> Term:
    """Substitute (now unbound) variables throughout a term, all at once;
    the term itself for an empty mapping."""
    if not mapping:
        return t
    preds = [q for q in map(substitution(mapping), t.preds) if not _is_reflexive(q)]
    atoms = []
    for rel, w in t.atoms:
        repl = mapping.get(w, w)
        if not isinstance(repl, TupleVar):
            raise ValueError("cannot substitute a non-variable into a relation atom")
        atoms.append((rel, repl))
    squash = subst_spnf(t.squash, mapping) if t.squash is not None else None
    neg = subst_spnf(t.neg, mapping) if t.neg is not None else None
    return Term.make(tuple(w for w in t.sum_vars if w not in mapping),
                     preds, squash, neg, atoms)


def subst_spnf(e: SpnfExp, mapping: dict[TupleVar, object]) -> SpnfExp:
    return SpnfExp(tuple(subst_term(t, mapping) for t in e.terms))


class Canonizer:
    def __init__(self, env: SchemaEnv, gen: VarGen, trace: Trace | None = None,
                 budget: Budget | None = None):
        self.env = env
        self.gen = gen
        self.trace = trace or Trace(enabled=False)
        self.budget = budget or Budget()
        self.chase_exhausted = False
        # id(term) -> the term and the closure of its final round, for each
        # returned term whose predicates are that round's saturated ones;
        # the closure has the classes of ``closure_of(term.preds)``.  The
        # entry holds the term, so that its id stays its own.
        self.closures: dict[int, tuple[Term, Closure]] = {}

    # -- public entry -------------------------------------------------------

    def canonize(self, e: SpnfExp, loc: str = "e", squash_ctx: bool = False,
                 wrap: bool = False) -> SpnfExp:
        terms = (self.canonize_term(t, f"{loc}/t{i}", squash_ctx, wrap)
                 for i, t in enumerate(e.terms))
        return SpnfExp(tuple(t for t in terms if t is not None))

    def canonize_term(self, t: Term, loc: str, squash_ctx: bool = False,
                      wrap: bool = False) -> Term | None:
        """The canonical ``t``, or None if it equates two distinct constants
        (it is 0).  Only the round in which no pass fires saturates."""
        chase_rounds = 0
        while True:
            self.budget.step("canonize")
            # the passes read the closure alone; their queries intern past ``own``
            closure = closure_of(t.preds)
            own = len(closure.parent)
            t2 = self.try_eliminate(t, closure, loc) or self.try_key(t, closure, loc)
            if t2 is None:
                t2, chase_rounds = self.try_fk(t, closure, loc, squash_ctx,
                                               chase_rounds)
            if t2 is None and wrap and not squash_ctx:
                t2 = self.try_wrap(t, closure, loc)
            if t2 is None:
                break
            t = t2
        t = self.saturate(t, closure, own, loc)
        if t is None:
            return None
        saturated = t.preds
        t = self._canonize_agg_bodies(t, loc)
        if t.squash is not None and not t.squash.is_one():
            t = replace(t, squash=self.canonize(t.squash, loc + "/sq", True))
        if t.neg is not None and not t.neg.is_zero():
            t = replace(t, neg=self.canonize(t.neg, loc + "/not", False))
        if t.preds is saturated:
            self.closures[id(t)] = (t, closure)
        return t

    # -- saturation of equalities, once at the fixpoint -----------------------

    def saturate(self, t: Term, closure: Closure, own: int, loc: str) -> Term | None:
        """The term with each equality class of ``closure``, which is
        ``closure_of(t.preds)``, written as a chain of its first ``own``
        nodes: the ones that built it, not those a later query interned;
        None if a class holds two distinct constants (the term is 0).

        A class's members are sorted by ``scalar_sort_key`` or
        ``tuple_sort_key`` and each is equated to the next: the chain
        generates the class and depends only on the closure, so saturating
        twice changes nothing.  Non-equality atoms are kept once each."""
        classes: dict[int, list] = {}
        for nid in range(own):
            classes.setdefault(closure.find(nid), []).append(closure.source[nid])
        new_preds: list[PredAtom] = []
        seen: set = set()
        for p in t.preds:
            key = None if isinstance(p, (EqAtom, TupleEqAtom)) else canon_key(Pred(p))
            if key is not None and key not in seen:
                seen.add(key)
                new_preds.append(p)
        for rep, ms in classes.items():
            tup = closure.kind[rep] in ("tvar", "record", "slice")
            ms = list(dict.fromkeys(sorted(
                ms, key=tuple_sort_key if tup else scalar_sort_key)))
            if not tup and len({c.value for c in ms if isinstance(c, Const)}) > 1:
                self.trace.rule("const-clash", loc)
                return None
            new_preds.extend(map(mk_tuple_eq if tup else mk_eq, ms, ms[1:]))
        out = Term.make(t.sum_vars, new_preds, t.squash, t.neg, t.atoms)
        for _ in range(len(set(out.preds) - set(t.preds))):
            self.trace.rule("eq-trans", loc)
        return out

    # -- pass 2: summation elimination ---------------------------------------

    def try_eliminate(self, t: Term, closure: Closure, loc: str) -> Term | None:
        """Eliminate every summation variable with a candidate in one
        simultaneous substitution.  The least variable of a tuple class
        survives the round and replaces every other one.  A variable whose
        candidate mentions a chosen variable waits, and so does one that a
        chosen candidate mentions: no replacement then mentions a replaced
        variable, so the substitution equals the one-at-a-time sequence."""
        index = _RoundIndex(t, closure)
        chosen: dict[TupleVar, object] = {}
        replaced: set[int] = set()
        mentioned: set[int] = set()   # by the chosen replacements
        rules = []
        for v in t.sum_vars:
            self.budget.check_time()  # the coverage scan takes no steps
            if v.vid in mentioned:
                continue
            rule = "sum-elim-eq"
            repl = self._whole_tuple_candidate(v, index)
            if repl == v:
                # the survivor skips coverage too, which could map it onto
                # a member that this round replaces
                continue
            if repl is None:
                rule = "sum-elim-cover"
                repl = self._coverage_candidate(v, index)
            if repl is None:
                continue
            vids = {w.vid for w in free_vars(repl)}
            if not vids.isdisjoint(replaced):
                continue
            chosen[v] = repl
            replaced.add(v.vid)
            mentioned |= vids
            rules.append(rule)
        if not chosen:
            return None
        out = subst_term(t, chosen)
        for rule in rules:
            self.trace.rule(rule, loc)
        return out

    def _whole_tuple_candidate(self, v: TupleVar, index: "_RoundIndex"):
        """The member of v's tuple class that replaces v.  When the class
        holds another variable, that is its least variable, free ones
        first: v itself if v survives.  Otherwise it is the least record,
        then slice, that does not mention v, unless v stands in a relation
        atom or is sliced."""
        least, others = index.tuple_classes.get(index.closure.tuple_rep(v), (None, ()))
        if least is not None:
            return least
        others = [m for m in others if not _mentions(m, v)]
        if not others or v.vid in index.atom_vids or v.vid in index.slice_bases:
            return None
        return min(others, key=lambda m: (isinstance(m, TupleSlice),
                                          tuple_sort_key(m)))

    def _coverage_candidate(self, v: TupleVar, index: "_RoundIndex"):
        sch, closure = v.schema, index.closure
        if sch.generic or not sch.attrs:
            return None
        # a variable of the same schema agreeing on every attribute
        # determines v outright (and may replace it inside relation atoms)
        groups = index.agreeing(sch)
        bound = v.vid in index.atom_vids or v.vid in index.slice_bases
        if bound and not groups:
            return None
        reps = closure.attr_reps(v, sch.attr_names())
        w = next((w for w in groups.get(reps, ()) if w.vid != v.vid), None)
        if w is not None or bound:
            return w
        classes = closure.scalar_classes()
        fields = {a: next((s for s in classes[rep] if not _mentions(s, v)), None)
                  for a, rep in zip(sch.attr_names(), reps)}
        return None if None in fields.values() else mk_record(fields)

    # -- pass 3: key collapse --------------------------------------------------

    def try_key(self, t: Term, closure: Closure, loc: str) -> Term | None:
        """Collapse every key-equal pair of a relation's atoms: the first
        atom of each group stays, and in one substitution each dropped
        atom's variable is replaced by the kept atom's (the key's chase
        step).  A dropped variable that is free, or whose kept variable is
        itself dropped, is equated to the kept one instead."""
        atoms = list(t.atoms)
        preds = list(t.preds)
        pairs: list[tuple[TupleVar, TupleVar]] = []   # (kept, dropped)
        for key in self.env.keys:
            # key-attribute classes -> the variable of the kept atom; kept
            # atoms have distinct classes, so at most one agrees with w
            kept: dict[tuple[int, ...], TupleVar] = {}
            rest = []
            for rel, w in atoms:
                reps = closure.attr_reps(w, key.attrs) if rel == key.relation else None
                u = kept.get(reps)
                if u is None:
                    rest.append((rel, w))
                    if reps is not None:
                        kept[reps] = w
                elif u == w:
                    self.trace.rule("key-idem", loc)
                else:
                    pairs.append((u, w))
                    self.trace.rule("key-collapse", loc)
            atoms = rest
        if len(atoms) == len(t.atoms):
            return None
        sum_ids, dropped = {v.vid for v in t.sum_vars}, {w.vid for _, w in pairs}
        chosen: dict[TupleVar, object] = {}
        for u, w in pairs:
            if w.vid in sum_ids and u.vid not in dropped and w not in chosen:
                chosen[w] = u
                self.trace.rule("sum-elim-eq", loc)
            else:
                preds.append(mk_tuple_eq(u, w))
        return subst_term(Term.make(t.sum_vars, preds, t.squash, t.neg, atoms), chosen)

    # -- pass 4: foreign-key expansion ------------------------------------------

    def try_fk(self, t: Term, closure: Closure, loc: str, squash_ctx: bool,
               chase_rounds: int) -> tuple[Term | None, int]:
        """Expand, for the first foreign key with something to expand, every
        source atom that needs it, in one batch that counts one chase round.
        With no target atom present that is every source atom.  Once one is
        present nothing expands in a bag, and under squash every source atom
        expands that no target atom agreeing on the key absorbs (a
        homomorphism maps the new atom there); once expanded, a source is
        absorbed by its own new target.  Expanding a whole batch
        keeps the result independent of variable numbering, so isomorphic
        terms canonize alike."""
        for fk in self.env.fks:
            targets = [w for rel, w in t.atoms if rel == fk.target]
            if targets and not squash_ctx:
                continue
            absorbing = {closure.attr_reps(w, fk.target_attrs) for w in targets}
            sources = [var for rel, var in t.atoms if rel == fk.source and not (
                absorbing and closure.attr_reps(var, fk.source_attrs) in absorbing)]
            if not sources:
                continue
            if chase_rounds >= self.budget.limits.chase_depth:
                self._report_exhausted(loc)
                return None, chase_rounds
            for var in sources:
                t = self._expand_fk(t, fk, var)
                self.trace.rule("fk-expand", loc)
            return t, chase_rounds + 1
        return None, chase_rounds

    def _report_exhausted(self, loc: str) -> None:
        if not self.chase_exhausted:
            self.chase_exhausted = True
            self.trace.note("chase-budget-exhausted", loc)

    def _expand_fk(self, t: Term, fk: FkConstraint, src_var: TupleVar) -> Term:
        tgt_schema = self.env.table_schema(fk.target)
        nv = self.gen.fresh(tgt_schema)
        preds = list(t.preds) + [
            mk_eq(AttrRef(nv, ka), AttrRef(src_var, sa))
            for ka, sa in zip(fk.target_attrs, fk.source_attrs)]
        atoms = list(t.atoms) + [(fk.target, nv)]
        return Term.make(t.sum_vars + (nv,), preds, t.squash, t.neg, atoms)

    # -- pass 5: key-guarded squash stability --------------------------------------

    def squash_stable(self, t: Term, closure: Closure) -> bool:
        """T equals its own squash: every factor is idempotent and every
        duplicated summation collapses via a key-bound relation atom."""
        if t.squash_only() or t.is_unit():
            return False
        by_var: dict[int, list[str]] = {}
        for rel, v in t.atoms:
            by_var.setdefault(v.vid, []).append(rel)
        sum_ids = {v.vid for v in t.sum_vars}
        for vid, rels in by_var.items():
            if vid in sum_ids:
                if len(rels) != 1:
                    return False
            else:
                if any(not self.env.keys_of(r) for r in rels):
                    return False
        pending = list(t.sum_vars)
        if any(v.vid not in by_var for v in pending):
            return False
        progress = True
        while progress and pending:
            progress = False
            undetermined = {v.vid for v in pending}
            for v in list(pending):
                rel = by_var[v.vid][0]
                if any(self._key_bound(v, key, closure, undetermined)
                       for key in self.env.keys_of(rel)):
                    pending.remove(v)
                    progress = True
        return not pending

    def _key_bound(self, v: TupleVar, key: KeyConstraint, closure: Closure,
                   undetermined: set[int]) -> bool:
        blocked = undetermined | {v.vid}
        reps = closure.attr_reps(v, key.attrs)
        classes = closure.scalar_classes()
        return all(any(s != AttrRef(v, a)
                       and not any(w.vid in blocked for w in free_vars(s))
                       for s in classes[rep])
                   for a, rep in zip(key.attrs, reps))

    def try_wrap(self, t: Term, closure: Closure, loc: str) -> Term | None:
        if not self.squash_stable(t, closure):
            return None
        content = dissolve_squash(t, self.gen, self.trace, self.budget,
                                  stage="canonize")
        if content.is_one() or content.is_zero():
            return None
        self.trace.rule("key-squash-stable", loc)
        return Term.make((), (), content, None, ())

    # -- aggregate bodies -------------------------------------------------------

    def _canonize_agg_bodies(self, t: Term, loc: str) -> Term:
        if not any(type(n) is AggCall for p in t.preds for n in walk(p)):
            return t

        def canon_body(n):
            if type(n) is not AggCall:
                return None
            return AggCall(n.name, n.var,
                           self.canonize(parse_spnf(n.body), loc + "/agg").to_exp())

        preds = tuple(rewrite(p, canon_body) for p in t.preds)
        return Term.make(t.sum_vars, preds, t.squash, t.neg, t.atoms)


def _mentions(x, v: TupleVar) -> bool:
    """Is v free in the scalar or tuple expression x?"""
    kind = type(x)
    if kind is AttrRef or kind is TupleSlice:
        return x.var.vid == v.vid
    if kind is TupleVar:
        return x.vid == v.vid
    return any(w.vid == v.vid for w in free_vars(x))


class _RoundIndex:
    """Facts about one round's term and closure that the elimination pass
    looks up per variable, each built on its first use."""

    def __init__(self, t: Term, closure: Closure):
        self.t = t
        self.closure = closure
        self.tuples = len(closure.tuple_nodes)  # its own, before any query
        self.sum_vids = {v.vid for v in t.sum_vars}
        self.atom_vids = {w.vid for _, w in t.atoms}
        self._agreeing: dict = {}

    @cached_property
    def slice_bases(self) -> set[int]:
        """Variables sliced in a tuple (dis)equality, at any nesting."""
        return {side.var.vid
                for term in nested_terms(SpnfExp((self.t,))) for p in term.preds
                if isinstance(p, (TupleEqAtom, TupleNeqAtom))
                for side in (p.lhs, p.rhs) if isinstance(side, TupleSlice)}

    @cached_property
    def tuple_classes(self) -> dict:
        """Tuple class -> its least variable, free ones first, if it holds
        two or more (else None), and its other members.  A query adds only
        variables, each a class of its own, so these stay complete."""
        out = {}
        for rep, members in self.closure.tuple_classes().items():
            vs = [m for m in members if isinstance(m, TupleVar)]
            out[rep] = (min(vs, key=lambda m: (m.vid in self.sum_vids, tuple_sort_key(m)))
                        if len(vs) > 1 else None,
                        [m for m in members if not isinstance(m, TupleVar)])
        return out

    def agreeing(self, sch) -> dict:
        """The classes of ``sch``'s attributes -> the closure's own variables
        of it with them, free ones first, then by id, where it has two or
        more; a variable the closure lacked has new classes, agreeing with none."""
        if sch not in self._agreeing:
            c, groups = self.closure, self._agreeing.setdefault(sch, {})
            own = sorted((c.source[n] for n in c.tuple_nodes[:self.tuples]
                          if c.kind[n] == "tvar" and c.source[n].schema == sch),
                         key=lambda w: (w.vid in self.sum_vids, w.vid))
            for w in own if len(own) > 1 else ():
                groups.setdefault(c.attr_reps(w, sch.attr_names()), []).append(w)
        return self._agreeing[sch]
