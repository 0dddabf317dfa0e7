"""Equivalence decision procedures.

``equivalent`` first cancels the terms both normal forms share: a bag sum
has a + c = b + c exactly when a = b, so a summation-free term on both
sides pairs with itself, counted with its repeats, and is neither
canonized nor searched.  It canonizes the rest and pairs their terms
greedily, and so does the comparison of negation slots.
A match is an isomorphism, so matching is an equivalence relation: any left
term a right term matches serves, and greedy fails only if no pairing does.
``match_terms`` matches one term pair under a bijection of summation
variables: congruent predicates, equivalent squash parts
(``squash_equal``), equivalent negation parts (recursively), identical
relation atoms.  The bijection search is individualization-refinement: each
term's summation variables are coloured by 1-WL refinement of their
signatures over the attribute-equality links between them, a variable is
tried only on variables of its own colour, and when the search has a
choice, each predicate is checked against the other term's closure as soon
as all its summation variables are placed.  The leaf ``_term_check`` asks
``implies_atom`` of every predicate each way, renamed into the other term's
closure, so both prune only bijections the leaf would reject; the search
keeps the order of the plain signature search, so it finds the same
bijection first.
``squash_equal`` compares squashed expressions set-style: dissolve nested
squashes, canonize only the terms dissolving builds (the slots came out
of canonize, renamed at most; all terms if the chase hit its ceiling, for
a fresh chase budget), drop repeated atoms, then require containment each
way.  A term is contained in another when the other maps into it by a
homomorphism (``maps_into``), found one connected component of summation
variables at a time.
Every predicate question about a term goes to one closure per term and
call: the closure canonize built in its final round for that term, handed
over through ``Canonizer.closures``, or ``closure_of(t.preds)`` for a term
canonize did not return as it stands.  A term's equality links,
signatures and colours are built on first use, which only the bijection
search makes.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .config import Budget
from .congruence import Closure, closure_of, implies_atom
from .constraints import Canonizer, subst_spnf, subst_term, _is_reflexive
from .record import replace
from .schema import SchemaEnv, footprint_key
from .spnf import SpnfExp, Term, dissolve_squash, nested_terms
from .trace import Trace
from .exprs import (Pred, TupleVar, VarGen, canon_key, free_vars,
                    mk_eq, substitute)

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
NOT_PROVED = "NOT_PROVED"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"

UCQ_BAG = "ucq-bag"
UCQ_SET = "ucq-set"
GENERAL = "general"


class Decider:
    def __init__(self, env: SchemaEnv, gen: VarGen, trace: Trace | None = None,
                 budget: Budget | None = None):
        self.env = env
        self.gen = gen
        self.trace = trace or Trace(enabled=False)
        self.budget = budget or Budget()
        # id(term) -> its _TermFacts; the facts hold the term, so that its
        # id stays its own, and are matched by identity because hashing a
        # term walks all of it
        self._facts: dict[int, _TermFacts] = {}
        # signature and colour -> colour id, shared by the terms of one
        # `equivalent` call so that their colours compare
        self._colours: dict[tuple, int] = {}
        self.canonizer = Canonizer(env, gen, self.trace, self.budget)

    # -- expression-level decision ------------------------------------------

    def equivalent(self, e1: SpnfExp, e2: SpnfExp) -> bool:
        try:
            self.budget.step("search")
            c1, c2, shared = self._cancel_and_canonize(e1, e2, "L", "R")
            if self._perm_search(c1, c2, shared):
                return True
            if not self.env.keys:
                return False
            # retry with key-guarded squash stability: terms provably equal
            # to their own squash are rewritten into squashed form on both
            # sides
            w1 = self.canonizer.canonize(c1, "L", wrap=True)
            w2 = self.canonizer.canonize(c2, "R", wrap=True)
            if (w1, w2) == (c1, c2):
                return False
            return self._perm_search(w1, w2, shared)
        finally:
            # the facts and the closures canonize handed over serve one
            # call; refutation need not hold them
            self._facts.clear()
            self._colours.clear()
            self.canonizer.closures.clear()

    def _cancel_and_canonize(self, e1: SpnfExp, e2: SpnfExp, loc1: str,
                             loc2: str) -> tuple[SpnfExp, SpnfExp, tuple[int, ...]]:
        """The two sums less the terms they share, canonized, and for each
        shared right term, in order, the position of its partner among the
        shared left terms.  A bag sum cancels: a + c = b + c exactly when
        a = b.  Each summation-free right term takes the first equal left
        term not yet taken, so repeats count; terms with summation
        variables are never shared, since the sides bind distinct
        variables."""
        left: dict[Term, list[int]] = {}
        for i in reversed(range(len(e1.terms))):
            if not e1.terms[i].sum_vars:
                left.setdefault(e1.terms[i], []).append(i)
        pairs = {j: free.pop() for j, t in enumerate(e2.terms)
                 if not t.sum_vars and (free := left.get(t))}
        rank = {i: k for k, i in enumerate(sorted(pairs.values()))}
        r1 = SpnfExp(tuple(t for i, t in enumerate(e1.terms) if i not in rank))
        r2 = SpnfExp(tuple(t for j, t in enumerate(e2.terms) if j not in pairs))
        return (self.canonizer.canonize(r1, loc1), self.canonizer.canonize(r2, loc2),
                tuple(rank[i] for i in pairs.values()))

    def _perm_search(self, c1: SpnfExp, c2: SpnfExp, shared: tuple[int, ...] = ()) -> bool:
        """Pair each right term, in order, with the first unused left term
        that `match_terms` accepts; a right term left without one fails.
        The terms `_cancel_and_canonize` removed follow ``c1`` and ``c2``,
        and each shared right term pairs with its left partner in
        ``shared`` by the empty map."""
        n = len(c1.terms)
        if n != len(c2.terms):
            return False
        if n == 0 and not shared:
            return True
        sig1 = [term_signature(t) for t in c1.terms]
        sig2 = [term_signature(t) for t in c2.terms]
        if sorted(sig1) != sorted(sig2):
            return False
        # `match_terms` rejects a pair whose free constants differ, so each
        # right term tries only the left terms of its signature that have
        # its constants, in index order
        keys = [(s, frozenset(self._term_facts(t).consts.items()))
                for s, t in zip(sig1 + sig2, (*c1.terms, *c2.terms))]
        unused: dict[tuple, list[int]] = {}
        for i, k in enumerate(keys[:n]):
            unused.setdefault(k, []).append(i)
        perm: list[int] = []
        self.budget.step("search")
        for k, t2 in zip(keys[n:], c2.terms):
            free = unused.get(k, [])
            m = next((m for m, i in enumerate(free)
                      if self.match_terms(c1.terms[i], t2)), None)
            if m is None:
                return False
            perm.append(free.pop(m))
            self.budget.step("search")
        for i in shared:
            self.trace.mapping("bijection", [])
            perm.append(n + i)
            self.budget.step("search")
        self.trace.permutation(perm)
        return True

    # -- term-level matching ------------------------------------------------

    def _term_facts(self, t: Term) -> _TermFacts:
        facts = self._facts.get(id(t))
        if facts is None or facts.term is not t:
            # an entry holds its term, so the one under id(t) is t's
            _, closure = self.canonizer.closures.pop(id(t), (t, None))
            facts = self._facts[id(t)] = _TermFacts(t, self._colours, closure)
        return facts

    def match_terms(self, t1: Term, t2: Term) -> bool:
        self.budget.step("search")
        # `_perm_search` has compared the `term_signature`s
        f1, f2 = self._term_facts(t1), self._term_facts(t2)
        # a bijection renames only summed variables, and congruent
        # predicates give equal free constants: when these differ,
        # `_term_check` would reject every bijection
        if f1.consts != f2.consts:
            return False
        # a bijection that `_term_check` accepts is an isomorphism of the
        # coloured link graphs, so it keeps colours; the candidates are
        # the signature candidates of the plain search, in their order,
        # less those of another colour
        cand = {v2.vid: f1.by_colour.get(f2.colour[v2.vid], ())
                for v2 in t2.sum_vars}
        if not all(cand.values()):
            return False
        # placed in the order of the signature search, so that the
        # surviving leaves come in its order and the same bijection is
        # found first; a variable that a predicate mentions alone goes
        # first, so that the predicate rejects a candidate at once
        order = sorted(t2.sum_vars, key=lambda v: (
            v.vid not in f2.preds.alone, f1.sig_count[f2.sig[v.vid]], v.vid))
        # with no choice the leaf check alone decides
        placing = any(len(c) > 1 for c in cand.values())
        image: dict[int, TupleVar] = {}     # placed t2 id -> t1 variable
        preimage: dict[int, TupleVar] = {}  # t1 id placed on -> t2 variable

        def fits(v2: TupleVar, v1: TupleVar) -> bool:
            # links to the variables placed before must agree, as every
            # valid bijection keeps them; unlinked on both sides they do
            pairs = {(w, image[w].vid) for w in f2.links.linked(v2) if w in image}
            pairs.update((preimage[w].vid, w) for w in f1.links.linked(v1) if w in preimage)
            pairs.discard((v2.vid, v1.vid))
            return (all(f2.links.binary(v2, w2) == f1.links.binary(v1, w1)
                        for w2, w1 in pairs)
                    and (not placing
                         or (_placed_preds_hold(f2, v2, image, f1)
                             and _placed_preds_hold(f1, v1, preimage, f2))))

        return self._place(order, cand, image, fits, lambda: self._term_check(
            t1, t2, [(v2, image[v2.vid]) for v2 in t2.sum_vars]), preimage)

    def _place(self, order: list[TupleVar], cand: dict[int, list[TupleVar]],
               placed: dict[int, TupleVar], fits, leaf,
               inverse: dict[int, TupleVar] | None = None) -> bool:
        """Depth first, one search step per node entered, on a stack of
        candidate iterators: place each variable of ``order`` on one of its
        ``cand[vid]``, in order, so that ``fits(v, w)`` accepts each and
        ``leaf()`` all.  ``placed`` maps ids to targets, ``inverse`` (if
        given, for an injective map) back; both are restored on failure."""
        self.budget.step("search")
        stack = [iter(cand[v.vid]) for v in order[:1]]
        while stack:
            v = order[len(stack) - 1]
            w = placed.pop(v.vid, None)  # undo v's last placement
            if w is not None and inverse is not None:
                del inverse[w.vid]
            for w in stack[-1]:
                if inverse is None or w.vid not in inverse:
                    break
            else:
                stack.pop()
                continue
            placed[v.vid] = w
            if inverse is not None:
                inverse[w.vid] = v
            if fits(v, w):
                self.budget.step("search")
                if len(stack) < len(order):
                    stack.append(iter(cand[order[len(stack)].vid]))
                elif leaf():
                    return True
        return not order and leaf()

    def _term_check(self, t1: Term, t2: Term,
                    mapping: list[tuple[TupleVar, TupleVar]]) -> bool:
        t2p = subst_term(t2, dict(mapping))  # the two variable sets are disjoint
        if sorted((r, v.vid) for r, v in t1.atoms) != \
           sorted((r, v.vid) for r, v in t2p.atoms):
            return False
        # each side's predicates, renamed, hold in the other's closure
        f1, f2 = self._term_facts(t1), self._term_facts(t2)
        image = {v2.vid: v1 for v2, v1 in mapping}
        preimage = {v1.vid: v2 for v2, v1 in mapping}
        if not (all(_pred_holds(f2, i, image, f1) for i in range(len(t2.preds))) and
                all(_pred_holds(f1, i, preimage, f2) for i in range(len(t1.preds)))):
            return False
        s1, s2 = t1.squash, t2p.squash
        if s1 is not None or s2 is not None:
            if not self.squash_equal(s1 or SpnfExp.one(), s2 or SpnfExp.one()):
                return False
        if not self._negs_equal(t1.neg, t2p.neg):
            return False
        self.trace.mapping("bijection", [(str(v2), str(v1)) for v2, v1 in mapping])
        return True

    def _negs_equal(self, n1: SpnfExp | None, n2: SpnfExp | None) -> bool:
        return (n1 is None and n2 is None) or self._perm_search(*self._cancel_and_canonize(
            n1 or SpnfExp.zero(), n2 or SpnfExp.zero(), "Ln", "Rn"))

    # -- squashed-expression comparison -------------------------------------

    def squash_equal(self, s1: SpnfExp, s2: SpnfExp) -> bool:
        """Are two squash slots, each canonized with ``squash_ctx`` and
        perhaps renamed by a bijection, equal as sets?"""
        self.budget.step("search")
        if s1 == s2:
            return True
        f1 = self.flatten(s1, "Lsq")
        f2 = self.flatten(s2, "Rsq")
        # a slot cut at the chase ceiling gets a fresh chase budget
        again = self.canonizer.chase_exhausted
        c1 = self._canonize_dissolved(f1, s1, "Lsq", again)
        c2 = self._canonize_dissolved(f2, s2, "Rsq", again)
        m1 = [self.minimize(t) for t in c1]
        m2 = [self.minimize(t) for t in c2]
        return (all(any(self.maps_into(u, t) for u in m2) for t in m1)
                and all(any(self.maps_into(t, u) for t in m1) for u in m2))

    def _canonize_dissolved(self, flat: SpnfExp, slot: SpnfExp, loc: str,
                            every: bool) -> list[Term]:
        """The terms of ``flat``, the flattened ``slot``, those not in
        ``slot`` (or all, if ``every``) canonized as `Canonizer.canonize`
        would."""
        kept = set() if every else {id(t) for t in slot.terms}
        terms = (t if id(t) in kept else self.canonizer.canonize_term(
                     t, f"{loc}/t{i}", squash_ctx=True)
                 for i, t in enumerate(flat.terms))
        return [t for t in terms if t is not None]

    def flatten(self, e: SpnfExp, loc: str) -> SpnfExp:
        """Dissolve squash factors of terms sitting under an outer squash."""
        out: list[Term] = []
        for t in e.terms:
            if t.squash is None:
                out.append(t)
                continue
            flat_slot = self.flatten(t.squash, loc)
            self.trace.rule("squash-flatten", loc)
            merged = dissolve_squash(replace(t, squash=flat_slot), self.gen,
                                     self.trace, self.budget, stage="search")
            out.extend(self.flatten(merged, loc).terms)
        return SpnfExp(tuple(out))

    def minimize(self, t: Term) -> Term:
        """The term with each repeated atom kept once, as a squash allows."""
        if t.squash is not None:
            raise ValueError("minimize expects a squash-dissolved term")
        deduped = tuple(sorted(set(t.atoms), key=lambda a: (a[0], a[1].vid)))
        if len(deduped) == len(t.atoms):
            return t
        self.trace.rule("squash-square", "min")
        return Term.make(t.sum_vars, t.preds, None, t.neg, deduped)

    def maps_into(self, src: Term, dst: Term) -> bool:
        """Does a homomorphism map ``src`` into ``dst``, showing ``||dst||
        <= ||src||``?  It fixes free variables and sends summation variables
        to variables of ``dst`` so that every atom, predicate and the
        negation slot lands on one that ``dst`` has or implies.  Variables
        that no predicate or negation slot links are placed apart."""
        self.budget.step("search")
        if not {r for r, _ in src.atoms} <= {r for r, _ in dst.atoms}:
            return False
        fs, fd = self._term_facts(src), self._term_facts(dst)
        dst_atoms = set(dst.atoms)
        # the map keeps free variables, so their constants, atoms and
        # predicates must hold in dst as they stand
        if (any(not c <= fd.consts.get(k, frozenset())
                for k, c in fs.consts.items())
                or any((r, v) not in dst_atoms
                       for r, v in src.atoms if v.vid not in fs.sum_ids)
                or not all(_pred_holds(fs, i, {}, fd)
                           for i, summed in enumerate(fs.preds.summed)
                           if not summed)):
            return False
        # a target carries the atoms of the variables placed on it
        targets = list(dict.fromkeys([*dst.sum_vars, *(w for _, w in dst.atoms)]))
        cand = {v.vid: [w for w in targets if w.schema == v.schema and all(
                    (r, w) in dst_atoms for r in fs.rels[v.vid])]
                for v in src.sum_vars}
        if not all(cand.values()):
            return False
        neg_ids = _mentioned(src.neg)
        neg_vars = [v for v in src.sum_vars if v.vid in neg_ids]
        linked = {vid: {vid} for vid in cand}
        for group in (*fs.preds.summed, neg_vars):
            # the smaller parts join the largest, so a variable moves
            # O(log n) times
            comp = max((linked[w.vid] for w in group), key=len, default=None)
            for w in group:
                if (part := linked[w.vid]) is not comp:
                    comp |= part
                    linked.update(dict.fromkeys(part, comp))
        components: dict[int, list[TupleVar]] = {}
        for v in sorted(src.sum_vars, key=lambda v: v.vid):
            components.setdefault(id(linked[v.vid]), []).append(v)
        neg_order = components[id(linked[neg_vars[0].vid])] if neg_vars else None
        placed: dict[int, TupleVar] = {}  # src id -> target, in placement order

        def negs_agree() -> bool:
            return self._negs_equal(dst.neg, src.neg and subst_spnf(
                src.neg, {w: placed[w.vid] for w in neg_vars}))

        if not ((neg_vars or negs_agree())
                and all(self._place(order, cand, placed,
                                    lambda v, w: _placed_preds_hold(fs, v, placed, fd),
                                    lambda: order is not neg_order or negs_agree())
                        for order in components.values())):
            return False
        # an injective map is a BIJECTION; each variable placed on one in
        # use is logged as a fold, and the map as a HOMOMORPHISM
        used = ({v.vid for _, v in src.atoms} | fs.preds.mentioned) - fs.sum_ids
        merged = False
        seen = {(r, v.vid) for r, v in src.atoms if v.vid in used}
        for vid, w in placed.items():
            images = {(r, w.vid) for r in fs.rels[vid]}
            if w.vid in used:
                merged = True
                for rule in ("excluded-middle", "distr-mul-add", "sum-elim-eq",
                             "squash-square", "sum-add", "squash-one-plus"):
                    if rule != "squash-square" or images & seen:
                        self.trace.rule(rule, "min")
            used.add(w.vid)
            seen |= images
        var = {v.vid: v for v in src.sum_vars}
        pairs = [(str(var[vid]), str(w)) for vid, w in placed.items()]
        self.trace.mapping("homomorphism" if merged else "bijection", pairs)
        return True


class _TermFacts:
    """What the searches need of one term, built on its first use in one
    `equivalent` call.  ``closure`` has the classes of
    ``closure_of(t.preds)``, which the equality links, the free constants
    and every predicate test query: for a term canonize returned, it is
    the closure of canonize's final round, handed over, and for any other
    term it is built here.  Queries, canonize's among them, only add nodes
    and never merge existing classes, so answers stay valid as it grows.
    ``rels`` maps each summation variable to the relations of its atoms.
    The bijection search alone reads ``links``, ``sig`` and ``colour``
    (each summation variable's signature id and refined colour id),
    ``sig_count`` and ``by_colour``: they are built on first use, so a
    summation-free term or one only `maps_into` reads has none."""

    def __init__(self, t: Term, colours: dict[tuple, int],
                 closure: Closure | None = None):
        self.term = t
        self.closure = closure_of(t.preds) if closure is None else closure
        self._colours = colours
        self.rels = _atom_rels(t)
        self.consts = _free_constants(t, self.closure)
        self.sum_ids = frozenset(self.rels)
        self.preds = _PredIndex(t.preds, self.sum_ids)

    @cached_property
    def links(self) -> _EqualityLinks:
        return _EqualityLinks(self.term, self.closure)

    @cached_property
    def sig(self) -> dict[int, int]:
        sigs = _var_signatures(self.term)
        return {v.vid: self._colours.setdefault(
                    ("sig", sigs[v.vid] + self.links.unary(v)), len(self._colours))
                for v in self.term.sum_vars}

    @cached_property
    def sig_count(self) -> Counter:
        return Counter(self.sig.values())

    @cached_property
    def colour(self) -> dict[int, int]:
        return _refine(self.term, self.sig, self.links, self._colours)

    @cached_property
    def by_colour(self) -> dict[int, list[TupleVar]]:
        out: dict[int, list[TupleVar]] = {}
        for v in self.term.sum_vars:
            out.setdefault(self.colour[v.vid], []).append(v)
        return out


class _PredIndex:
    """Which variables a term's predicates mention: ``summed`` lists, per
    predicate, the summation variables it mentions, ``of`` the predicates
    that mention each summation variable, ``alone`` the ids of those that
    some predicate mentions as its only summation variable, and
    ``mentioned`` the ids of all variables in predicates or sums."""

    __slots__ = ("summed", "of", "alone", "mentioned")

    def __init__(self, preds, sum_ids: frozenset[int]):
        mentioned = set(sum_ids)
        self.summed: list[tuple[TupleVar, ...]] = []
        self.of: dict[int, list[int]] = {}
        for i, p in enumerate(preds):
            vs = free_vars(p)
            mentioned.update(w.vid for w in vs)
            self.summed.append(tuple(w for w in vs if w.vid in sum_ids))
            for w in self.summed[-1]:
                self.of.setdefault(w.vid, []).append(i)
        self.alone = frozenset(vs[0].vid for vs in self.summed if len(vs) == 1)
        self.mentioned = frozenset(mentioned)


def _refine(t: Term, sig: dict[int, int], links: _EqualityLinks,
            colours: dict[tuple, int]) -> dict[int, int]:
    """1-WL colours of a term's summation variables.  Starting from the
    signature ids, each round gives a variable the id of its colour and of
    the multiset of (link, colour) over the variables it links to, itself
    included, until the number of colours stops growing.  Ids are drawn
    from ``colours``: equal ids in two terms mean equal round histories."""
    colour = dict(sig)
    count = len(set(colour.values()))
    if count == len(colour):
        return colour
    nbrs = {v.vid: [(wid, links.binary(v, wid)) for wid in links.linked(v)]
            for v in t.sum_vars}
    while True:
        new = {vid: colours.setdefault(
                   (c, tuple(sorted((link, colour[w]) for w, link in nbrs[vid]))),
                   len(colours))
               for vid, c in colour.items()}
        n = len(set(new.values()))
        if n == count:
            return colour
        colour, count = new, n


def _pred_holds(f: _TermFacts, i: int, placed: dict[int, TupleVar],
                other: _TermFacts) -> bool:
    """Predicate ``i`` of ``f``'s term, its summation variables renamed by
    ``placed``, holds in the other term's closure."""
    q = substitute(f.term.preds[i], {w: placed[w.vid] for w in f.preds.summed[i]})
    return _is_reflexive(q) or implies_atom(other.closure, other.term.preds, q)


def _placed_preds_hold(f: _TermFacts, v: TupleVar,
                       placed: dict[int, TupleVar], other: _TermFacts) -> bool:
    """Each predicate of ``f``'s term that mentions ``v`` and has all its
    summation variables placed holds, renamed by ``placed``, in the other
    term's full closure (the predicates not yet placed there can imply
    it).  `_term_check` asks the same of every predicate, so a failure
    here fails every leaf below."""
    return all(_pred_holds(f, i, placed, other)
               for i in f.preds.of.get(v.vid, ())
               if all(w.vid in placed for w in f.preds.summed[i]))


class _EqualityLinks:
    """Attribute-equality structure of one term's closure, keyed so that it
    is invariant under any bijection of summation variables: which attribute
    pairs of two variables share a class, and which grounded terms (over
    free variables and constants only) each attribute equals.  Only the
    classes that hold a summation variable's attribute are keyed, since
    `unary` reads no other.  Built on the term's closure (`_TermFacts`),
    which its queries extend."""

    def __init__(self, t: Term, closure: Closure):
        sum_ids = {v.vid for v in t.sum_vars}
        self._by_rep: dict[int, list[tuple[int, str]]] = {}
        self._attr_rep: dict[tuple[int, str], int] = {}
        attrs_of = {}
        for v in t.sum_vars:
            attrs_of[v.vid] = tuple(sorted(v.schema.attr_names()))
            for a, rep in zip(attrs_of[v.vid], closure.attr_reps(v, attrs_of[v.vid])):
                self._attr_rep[(v.vid, a)] = rep
                self._by_rep.setdefault(rep, []).append((v.vid, a))
        classes = closure.scalar_classes()
        self._ground = {rep: tuple(sorted(canon_key(Pred(mk_eq(m, m))) for m in classes[rep]
                                          if not any(w.vid in sum_ids for w in free_vars(m))))
                        for rep in self._by_rep}
        self._attrs_of = attrs_of

    def unary(self, v) -> tuple:
        return tuple((a, self._ground[self._attr_rep[(v.vid, a)]])
                     for a in self._attrs_of.get(v.vid, ()))

    def binary(self, v, w: int) -> tuple:
        """Attribute pairs of ``v`` and the variable of id ``w`` in one class."""
        out = []
        for a in self._attrs_of.get(v.vid, ()):
            rep = self._attr_rep[(v.vid, a)]
            for (wid, b) in self._by_rep.get(rep, ()):
                if wid == w:
                    out.append((a, b))
        return tuple(sorted(out))

    def linked(self, v) -> set[int]:
        """Ids of the summation variables that share an attribute class
        with ``v``, ``v`` included."""
        return {wid for a in self._attrs_of.get(v.vid, ())
                for wid, _ in self._by_rep[self._attr_rep[(v.vid, a)]]}


def _free_constants(t: Term, closure: Closure) -> dict:
    """(variable id, attribute) -> the constants in the attribute's class,
    for each attribute of each free variable of non-generic schema in
    ``closure``, which it extends; empty sets are left out.  Constants are
    leaves that only asserted equalities merge, so two predicate lists that
    generate the same closure give the same map."""
    sum_ids = {v.vid for v in t.sum_vars}
    free = [v for v in (closure.source[nid] for nid in closure.tuple_nodes
                        if closure.kind[nid] == "tvar")
            if v.vid not in sum_ids and not v.schema.generic]
    attrs = {(v.vid, a): rep for v in free for a, rep in
             zip(v.schema.attr_names(), closure.attr_reps(v, v.schema.attr_names()))}
    consts: dict[int, set] = {}
    for nid, kind in enumerate(closure.kind):
        if kind == "const":
            consts.setdefault(closure.find(nid), set()).add(closure.payload[nid])
    return {key: frozenset(consts[rep]) for key, rep in attrs.items() if rep in consts}


def term_signature(t: Term) -> tuple:
    return (len(t.sum_vars),
            tuple(sorted(r for r, _ in t.atoms)),
            t.squash is not None,
            t.neg is not None)


def _atom_rels(t: Term) -> dict[int, tuple[str, ...]]:
    """Summation variable id -> the sorted relations of its atoms."""
    rels: dict[int, list[str]] = {v.vid: [] for v in t.sum_vars}
    for r, w in t.atoms:
        if w.vid in rels:
            rels[w.vid].append(r)
    return {vid: tuple(sorted(rs)) for vid, rs in rels.items()}


def _var_signatures(t: Term) -> dict[int, tuple]:
    """Summation variable id -> footprint, relations, and whether the squash
    and the negation slot mention it: one pass over the atoms and each slot."""
    rels = _atom_rels(t)
    in_squash, in_neg = _mentioned(t.squash), _mentioned(t.neg)
    return {v.vid: (footprint_key(v.schema), rels[v.vid],
                    v.vid in in_squash, v.vid in in_neg) for v in t.sum_vars}


def _mentioned(e: SpnfExp | None) -> set[int]:
    """Ids of the variables in the atoms and predicates of ``e``'s terms,
    nested ones included."""
    terms = list(nested_terms(e)) if e is not None else []
    return ({w.vid for t in terms for _, w in t.atoms}
            | {w.vid for t in terms for p in t.preds for w in free_vars(p)})

