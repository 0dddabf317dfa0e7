"""Congruence closure over scalar and tuple terms.

Equality atoms assert merges; closure is taken under function application
(attribute access, slices, uninterpreted functions), record projection,
slice projection and record injectivity.  Used to saturate term
predicates and to ask whether a term's closure implies an atom.

The closure is incremental (Nieuwenhuis & Oliveras, "Fast congruence
closure and extensions", 2007): a signature table of (kind, payload, child
representatives), the nodes that use each class as a child, and a list of
pending nodes.  Interning a node with children and merging two classes
push work onto the list, and ``close`` drains it, so each query looks only
at the classes touched since the last one.  A class's representative is
its smallest node id.
"""

from __future__ import annotations

from .exprs import (
    AggCall, AttrRef, Const, EqAtom, Func, NeqAtom, PredApp, PredAtom,
    TupleCons, TupleEqAtom, TupleNeqAtom, TupleSlice, TupleVar, agg_canon_key,
    footprint_key, scalar_sort_key,
)


class Closure:
    def __init__(self):
        self.parent: list[int] = []
        self.kind: list[str] = []
        self.payload: list[object] = []
        self.children: list[tuple[int, ...]] = []
        self.source: list[object] = []  # original term object per node
        self.intern: dict[tuple, int] = {}
        self.tuple_nodes: list[int] = []
        self.attr_nodes: list[int] = []
        # (kind, payload, child representatives) -> a node with that
        # signature; an entry whose children have since merged is stale,
        # and no current signature equals it
        self.sigs: dict[tuple, int] = {}
        # per representative, the nodes with a child in its class
        self.uses: list[list[int]] = []
        # representative -> the record and slice nodes of its class, which
        # attributes over it project through
        self.projecting: dict[int, list[int]] = {}
        # nodes to look at again: interned with children, or touched by a
        # merge, since close() last ran
        self.pending: list[int] = []
        # the results of scalar_classes() and tuple_classes(), kept until
        # a node is interned or two classes merge
        self._scalar_classes: dict[int, list[object]] | None = None
        self._tuple_classes: dict[int, list[object]] | None = None

    # -- union-find ---------------------------------------------------------

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:  # deterministic representative: smallest id
            ra, rb = rb, ra
        self.parent[rb] = ra
        # rb's users now have a child of another representative, and rb's
        # records and slices meet ra's attribute nodes and records
        users = self.uses[rb]
        self.uses[ra] += users
        self.uses[rb] = []
        self.pending += users
        moved = self.projecting.pop(rb, None)
        if moved:
            self.projecting.setdefault(ra, []).extend(moved)
            self.pending += moved
        self._scalar_classes = self._tuple_classes = None
        return True

    # -- term interning -------------------------------------------------------

    def _node(self, kind: str, payload: object, children: tuple[int, ...],
              source: object) -> int:
        key = (kind, payload, children)
        if key in self.intern:
            return self.intern[key]
        nid = len(self.parent)
        self.parent.append(nid)
        self.kind.append(kind)
        self.payload.append(payload)
        self.children.append(children)
        self.source.append(source)
        self.uses.append([])
        self.intern[key] = nid
        self._scalar_classes = self._tuple_classes = None
        if children:
            for c in children:
                self.uses[self.find(c)].append(nid)
            self.pending.append(nid)
        if kind in ("tvar", "record", "slice"):
            self.tuple_nodes.append(nid)
            if kind != "tvar":
                self.projecting[nid] = [nid]
        if kind == "attr":
            self.attr_nodes.append(nid)
        return nid

    def add_scalar(self, s) -> int:
        if isinstance(s, Const):
            return self._node("const", (s.ty, repr(s.value)), (), s)
        if isinstance(s, AttrRef):
            base = self.add_tuple(s.var)
            return self._node("attr", s.attr, (base,), s)
        if isinstance(s, Func):
            kids = tuple(self.add_scalar(a) for a in s.args)
            return self._node("func", s.name, kids, s)
        if isinstance(s, AggCall):
            return self._node("agg", agg_canon_key(s), (), s)
        raise TypeError(s)

    def add_tuple(self, t) -> int:
        if isinstance(t, TupleVar):
            return self._node("tvar", t.vid, (), t)
        if isinstance(t, TupleSlice):
            base = self.add_tuple(t.var)
            return self._node("slice", footprint_key(t.part), (base,), t)
        if isinstance(t, TupleCons):
            kids = tuple(self.add_scalar(s) for _, s in t.fields)
            names = tuple(n for n, _ in t.fields)
            return self._node("record", names, kids, t)
        raise TypeError(t)

    def add_atom_terms(self, a: PredAtom) -> None:
        if isinstance(a, (EqAtom, NeqAtom)):
            self.add_scalar(a.lhs)
            self.add_scalar(a.rhs)
        elif isinstance(a, PredApp):
            for s in a.args:
                self.add_scalar(s)
        elif isinstance(a, (TupleEqAtom, TupleNeqAtom)):
            self.add_tuple(a.lhs)
            self.add_tuple(a.rhs)

    # -- assertions and closure ----------------------------------------------

    def assert_eq(self, a: PredAtom) -> None:
        if isinstance(a, EqAtom):
            self.union(self.add_scalar(a.lhs), self.add_scalar(a.rhs))
        elif isinstance(a, TupleEqAtom):
            self.union(self.add_tuple(a.lhs), self.add_tuple(a.rhs))

    def close(self) -> None:
        """Fixpoint of congruence, record and slice projection, and
        injectivity, reached by draining the pending list.

        A pending node with children is merged with the node the signature
        table holds for its current signature, or entered there.  A pending
        attribute node is projected through the records and slices of its
        base's class, and a pending record or slice through the attribute
        nodes over its class; a pending record also equates its fields with
        those of its class's first record of the same field names.  Merges
        and new nodes push more work, so only the classes touched since the
        last close are looked at."""
        pending, find = self.pending, self.find
        kind, children, uses = self.kind, self.children, self.uses
        while pending:
            n = pending.pop()
            k = kind[n]
            if children[n]:
                sig = (k, self.payload[n], tuple(find(c) for c in children[n]))
                other = self.sigs.setdefault(sig, n)
                if other != n:
                    self.union(other, n)
            if k == "attr":
                for tup in tuple(self.projecting.get(find(children[n][0]), ())):
                    self._project(n, tup)
            elif k == "record" or k == "slice":
                rep = find(n)
                for u in tuple(uses[rep]):
                    if kind[u] == "attr":
                        self._project(u, n)
                if k == "record":
                    names = self.payload[n]
                    first = next(r for r in self.projecting[rep]
                                 if kind[r] == "record" and self.payload[r] == names)
                    for f0, f1 in zip(children[first], children[n]):
                        self.union(f0, f1)

    def _project(self, anode: int, tup: int) -> None:
        """attr_a(x) == field a when class(x) holds a record with field a;
        attr_a(x) == attr_a(t), t.a interned if missing, when class(x)
        holds a slice t|P with a in P."""
        attr = self.payload[anode]
        if self.kind[tup] == "record":
            names = self.payload[tup]
            if attr in names:
                self.union(anode, self.children[tup][names.index(attr)])
        elif attr in self.payload[tup][0]:
            base = self.children[tup][0]
            self.union(anode, self._node("attr", attr, (base,),
                                         AttrRef(self.source[base], attr)))

    # -- queries ---------------------------------------------------------------

    def scalar_eq(self, a, b) -> bool:
        ia, ib = self.add_scalar(a), self.add_scalar(b)
        self.close()
        return self.find(ia) == self.find(ib)

    def tuple_eq(self, a, b) -> bool:
        ia, ib = self.add_tuple(a), self.add_tuple(b)
        self.close()
        return self.find(ia) == self.find(ib)

    def scalar_rep(self, s) -> int:
        nid = self.add_scalar(s)
        self.close()
        return self.find(nid)

    def tuple_rep(self, t) -> int:
        nid = self.add_tuple(t)
        self.close()
        return self.find(nid)

    def attr_reps(self, v: TupleVar, attrs) -> tuple[int, ...]:
        """The classes of ``v``'s attributes ``attrs``, in order, after one
        close: two variables agree on attributes when these are equal."""
        nids = [self.add_scalar(AttrRef(v, a)) for a in attrs]
        self.close()
        return tuple(map(self.find, nids))

    def scalar_classes(self) -> dict[int, list[object]]:
        """rep -> scalar source terms, one per node (interning makes them
        distinct), sorted by ``scalar_sort_key`` (ties in node order).  Kept
        until the closure changes, so the caller must not change it."""
        if self._scalar_classes is None:
            out: dict[int, list[object]] = {}
            for nid in range(len(self.parent)):
                if self.kind[nid] in ("const", "attr", "func", "agg"):
                    out.setdefault(self.find(nid), []).append(self.source[nid])
            for members in out.values():
                members.sort(key=scalar_sort_key)
            self._scalar_classes = out
        return self._scalar_classes

    def tuple_classes(self) -> dict[int, list[object]]:
        if self._tuple_classes is None:
            out: dict[int, list[object]] = {}
            for nid in self.tuple_nodes:
                out.setdefault(self.find(nid), []).append(self.source[nid])
            self._tuple_classes = out
        return self._tuple_classes

    def atom_signature(self, a: PredAtom) -> tuple:
        """Canonical identity of a non-equality atom modulo the closure."""
        if isinstance(a, NeqAtom):
            reps = sorted((self.scalar_rep(a.lhs), self.scalar_rep(a.rhs)))
            return ("neq", tuple(reps))
        if isinstance(a, PredApp):
            return ("pred", a.name, tuple(self.scalar_rep(s) for s in a.args))
        if isinstance(a, TupleNeqAtom):
            reps = sorted((self.tuple_rep(a.lhs), self.tuple_rep(a.rhs)))
            return ("tneq", tuple(reps))
        raise TypeError(a)


def closure_of(preds) -> Closure:
    """Closure generated by the equality atoms of a predicate list."""
    c = Closure()
    for p in preds:
        c.add_atom_terms(p)
    for p in preds:
        if isinstance(p, (EqAtom, TupleEqAtom)):
            c.assert_eq(p)
    # expose attribute nodes across members of each tuple class so derived
    # attribute equalities become visible
    c.close()
    _materialize_attrs(c)
    c.close()
    return c


def _materialize_attrs(c: Closure) -> None:
    attrs_by_class: dict[int, set[str]] = {}
    vars_by_class: dict[int, list[TupleVar]] = {}
    for nid in c.attr_nodes:
        base = c.find(c.children[nid][0])
        attrs_by_class.setdefault(base, set()).add(c.payload[nid])
    for nid in c.tuple_nodes:
        if c.kind[nid] == "tvar":
            vars_by_class.setdefault(c.find(nid), []).append(c.source[nid])
    for rep, names in attrs_by_class.items():
        for v in vars_by_class.get(rep, []):
            for a in sorted(names):
                c.add_scalar(AttrRef(v, a))


def is_eq_atom(a: PredAtom) -> bool:
    return isinstance(a, (EqAtom, TupleEqAtom))


def implies_atom(c: Closure, atoms, candidate: PredAtom) -> bool:
    """Is ``candidate`` implied by the closure plus the given atom list?"""
    if isinstance(candidate, EqAtom):
        return c.scalar_eq(candidate.lhs, candidate.rhs)
    if isinstance(candidate, TupleEqAtom):
        return c.tuple_eq(candidate.lhs, candidate.rhs)
    want = c.atom_signature(candidate)
    return any(c.atom_signature(a) == want for a in atoms if not is_eq_atom(a))
