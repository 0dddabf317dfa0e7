"""Congruence closure over scalar and tuple terms.

Equality atoms assert merges; closure is taken under function application
(attribute access, slices, uninterpreted functions), record projection,
slice projection and record injectivity.  Used to saturate term
predicates and to ask whether a term's closure implies an atom.
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
        # a node was interned or two classes merged since close() last
        # completed; a clean close() has nothing to do
        self.dirty = False
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
        self.dirty = True
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
        self.intern[key] = nid
        self.dirty = True
        self._scalar_classes = self._tuple_classes = None
        if kind in ("tvar", "record", "slice"):
            self.tuple_nodes.append(nid)
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
        injectivity."""
        if not self.dirty:
            return
        changed = True
        while changed:
            changed = False
            sigs: dict[tuple, int] = {}
            for nid in range(len(self.parent)):
                if not self.children[nid] and self.kind[nid] != "tvar":
                    continue
                sig = (self.kind[nid], self.payload[nid],
                       tuple(self.find(c) for c in self.children[nid]))
                if self.kind[nid] == "tvar":
                    continue
                prev = sigs.get(sig)
                if prev is None:
                    sigs[sig] = nid
                elif self.union(prev, nid):
                    changed = True
            # record projection: attr_a(x) == field when class(x) holds a record
            records: dict[int, list[int]] = {}
            slices: dict[int, list[int]] = {}
            for nid in self.tuple_nodes:
                if self.kind[nid] == "record":
                    records.setdefault(self.find(nid), []).append(nid)
                elif self.kind[nid] == "slice":
                    slices.setdefault(self.find(nid), []).append(nid)
            for anode in self.attr_nodes:
                base_rep = self.find(self.children[anode][0])
                for rec in records.get(base_rep, []):
                    names = self.payload[rec]
                    attr = self.payload[anode]
                    if attr in names:
                        field_node = self.children[rec][names.index(attr)]
                        if self.union(anode, field_node):
                            changed = True
            # slice projection: attr_a(x) == attr_a(t) when class(x) holds
            # t|P with a in P; t.a is interned if missing
            if slices:
                for anode in list(self.attr_nodes):
                    attr = self.payload[anode]
                    for sl in slices.get(self.find(self.children[anode][0]), []):
                        if attr in self.payload[sl][0]:
                            base = self.children[sl][0]
                            src = AttrRef(self.source[base], attr)
                            changed |= self.union(
                                anode, self._node("attr", attr, (base,), src))
            # record injectivity: equal records have equal fields
            for first, *rest in records.values():
                for rec in rest:
                    if self.payload[rec] == self.payload[first]:
                        for f0, f1 in zip(self.children[first], self.children[rec]):
                            changed |= self.union(f0, f1)
        self.dirty = False

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
