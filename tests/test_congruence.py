"""Congruence closure over scalars, tuples, and uninterpreted functions."""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from semiq.congruence import Closure, closure_of
from semiq.schema import Schema
from semiq.exprs import (AttrRef, Const, Func, TupleSlice, TupleVar, mk_eq,
                        mk_record, mk_tuple_eq)

from helpers import (CLOSURE_ATTRS, CLOSURE_VARS, NaiveClosure,
                     closure_scalars, closure_tuples, closure_tuples_sliced,
                     congruent_preds)

S = Schema("s", (("a", "int"), ("b", "int")))


def _v(i):
    return TupleVar(i, S)


def _sym(name):
    # distinct opaque constants standing for the variables in the examples
    return Const(name, "string")


def test_mixed_function_congruence_classes():
    a, b, c, d, e = map(_sym, "abcde")
    f = lambda x: Func("f", (x,))
    g = lambda x: Func("g", (x,))
    p1 = [mk_eq(a, b), mk_eq(c, d), mk_eq(b, e), mk_eq(f(a), g(d))]
    p2 = [mk_eq(a, b), mk_eq(a, e), mk_eq(c, d), mk_eq(f(e), g(c))]
    assert congruent_preds(p1, p2)
    c1 = closure_of(p1)
    assert c1.scalar_eq(a, e) and c1.scalar_eq(f(a), f(e))
    assert c1.scalar_eq(g(c), g(d))
    assert not c1.scalar_eq(a, c)


def test_slice_projection_equates_shared_attributes():
    # t1 = t|{a,??s1} gives t1.a = t.a, but says nothing of t.b
    s1 = Schema("s1", (("a", "int"),), frozenset({"s1"}))
    s2 = Schema("s2", (("b", "int"),), frozenset({"s2"}))
    t, t1 = TupleVar(1, s1.concat(s2)), TupleVar(2, s1)
    c = closure_of([mk_tuple_eq(t1, TupleSlice(t, s1))])
    assert c.scalar_eq(AttrRef(t1, "a"), AttrRef(t, "a"))
    assert not c.scalar_eq(AttrRef(t1, "a"), AttrRef(t, "b"))


def test_identical_lists_trivially_congruent():
    a, b = _sym("a"), _sym("b")
    p = [mk_eq(a, b)]
    assert congruent_preds(p, list(p))


def test_transitivity_orderings_agree():
    a, b, c = map(_sym, "abc")
    assert congruent_preds([mk_eq(a, b), mk_eq(b, c)],
                           [mk_eq(a, c), mk_eq(a, b)])
    assert not congruent_preds([mk_eq(a, b)], [mk_eq(a, b), mk_eq(b, c)])


def test_transitive_closure_matches_bruteforce_partitions():
    # closure equality agrees with evaluating over every assignment of a
    # tiny domain to the symbols
    rng = random.Random(5)
    syms = [_sym(ch) for ch in "abcd"]
    for _ in range(60):
        eqs1 = [mk_eq(rng.choice(syms), rng.choice(syms)) for _ in range(3)]
        eqs2 = [mk_eq(rng.choice(syms), rng.choice(syms)) for _ in range(3)]

        def classes(eqs):
            parent = {s.value: s.value for s in syms}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x
            for q in eqs:
                ra, rb = find(q.lhs.value), find(q.rhs.value)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            return {s.value: find(s.value) for s in syms}

        want = classes(eqs1) == classes(eqs2)
        assert congruent_preds(eqs1, eqs2) == want


def test_tuple_equality_propagates_to_attributes():
    t1, t2 = _v(1), _v(2)
    c = closure_of([mk_tuple_eq(t1, t2)])
    assert c.scalar_eq(AttrRef(t1, "a"), AttrRef(t2, "a"))
    assert not c.scalar_eq(AttrRef(t1, "a"), AttrRef(t2, "b"))


def test_record_projection():
    t1, t3 = _v(1), _v(3)
    rec = mk_record({"a": AttrRef(t3, "a"), "b": Const(7, "int")})
    c = closure_of([mk_tuple_eq(t1, rec)])
    assert c.scalar_eq(AttrRef(t1, "a"), AttrRef(t3, "a"))
    assert c.scalar_eq(AttrRef(t1, "b"), Const(7, "int"))


def test_equal_records_have_equal_fields():
    # no attribute of t1 is mentioned, so projection alone cannot see that
    # t3.a = 0
    t1, t3 = _v(1), _v(3)
    zero = Const(0, "int")
    c = closure_of([mk_tuple_eq(t1, mk_record({"a": zero, "b": zero})),
                    mk_tuple_eq(t1, mk_record({"a": AttrRef(t3, "a"), "b": zero}))])
    assert c.scalar_eq(AttrRef(t3, "a"), zero)


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
                max_size=5),
       st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
                max_size=5))
@settings(max_examples=150, deadline=None)
def test_congruence_equals_naive_partition(eqs1, eqs2):
    syms = {ch: _sym(ch) for ch in "abcd"}

    def classes(eqs):
        parent = {ch: ch for ch in "abcd"}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for l, r in eqs:
            rl, rr = find(l), find(r)
            if rl != rr:
                parent[max(rl, rr)] = min(rl, rr)
        return tuple(find(ch) for ch in "abcd")

    want = classes(eqs1) == classes(eqs2)
    got = congruent_preds([mk_eq(syms[l], syms[r]) for l, r in eqs1],
                          [mk_eq(syms[l], syms[r]) for l, r in eqs2])
    assert got == want


def test_uninterpreted_atom_matching_respects_argument_order():
    from semiq.exprs import PredApp
    a, b = _sym("a"), _sym("b")
    ge1 = PredApp(">=", (a, b))
    ge2 = PredApp(">=", (b, a))
    assert not congruent_preds([ge1], [ge2])
    assert congruent_preds([ge1, mk_eq(a, b)], [ge2, mk_eq(a, b)])


# -- closures queried while they grow ------------------------------------------

_QUERIES = ("scalar_eq", "tuple_eq", "scalar_rep")
_ops = st.lists(st.one_of(
    st.tuples(st.just("eq"), closure_scalars, closure_scalars),
    st.tuples(st.just("teq"), closure_tuples, closure_tuples),
    st.tuples(st.just("add"), closure_scalars),
    st.tuples(st.just("scalar_eq"), closure_scalars, closure_scalars),
    st.tuples(st.just("tuple_eq"), closure_tuples, closure_tuples),
    st.tuples(st.just("scalar_rep"), closure_scalars)), max_size=12)


def _add(c, op):
    """The additions an operation makes, without closing."""
    kind, *args = op
    if kind == "eq":
        c.assert_eq(mk_eq(*args))
    elif kind == "teq":
        c.assert_eq(mk_tuple_eq(*args))
    elif kind == "tuple_eq":
        for t in args:
            c.add_tuple(t)
    else:
        for s in args:
            c.add_scalar(s)


def _closed_once(ops):
    c = Closure()
    for op in ops:
        _add(c, op)
    c.close()
    return c


def _answer(c, op):
    """A query's answer read off the union-find of an already closed closure."""
    kind, *args = op
    if kind == "tuple_eq":
        return c.find(c.add_tuple(args[0])) == c.find(c.add_tuple(args[1]))
    reps = [c.find(c.add_scalar(s)) for s in args]
    return reps[0] == reps[1] if kind == "scalar_eq" else reps[0]


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_closure_queried_while_growing_equals_closing_once(ops):
    c = Closure()
    for k, op in enumerate(ops):
        if op[0] in _QUERIES:
            got = getattr(c, op[0])(*op[1:])
            assert got == _answer(_closed_once(ops[:k + 1]), op)
        else:
            _add(c, op)
    c.close()
    want = _closed_once(ops)
    assert c.scalar_classes() == want.scalar_classes()
    assert c.tuple_classes() == want.tuple_classes()


# -- the incremental close against the rescan fixpoint ---------------------------

_OPS = ("eq", "teq", "add", "tadd", "scalar_eq", "tuple_eq", "scalar_rep",
        "tuple_rep")


def _partition(c: Closure) -> set:
    classes: dict[int, set] = {}
    for nid, src in enumerate(c.source):
        classes.setdefault(c.find(nid), set()).add(src)
    return {frozenset(members) for members in classes.values()}


@given(st.lists(closure_scalars, max_size=3),
       st.lists(closure_tuples_sliced, min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 8),
                          st.integers(0, 8)), min_size=4, max_size=20))
# a record closed on its own, then merged into a variable whose attribute
# was closed before it
@example([], [mk_record({"a": Const(0, "int"), "b": Const(1, "int")})],
         [("add", 0, 0), ("tadd", 3, 3), ("tuple_rep", 3, 3), ("teq", 0, 3)])
# an attribute interned after its variable's class took a slice
@example([], [TupleSlice(CLOSURE_VARS[1], Schema("p", (("a", "int"),)))],
         [("teq", 0, 3), ("tuple_rep", 0, 0), ("add", 0, 0)])
@settings(max_examples=300, deadline=None)
def test_incremental_close_equals_the_rescan_fixpoint(scalars, tuples, ops):
    # the same asserts, additions and queries, interleaved, on both
    # closures: every answer agrees, and so do the partitions and classes.
    # The operations draw from every variable and attribute and a few more
    # terms, so that one term is often interned, closed and merged again
    # later
    scalars = [*CLOSURE_ATTRS, *scalars]
    tuples = [*CLOSURE_VARS, *tuples]
    fast, naive = Closure(), NaiveClosure()
    for kind, i, j in ops:
        pool = tuples if kind in ("teq", "tadd", "tuple_eq", "tuple_rep") else scalars
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        for c in (fast, naive):
            if kind == "eq":
                c.assert_eq(mk_eq(x, y))
            elif kind == "teq":
                c.assert_eq(mk_tuple_eq(x, y))
            elif kind == "add":
                c.add_scalar(x)
            elif kind == "tadd":
                c.add_tuple(x)
        if kind in ("scalar_eq", "tuple_eq"):
            assert getattr(fast, kind)(x, y) == getattr(naive, kind)(x, y)
        elif kind in ("scalar_rep", "tuple_rep"):
            assert getattr(fast, kind)(x) == getattr(naive, kind)(x)
    fast.close()
    naive.close()
    assert fast.pending == []
    assert _partition(fast) == _partition(naive)
    assert fast.scalar_classes() == naive.scalar_classes()
    assert fast.tuple_classes() == naive.tuple_classes()
