"""Finite-model evaluator: examples, constraint checking, generators."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import random
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semiq import build_env, oracle, parse, pipeline
from semiq.config import Budget, BudgetError
from semiq.oracle import (FiniteDb, GenSizes, OracleError, check_constraints,
                          compile_query, eval_exp, gen_instances, interp_query,
                          make_assignment, agg_value, ufun_value, upred_truth)
from semiq.pipeline import find_witness, prepare_pair, query_reads
from semiq.schema import KeyConstraint, Schema
from semiq.sqlast import TableRef, UnionAll
from semiq.spnf import to_spnf
from semiq.translate import Denotation, denote
from semiq.exprs import (Add, AttrRef, Const, Mul, Not, Pred, PredApp, Rel, Squash,
                        Sum, TupleVar, VarGen, mk_eq)

from conftest import parse_query
from helpers import (PRELUDE, RULE_PAIRS, ZERO_RULE_PAIRS, enumerate_dbs,
                     index_join_back_program)

ROOT = Path(__file__).resolve().parent.parent

SR = Schema("sr", (("k", "int"), ("a", "int")))


def _db(rows, domains=None, name="R"):
    domains = domains or {"int": (0, 1, 15), "bool": (False, True),
                          "string": ("x",)}
    return FiniteDb(domains, {name: {make_assignment(r): m for r, m in rows}})


def test_eval_filter_scan_by_hand():
    prog = parse("""
        schema sr(k:int, a:int);
        table R(sr);
        verify (SELECT * FROM R t WHERE t.a >= 12) R;
    """)
    env = build_env(prog)
    d = denote(prog.statements[-1].lhs, env, VarGen())
    db = _db([({"k": 1, "a": 15}, 1)])
    hit = make_assignment({"k": 1, "a": 15})
    miss = make_assignment({"k": 0, "a": 0})
    assert eval_exp(d.body, db, {d.out_var.vid: hit}) == 1
    assert eval_exp(d.body, db, {d.out_var.vid: miss}) == 0


def test_eval_relation_atom_on_empty_db():
    t = TupleVar(1, SR)
    db = _db([])
    asg = db.tuple_space(SR)[0]
    assert eval_exp(Rel("R", t), db, {t.vid: asg}) == 0


def test_squash_clamps_total_multiplicity():
    t = TupleVar(1, SR)
    db = _db([({"k": 0, "a": 0}, 3), ({"k": 1, "a": 0}, 4)])
    e = Squash(Sum((t,), Rel("R", t)))
    assert eval_exp(Sum((t,), Rel("R", t)), db) == 7
    assert eval_exp(e, db) == 1
    assert eval_exp(Not(Sum((t,), Rel("R", t))), db) == 0


def test_unbound_variable_rejected():
    t = TupleVar(1, SR)
    with pytest.raises(OracleError):
        eval_exp(Rel("R", t), _db([]))


def test_space_cap_guard():
    wide = Schema("wide", tuple((f"a{i}", "int") for i in range(12)))
    db = FiniteDb({"int": (0, 1, 2)}, {})
    with pytest.raises(OracleError):
        db.tuple_space(wide)


def test_check_constraints_key_duplicate():
    key = KeyConstraint("R", ("k",))
    db = _db([({"k": 1, "a": 0}, 1), ({"k": 1, "a": 1}, 1)])
    assert not check_constraints(db, [key])
    db2 = _db([({"k": 1, "a": 0}, 1), ({"k": 2, "a": 1}, 1)])
    assert check_constraints(db2, [key])
    db3 = _db([({"k": 1, "a": 0}, 2)])
    assert not check_constraints(db3, [key])
    assert check_constraints(_db([]), [key])


def test_check_constraints_matches_key_identity():
    """check passes iff the key identity holds for all tuple pairs."""
    key = KeyConstraint("R", ("k",))
    t1, t2 = TupleVar(1, SR), TupleVar(2, SR)
    lhs = Mul((Mul((Pred(mk_eq(AttrRef(t1, "k"), AttrRef(t2, "k"))),
                    Rel("R", t1))), Rel("R", t2)))
    from semiq.exprs import mk_tuple_eq
    rhs = Mul((Pred(mk_tuple_eq(t1, t2)), Rel("R", t1)))
    domains = {"int": (0, 1), "bool": (False, True), "string": ("x",)}
    for db in enumerate_dbs_for(SR, domains):
        holds = all(
            eval_exp(lhs, db, {1: a1, 2: a2}) == eval_exp(rhs, db, {1: a1, 2: a2})
            for a1 in db.tuple_space(SR) for a2 in db.tuple_space(SR))
        assert holds == check_constraints(db, [key])


def enumerate_dbs_for(schema, domains, max_tuples=2, max_mult=2):
    probe = FiniteDb(domains, {})
    space = probe.tuple_space(schema)
    for k in range(max_tuples + 1):
        for support in itertools.combinations(space, k):
            for mults in itertools.product(range(1, max_mult + 1), repeat=k):
                yield FiniteDb(domains, {"R": dict(zip(support, mults))})


def test_check_constraints_fk():
    prog = parse("""
        schema sr(k:int, a:int);
        schema ss(j:int, f:int);
        table R(sr);
        table S(ss);
        key R(k);
        foreign key S(f) references R(k);
    """)
    env = build_env(prog)
    fk = env.fks[0]
    key = env.keys[0]
    base = {"int": (0, 1), "bool": (False, True), "string": ("x",)}
    ok = FiniteDb(base, {
        "R": {make_assignment({"k": 0, "a": 1}): 1},
        "S": {make_assignment({"j": 1, "f": 0}): 2},
    })
    assert check_constraints(ok, [key, fk])
    dangling = FiniteDb(base, {
        "R": {},
        "S": {make_assignment({"j": 1, "f": 0}): 1},
    })
    assert not check_constraints(dangling, [key, fk])


KEY_FK_DECL = """
    schema sr(k:int, a:int);
    schema ss(j:int, f:int);
    table R(sr);
    table S(ss);
    key R(k);
    foreign key S(f) references R(k);
"""
RS_DECL = """
    schema sr(a:int, b:int);
    schema ss(a:int, c:int);
    table R(sr);
    table S(ss);
"""


def test_gen_instances_deterministic_and_constraint_satisfying():
    env = build_env(parse(KEY_FK_DECL))
    run1 = [db.dump() for db in itertools.islice(
        gen_instances(env, env.constraints(), GenSizes(), seed=9), 10)]
    run2 = [db.dump() for db in itertools.islice(
        gen_instances(env, env.constraints(), GenSizes(), seed=9), 10)]
    assert run1 == run2
    for db in itertools.islice(gen_instances(env, env.constraints(),
                                             GenSizes(), seed=9), 10):
        assert check_constraints(db, env.constraints())


def _stream_sha(decl: str, seed: int, extra_ints=()) -> str:
    env = build_env(parse(decl))
    h = hashlib.sha256()
    for db in itertools.islice(gen_instances(env, env.constraints(), GenSizes(),
                                             seed, extra_ints=extra_ints), 200):
        h.update(repr((sorted(db.domains.items()), db.salt, db.dump())).encode())
    return h.hexdigest()


def test_gen_instances_stream_is_pinned():
    # the first 200 databases of two streams, database for database: any
    # change to the order or arguments of the generator's rng calls shows
    assert _stream_sha(RS_DECL, 0, extra_ints=(0, 1, 2, 3)) == (
        "b83a300674e6f86bcc6c3ba3db896202665ee2bdc1b0b8f09b43d86551558140")
    assert _stream_sha(KEY_FK_DECL, 9) == (
        "87c872ca1e369e30bc8a3916612af7601851b2447c59ff3f99bb30103297a267")


def test_gen_instances_draws_every_row_count_row_and_multiplicity():
    # a 2-column table over 3 values: each of its 9 rows, each row count
    # 0..3 and each multiplicity 1..3 shows within the first 300 databases
    env = build_env(parse("schema two(a:int, b:int);\ntable T(two);\n"))
    rows, counts, mults = set(), set(), set()
    for db in itertools.islice(gen_instances(env, [], GenSizes(), 3,
                                             extra_ints=(0, 1, 2)), 300):
        bag = db.rels["T"]
        rows |= bag.keys()
        counts.add(len(bag))
        mults |= set(bag.values())
    assert rows == {make_assignment({"a": a, "b": b}) for a in range(3) for b in range(3)}
    assert counts == {0, 1, 2, 3} and mults == {1, 2, 3}


def test_a_generic_table_ends_the_stream():
    env = build_env(parse("schema s(a:int);\nschema g(a:int, ??);\ntable R(s);\ntable G(g);\n"))
    assert list(gen_instances(env, [], GenSizes(), 1, count=5)) == []
    assert next(gen_instances(env, [], GenSizes(), 1), None) is None


def test_a_refutation_sweep_enumerates_no_tuple_space(monkeypatch):
    calls = []
    real = FiniteDb.tuple_space

    def counting(self, schema):
        calls.append(schema)
        return real(self, schema)
    monkeypatch.setattr(FiniteDb, "tuple_space", counting)
    env = _rs_env()
    same = parse_query("SELECT x.a AS a FROM R x, S y WHERE x.b = y.a")
    swapped = parse_query("SELECT x.a AS a FROM S y, R x WHERE y.a = x.b")
    assert find_witness(same, swapped, env) is None  # all 200 databases
    assert find_witness(same, parse_query("SELECT x.a AS a FROM R x"), env) is not None
    assert calls == []


# seven int columns and six constants: 7^7 or more tuples, over the
# oracle's cap of 65,536, at every int-domain size
WIDE = index_join_back_program(6)


def test_a_table_over_the_space_cap_gets_databases():
    program = parse(WIDE)
    env = build_env(program)
    [q, _] = prepare_pair(program.verifies()[0], env)
    ints = sorted(query_reads(env, q)[0]["int"])
    assert len(ints) == 6
    for sizes in (GenSizes(2, 2, 2), GenSizes()):
        dbs = list(gen_instances(env, env.constraints(), sizes, 11, count=3, extra_ints=ints))
        assert len(dbs) == 3
        assert all(check_constraints(db, env.constraints()) for db in dbs)
        assert any(db.rels["R"] for db in dbs)


def test_a_table_over_the_space_cap_gets_a_witness():
    env = build_env(parse(WIDE))
    cond = " AND ".join(f"t.c{i} <> {3 * i + 1}" for i in range(5))
    q1 = parse_query(f"SELECT t.c0 AS o FROM R t WHERE {cond}")
    q2 = parse_query(f"SELECT t.c0 AS o FROM R t WHERE {cond} AND t.c5 <> 16")
    assert len(query_reads(env, q1, q2)[0]["int"]) == 6
    witness = find_witness(q1, q2, env)
    assert witness is not None
    assert interp_query(q1, witness, env) != interp_query(q2, witness, env)


# A -> B -> C is a foreign-key chain over keyed tables, and U and W are
# tables the chain's pairs do not read
CHAIN_DECL = """
    schema sa(k:int, f:int);
    schema sb(k:int, g:int);
    schema sc(k:int, v:int);
    schema su(a:int, b:int);
    table A(sa);
    table B(sb);
    table C(sc);
    table U(su);
    table W(su);
    key A(k);
    key B(k);
    key C(k);
    key W(a);
    foreign key A(f) references B(k);
    foreign key B(g) references C(k);
"""
CHAIN_QUERIES = ("SELECT x.k AS o FROM {src} WHERE x.f = {c}",
                 "SELECT x.f AS o FROM {src} WHERE x.k < {c}",
                 "SELECT x.f AS o FROM {src} WHERE NOT (x.k = {c})",
                 "SELECT DISTINCT x.f AS o FROM {src}",
                 "SELECT x.f AS o FROM {src}")
chain_pairs = st.tuples(st.sampled_from(CHAIN_QUERIES), st.integers(0, 3),
                        st.sampled_from(CHAIN_QUERIES), st.integers(0, 3),
                        st.integers(0, 99))


def _chain_pair(pair, src: str):
    text1, c1, text2, c2, seed = pair
    relations = ("A", "B", "C", "U", "W")
    return (parse_query(text1.format(src=src, c=c1), relations),
            parse_query(text2.format(src=src, c=c2), relations), seed)


@given(chain_pairs)
@settings(max_examples=40, deadline=None)
def test_a_witness_drawn_from_the_read_tables_keeps_every_declared_constraint(pair):
    # the pair reads A, so B and C are drawn too, and U and W are not
    env = build_env(parse(CHAIN_DECL))
    q1, q2, seed = _chain_pair(pair, "A x")
    assert query_reads(env, q1, q2)[1] == {"A", "B", "C"}
    witness = find_witness(q1, q2, env, seed=seed)
    if witness is not None:
        assert interp_query(q1, witness, env) != interp_query(q2, witness, env)
        assert check_constraints(witness, env.constraints())
        assert witness.rels.keys() == env.tables.keys()
        assert witness.rels["U"] == witness.rels["W"] == {}


def test_a_witness_over_a_foreign_key_source_holds_its_targets():
    env = build_env(parse(CHAIN_DECL))
    q1, q2, _ = _chain_pair((CHAIN_QUERIES[4], 0, CHAIN_QUERIES[3], 0, 0), "A x")
    witness = find_witness(q1, q2, env)
    assert witness is not None and check_constraints(witness, env.constraints())
    assert all(witness.rels[t] for t in "ABC")


@given(chain_pairs)
@settings(max_examples=25, deadline=None)
def test_a_pair_that_reads_every_table_sweeps_the_full_stream(pair):
    env = build_env(parse(CHAIN_DECL))
    q1, q2, seed = _chain_pair(pair, "A x, U u, W w")
    lits, read = query_reads(env, q1, q2)
    assert read == set(env.tables)
    stream = gen_instances(env, env.constraints(), GenSizes(), seed,
                           extra_ints=sorted(lits["int"]), extra_strings=sorted(lits["string"]))
    full = next((db for db in itertools.islice(stream, 200)
                 if interp_query(q1, db, env) != interp_query(q2, db, env)), None)
    witness = find_witness(q1, q2, env, seed=seed)
    if full is None:
        assert witness is None
    else:
        assert (witness.domains, witness.salt, witness.rels) == (full.domains, full.salt, full.rels)


# ---------------------------------------------------------------------------
# The sweep cache: `find_witness` draws each stream once per process

# true over R, so a sweep runs all 200 databases; the literal 1 is in both
TRUE_PAIR = ("SELECT x.a AS o FROM R x WHERE x.a < x.b AND x.b <> 1",
             "SELECT x.a AS o FROM R x WHERE x.b > x.a AND NOT (x.b = 1)")
# a bag/set pair over R with the same literal: the first duplicate separates it
BAG_SET_PAIR = ("SELECT x.a AS o FROM R x WHERE x.b <> 1",
                "SELECT DISTINCT x.a AS o FROM R x WHERE x.b <> 1")


def _calls(monkeypatch, name: str) -> list:
    """Each call of ``pipeline.<name>`` from now on."""
    calls, real = [], getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _pair(pair):
    return tuple(parse_query(q) for q in pair)


def test_a_warm_sweep_gives_the_cold_sweeps_witness_and_evaluations(monkeypatch):
    gens, interps = _calls(monkeypatch, "gen_instances"), _calls(monkeypatch, "interp_query")
    env = _rs_env()
    runs = {}
    for cache in ("cold", "warm"):
        if cache == "cold":
            pipeline.SWEEPS.clear()
        for name, pair in (("bag-set", BAG_SET_PAIR), ("true", TRUE_PAIR)):
            interps.clear()
            witness = find_witness(*_pair(pair), env)
            runs[cache, name] = (witness and witness.dump(), len(interps))
    assert runs["cold", "bag-set"] == runs["warm", "bag-set"]
    assert runs["cold", "true"] == runs["warm", "true"] == (None, 400)
    assert runs["cold", "bag-set"][0] is not None and runs["cold", "bag-set"][1] < 400
    # the true pair reads the tables and literals of the bag/set pair: it
    # extends the bag/set pair's stream and starts no generator of its own
    assert len(gens) == 1


def test_a_witness_is_a_copy_that_the_cache_never_sees():
    env = _rs_env()  # the pair reads R alone
    first = find_witness(*_pair(BAG_SET_PAIR), env)
    dump = first.dump()
    assert first.rels["S"] == {}
    first.rels["R"].clear()
    first.rels["S"][make_assignment({"a": 0, "b": 0})] = 1
    first.domains["int"] = ()
    second = find_witness(*_pair(BAG_SET_PAIR), env)
    assert second is not first and second.dump() == dump and second.rels["S"] == {}
    assert not (second._scans or second._bags or second._hashes or second._spaces)
    [stream] = pipeline.SWEEPS.streams.values()
    assert all(db is not second and db.rels["R"] is not second.rels["R"]
               for db in stream.dbs)
    assert all(list(db.rels) == ["R"] for db in stream.dbs)


def test_the_sweep_cache_keeps_its_bound_and_evicts_the_least_recent_stream():
    # one table per database and 200 databases per full sweep: seeds
    # 0..fit-1 fill the cache, seed 0 is read again, and seed fit evicts
    # seed 1, the least recently used
    env = build_env(parse("schema s(a:int, b:int);\ntable R(s);\n"))
    pair, cache = _pair(TRUE_PAIR), pipeline.SWEEPS
    fit = pipeline.SWEEP_TABLES // 200
    for seed in (*range(fit), 0, fit):
        assert find_witness(*pair, env, seed=seed) is None
        assert cache.tables <= pipeline.SWEEP_TABLES
    assert [key[2] for key in cache.streams] == [*range(2, fit), 0, fit]
    assert cache.tables == 200 * fit == sum(len(s.dbs) for s in cache.streams.values())


def test_a_stream_over_the_bound_by_itself_is_not_kept(monkeypatch):
    monkeypatch.setattr(pipeline, "SWEEP_TABLES", 150)
    gens = _calls(monkeypatch, "gen_instances")
    env = build_env(parse("schema s(a:int, b:int);\ntable R(s);\n"))
    for _ in range(2):
        assert find_witness(*_pair(TRUE_PAIR), env) is None
        assert (pipeline.SWEEPS.streams, pipeline.SWEEPS.tables) == ({}, 0)
    assert len(gens) == 2


def test_a_stream_whose_generator_raises_is_dropped(monkeypatch):
    real = pipeline.gen_instances

    def failing(*args, **kwargs):
        yield from itertools.islice(real(*args, **kwargs), 3)
        raise OracleError("the generator failed")
    monkeypatch.setattr(pipeline, "gen_instances", failing)
    env = _rs_env()
    assert find_witness(*_pair(TRUE_PAIR), env) is None
    assert (pipeline.SWEEPS.streams, pipeline.SWEEPS.tables) == ({}, 0)
    monkeypatch.setattr(pipeline, "gen_instances", real)
    gens = _calls(monkeypatch, "gen_instances")
    assert find_witness(*_pair(BAG_SET_PAIR), env) is not None
    assert len(gens) == 1 and len(pipeline.SWEEPS.streams) == 1


def test_streams_that_differ_in_one_input_get_their_own_entries(monkeypatch):
    gens = _calls(monkeypatch, "gen_instances")

    def sweep(ty="int", key="", literal=1, seed=0, schema="s"):
        env = build_env(parse(f"schema {schema}(a:{ty}, b:int);\ntable R({schema});\n{key}"))
        q = parse_query(f"SELECT x.b AS o FROM R x WHERE x.b = {literal}")
        assert find_witness(q, q, env, seed=seed) is None
    sweep()
    sweep(literal=2)
    sweep(seed=1)
    sweep(key="key R(b);")
    sweep(ty="string")
    assert len(gens) == len(pipeline.SWEEPS.streams) == 5
    # the schema's name is not drawn from: the same columns share a stream
    sweep(schema="t")
    assert len(gens) == 5


def test_gen_instances_share_tuple_spaces_per_domain_draw():
    env = build_env(parse(KEY_FK_DECL))
    first: dict[str, FiniteDb] = {}
    shared = 0
    for db in itertools.islice(gen_instances(env, env.constraints(),
                                             GenSizes(), seed=9), 30):
        prev = first.setdefault(repr(sorted(db.domains.items())), db)
        if prev is not db:
            for sch in env.tables.values():
                assert db.tuple_space(sch) is prev.tuple_space(sch)
            shared += 1
    assert shared > 0


def test_gen_unsatisfiable_yields_empty_stream():
    # a key plus a foreign key from a wider table forces consistency; with a
    # self-referencing key on an always-duplicated setup we instead check
    # that the generator gives up cleanly when sizes make repair impossible
    prog = parse("""
        schema one(u:int);
        table U(one);
        key U(u);
    """)
    env = build_env(prog)
    dbs = list(itertools.islice(
        gen_instances(env, env.constraints(), GenSizes(domain=1, tuples=3, mult=3),
                      seed=1, count=5), 5))
    # repair enforces the key: every produced db satisfies it
    assert all(check_constraints(db, env.constraints()) for db in dbs)


def test_enumerate_dbs_counts():
    prog = parse("""
        schema one(u:int);
        table U(one);
    """)
    env = build_env(prog)
    dbs = list(enumerate_dbs(env, domain_size=1, max_tuples=1, max_mult=3))
    # unary relation over a single value: empty, or the one tuple at
    # multiplicity 1..3
    assert len(dbs) == 4


def test_uninterpreted_functions_deterministic():
    db = _db([])
    f = PredApp(">=", (Const(5, "int"), Const(3, "int")))
    t = TupleVar(1, SR)
    assert eval_exp(Pred(f), db, {}) == 1  # standard meaning on ints
    g1 = eval_exp(Pred(PredApp("mystery", (Const(1, "int"),))), db, {})
    g2 = eval_exp(Pred(PredApp("mystery", (Const(1, "int"),))), db, {})
    assert g1 == g2


def test_grouped_query_gives_one_row_per_group():
    # SQL keeps the two groups (1,1) and (1,2) apart even though only
    # their a is projected
    env = build_env(parse("schema s(a:int, b:int);\ntable R(s);\n"))
    db = _db([({"a": 1, "b": 1}, 1), ({"a": 1, "b": 2}, 1)])
    q = parse_query("SELECT x.a AS a FROM R x GROUP BY x.a, x.b")
    assert interp_query(q, db, env) == {make_assignment({"a": 1}): 2}


def test_upred_truth_orders_ints_and_hashes_the_rest():
    db = _db([])
    assert upred_truth(db, "<", (1, 2)) and not upred_truth(db, ">=", (1, 2))
    # bools and strings are not ordered: their truth is the hash, as for
    # any uninterpreted predicate
    for args in ((True, 2), (1, False), ("a", "b")):
        hashed = int.from_bytes(hashlib.blake2b(
            repr((db.salt, ("pred", "<", args))).encode(), digest_size=8).digest(), "big")
        assert upred_truth(db, "<", args) == (hashed % 2 == 1)


def test_hashed_values_are_hashed_once_per_database_and_type(monkeypatch):
    # a function, predicate or aggregate applied again to the same values
    # reads its value from the database's memo; True and 1 are equal keys
    # that print apart, so they keep their own hashes
    calls = []
    real = hashlib.blake2b
    monkeypatch.setattr(oracle.hashlib, "blake2b",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    db = _db([])
    dom = db.domain("int")
    bag = ((make_assignment({"a": True}), 2),)
    cases = [(ufun_value, (1,), "fn"), (ufun_value, (True,), "fn"),
             (upred_truth, ("a", 1), "pred"), (upred_truth, ("a", True), "pred"),
             (agg_value, bag, "agg"), (agg_value, ((make_assignment({"a": 1}), 2),), "agg")]
    for _ in range(3):
        for fn, values, kind in cases:
            h = int.from_bytes(real(repr((db.salt, (kind, "f", values))).encode(),
                                    digest_size=8).digest(), "big")
            want = {"fn": dom[h % len(dom)], "pred": h % 2 == 1,
                    "agg": dom[h % len(dom)]}[kind]
            assert fn(db, "f", values) == want
    assert len(calls) == len(cases)
    # another database hashes anew
    assert ufun_value(_db([]), "f", (1,)) == ufun_value(db, "f", (1,))
    assert len(calls) == len(cases) + 1


def _rs_env():
    return build_env(parse("schema s(a:int, b:int);\ntable R(s);\ntable S(s);\n"))


def _recording_scans(monkeypatch) -> list:
    """Each `FiniteDb.scan` call from now on, as (db, table, rows)."""
    scans, real = [], FiniteDb.scan

    def scan(self, name):
        rows = real(self, name)
        scans.append((self, name, rows))
        return rows
    monkeypatch.setattr(FiniteDb, "scan", scan)
    return scans


def test_a_plan_runs_on_many_databases_and_shares_their_scans(monkeypatch):
    scans = _recording_scans(monkeypatch)
    env = _rs_env()
    q = parse_query("SELECT x.a AS a FROM R x, R y WHERE x.b = y.a")
    plan = compile_query(q, env)
    for db in itertools.islice(gen_instances(env, [], GenSizes(), 4), 30):
        scans.clear()
        assert interp_query(plan, db, env) == interp_query(q, db, env)
        # both scans of R, and both runs, read the one row list the
        # generator built, which is the table's `_live_rows`
        assert [name for _, name, _ in scans] == ["R"] * 4
        assert all(rows is db._scans["R"] for _, _, rows in scans)
        assert db._scans["R"] == oracle._live_rows(db.rels["R"])


@pytest.mark.parametrize("text,width,total", [
    # 64,000 rows of 40: each scan is read, so none collapses to its total
    ("SELECT x.a AS a, y.a AS b, z.a AS c FROM R x, R y, R z", 20, 40 ** 3),
    ("SELECT * FROM R x", 32_000, 64_000),  # 64,000 rows of one table
    ("SELECT x.a AS a FROM R x WHERE x.b < 2", 32_000, 64_000),
    ("SELECT x.a AS a, cnt(x.b) AS n FROM R x GROUP BY x.a", 32_000, 32_000),
], ids=["product", "star", "compare", "group"])
def test_select_loop_checks_the_deadline_within_one_evaluation(text, width, total):
    env = _rs_env()
    db = _db([({"a": i, "b": j}, 1) for i in range(width) for j in range(2)])
    q = parse_query(text)
    budget = Budget()
    checks = []

    def expire():
        checks.append(1)
        raise BudgetError("timeout")

    budget.check_time = expire
    with pytest.raises(BudgetError):
        interp_query(compile_query(q, env, budget), db, env)
    assert checks == [1]
    assert sum(interp_query(q, db, env).values()) == total


@pytest.mark.parametrize("unread,read", [
    ("SELECT x.a AS a FROM R x, R y, R z",
     "SELECT x.a AS a FROM R x, R y, R z WHERE y.b = y.b AND z.b = z.b"),
    ("SELECT x.a AS a, cnt(x.b) AS n FROM R x, R y GROUP BY x.a",
     "SELECT x.a AS a, cnt(x.b) AS n FROM R x, R y WHERE y.a = y.a GROUP BY x.a"),
    ("SELECT x.a AS a FROM R x, S y", "SELECT x.a AS a FROM R x, S y WHERE y.a = y.a"),
    ("SELECT x.a AS a FROM R x, R y WHERE EXISTS (SELECT y.a AS a FROM R y WHERE y.b = 1)",
     "SELECT x.a AS a FROM R x, R y WHERE y.b = y.b AND "
     "EXISTS (SELECT y.a AS a FROM R y WHERE y.b = 1)"),
], ids=["product", "group", "empty", "shadowed"])
def test_an_unread_source_counts_as_its_total_multiplicity(unread, read):
    # a source no column reads (a subquery's own y shadows the outer one) is
    # one row of its rows' total multiplicity, and none when that is 0: the
    # bag is the one that reading it gives, and each loop walks at most 40
    # rows, fewer than the 256 between deadline checks
    env = _rs_env()
    db = _db([({"a": i, "b": j}, 1 + i % 3) for i in range(20) for j in range(2)])

    def run(text):
        budget, checks = Budget(), []
        budget.check_time = lambda: checks.append(1)
        return interp_query(compile_query(parse_query(text), env, budget), db, env), checks
    (bag, checks), (expected, _) = run(unread), run(read)
    assert bag == expected and checks == []


def test_a_refutation_sweep_builds_no_assignment_and_scans_a_table_once_per_db(
        monkeypatch):
    # a true pair the procedure cannot prove: all 200 databases are swept;
    # `SELECT *` returns each scanned row's stored assignment
    built, rebuilt, dbs = [], [], []
    assign, live_rows, gen = oracle.make_assignment, oracle._live_rows, pipeline.gen_instances
    monkeypatch.setattr(oracle, "make_assignment",
                        lambda values: built.append(values) or assign(values))
    monkeypatch.setattr(oracle, "_live_rows", lambda bag: rebuilt.append(bag) or live_rows(bag))
    monkeypatch.setattr(pipeline, "gen_instances",
                        lambda *a, **k: (dbs.append(db) or db for db in gen(*a, **k)))
    scans = _recording_scans(monkeypatch)
    env = _rs_env()
    lhs = parse_query("SELECT * FROM R x WHERE x.a < x.b")
    rhs = parse_query("SELECT * FROM R y WHERE y.b > y.a")
    assert find_witness(lhs, rhs, env) is None
    assert len(dbs) == 200
    assert built == [] and rebuilt == []
    # per database, the two plans scan R, the one table the pair reads, and
    # read the one row list the generator built
    assert [(id(db), name) for db, name, _ in scans] == [
        (id(db), "R") for db in dbs for _ in range(2)]
    assert all(rows is db._scans["R"] for db, _, rows in scans)
    assert all(list(db.rels) == ["R"] for db in dbs)


def test_long_union_all_evaluates_without_recursion():
    env = _rs_env()
    q = UnionAll((TableRef("R"),) + (TableRef("S"),) * 1199)
    db = FiniteDb({"int": (0, 1)}, {"R": {make_assignment({"a": 0, "b": 1}): 2},
                                    "S": {make_assignment({"a": 1, "b": 1}): 1}})
    assert interp_query(q, db, env) == {make_assignment({"a": 0, "b": 1}): 2,
                                        make_assignment({"a": 1, "b": 1}): 1199}


# ---------------------------------------------------------------------------
# The plan against the denotation: two independent evaluators, one answer

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# eval_exp enumerates every tuple space under every summation, so the
# nested-projection, long join and multi-probe index programs would take
# hours at any domain size; a side is compared on a database when this
# bound on the number of bodies it evaluates holds and its output tuple
# space is within the oracle's cap
ENUMERATION_CAP = 100_000


def _space_size(schema: Schema, db: FiniteDb) -> int:
    return prod(len(db.domain(t)) for _, t in schema.attrs)


def _comparable(d, db: FiniteDb) -> bool:
    out = _space_size(d.schema, db)
    return out <= db.space_cap and out * _enumeration_bound(d.body, db) <= ENUMERATION_CAP


def _pools(text: str, count: int = 3):
    """Per side of each verify: its query, its denotation, the variable
    supply past the denotation's variables, and those of ``count``
    databases with its constants on which the plan and the denotation can
    be compared."""
    program = parse(text)
    env = build_env(program)
    for stmt in program.verifies():
        for q in prepare_pair(stmt, env):
            lits, _ = query_reads(env, q)
            gen = VarGen()
            d = denote(q, env, gen)
            dbs = gen_instances(
                env, env.constraints(), GenSizes(2, 2, 2), 11, count=count,
                extra_ints=sorted(lits["int"]), extra_strings=sorted(lits["string"]))
            yield env, q, d, gen, [db for db in dbs if _comparable(d, db)]


# chains of 3, 4 and 5 operands: the plan joins them pairwise, and an odd
# count carries one operand to the next round
CHAINS = """schema s(a:int, b:int);
table R(s);
verify (SELECT x.a AS o FROM R x WHERE x.a = 0 OR x.b = 1 OR x.a = x.b OR x.b = 0 OR x.a = 1)
       (SELECT x.a AS o FROM R x
        WHERE x.a = x.b AND x.b = 1 AND x.a = 1 OR NOT x.a = 0 AND x.b = 0 AND x.a = x.b
              AND x.b = x.a OR x.a = 1);
"""


def _programs() -> list[tuple[str, str, int]]:
    """(name, text, databases drawn per side) of each compared program."""
    out = [(p.name, p.read_text(), 3) for p in sorted((ROOT / "benchmarks").glob("*.cos"))]
    out.append(("and-or-chains", CHAINS, 3))
    # a pair per normalizer rule, so that a rule applied wrongly changes a
    # normal form these databases tell apart; pairs that share a text run
    # once.  A wrong rule can show on few databases (keeping only pull-not's
    # first negation shows on the 34th), and these programs are small
    rules: dict[str, list[str]] = {}
    for rule, q1, q2 in ZERO_RULE_PAIRS + RULE_PAIRS:
        rules.setdefault(PRELUDE + f"verify ({q1}) ({q2});\n", []).append(rule)
    out += [(f"rule/{'+'.join(names)}", text, 40) for text, names in rules.items()]
    for name in sorted(workloads.WORKLOADS):
        seen = set()
        for inst in workloads.build(name, 3, ROOT):
            if inst.family not in seen and not inst.family.startswith("bundled-"):
                seen.add(inst.family)
                out.append((f"{name}/{inst.family}", inst.text, 3))
    return [(name, text, count) for name, text, count in out
            if any(dbs for *_, dbs in _pools(text, count))]


def _enumeration_bound(e, db) -> int:
    if isinstance(e, Sum):
        return prod(_space_size(v.schema, db) for v in e.vars) * \
            _enumeration_bound(e.body, db)
    if isinstance(e, Add):
        return sum(_enumeration_bound(t, db) for t in e.terms)
    if isinstance(e, Mul):
        return sum(_enumeration_bound(f, db) for f in e.factors)
    if isinstance(e, (Squash, Not)):
        return _enumeration_bound(e.body, db)
    return 1


PROGRAMS = _programs()


@pytest.mark.parametrize("text, count", [(t, c) for _, t, c in PROGRAMS],
                         ids=[n for n, _, _ in PROGRAMS])
def test_plan_equals_denotation(text, count):
    # and the normal form equals both, on the databases where it too can
    # be enumerated: the chain SQL = denote = to_spnf
    compared = normal = 0
    for env, q, d, gen, dbs in _pools(text, count):
        plan = compile_query(q, env)
        nf = Denotation(d.out_var, to_spnf(d.body, gen).to_exp())
        for db in dbs:
            bag = interp_query(plan, db, env)
            check_nf = _comparable(nf, db)
            for asg in db.tuple_space(d.schema):
                envb = {d.out_var.vid: asg}
                assert eval_exp(d.body, db, envb) == bag.get(asg, 0)
                if check_nf:
                    assert eval_exp(nf.body, db, envb) == bag.get(asg, 0)
            compared += 1
            normal += check_nf
    assert compared and normal


# Databases the generator never draws: R's rows are keyed in schema order
# (b before a) and T's in (s, f, c), not through make_assignment, and T's
# string and bool columns take upred_truth's hashed branch under < and >=.
# The plan and the denotation both run on them as given.
HAND_DECL = """schema rs(b:int, a:int);
schema ts(s:string, f:bool, c:int);
table R(rs);
table T(ts);
"""
HAND_QUERIES = [
    "SELECT * FROM R x WHERE x.a < x.b",
    "SELECT * FROM T y WHERE y.s < 'b' OR y.f >= y.f",
    "SELECT * FROM T y WHERE 'b' >= y.s AND y.c < 2",
    "SELECT * FROM R x, T y WHERE x.a = y.c OR y.s >= 'b'",
    "SELECT x.*, y.s AS s FROM R x, T y WHERE y.f < y.f OR x.b <> y.c",
    "SELECT u.a AS a FROM (SELECT * FROM R x WHERE x.b >= 1) u, T y WHERE u.b < y.c",
    "SELECT u.a AS a FROM (R UNION ALL R) u WHERE u.a >= u.b",
    "R UNION ALL R",
    "SELECT y.s AS s, sum(y.c) AS n FROM T y WHERE y.f >= y.f GROUP BY y.s",
    "SELECT x.a AS a, cnt(x.b) AS n FROM R x GROUP BY x.a",
]


def _hand_dbs():
    domains = {"int": (0, 1, 2), "bool": (False, True), "string": ("a", "b", "c")}
    for salt in range(4):
        rng = random.Random(salt)
        rels = {"R": {(("b", rng.randrange(3)), ("a", rng.randrange(3))): rng.randint(1, 3)
                      for _ in range(4)},
                "T": {(("s", rng.choice("abc")), ("f", rng.random() < 0.5),
                       ("c", rng.randrange(3))): rng.randint(1, 3) for _ in range(4)}}
        yield FiniteDb(domains, rels, salt=salt)


@pytest.mark.parametrize("text", HAND_QUERIES)
def test_plan_equals_denotation_on_hand_built_dbs(text):
    program = parse(HAND_DECL + f"verify ({text}) ({text});\n")
    env = build_env(program)
    [stmt] = program.verifies()
    plan = compile_query(stmt.lhs, env)
    d = denote(prepare_pair(stmt, env)[0], env, VarGen())
    rows = 0
    for db in _hand_dbs():
        bag = interp_query(plan, db, env)
        rows += sum(bag.values())
        for asg in db.tuple_space(d.schema):
            assert eval_exp(d.body, db, {d.out_var.vid: asg}) == bag.get(asg, 0)
    assert rows
