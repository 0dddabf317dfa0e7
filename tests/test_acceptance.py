"""Acceptance suite.

One test per criterion; each prints a pass/fail line.  Tolerances and counts
are fixed here, nothing is deferred to calibration:

 1. index-scan rewrite proves with one key application and two
    whole-tuple summation eliminations, under 30 s;
 2. DISTINCT self-join proves through the squash procedure with the
    excluded-middle split, the squared-squash collapse, and the 1+x
    absorption visible in the trace;
 3. the Starburst DISTINCT pull-up proves via the key-guarded stability
    rewrite, with the two covering bijections logged;
 4. selection distributes over union with distribution as the only
    non-structural rule;
 5. 500 random pairs, zero oracle disagreements on 100 databases each
    whenever the verifier answers EQUIVALENT;
 6. bag completeness on unions of conjunctive queries, 100+100 pairs, exact;
 7. set completeness against the reference containment checker, 100 pairs,
    exact;
 8. 200 random expressions normalize to well-shaped, idempotent, and
    semantics-preserving normal forms (size growth reported);
 9. every core identity holds on 1000 random instantiations, exact;
10. the arithmetic pair and the count-subquery pair must never prove.
"""

from __future__ import annotations

import random
import time

from semiq.config import Limits
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import GenSizes, eval_exp
from semiq.pipeline import run_program_text, run_verify
from semiq.spnf import to_spnf
from semiq.exprs import TupleVar, VarGen, count_nodes

from helpers import (CORE_AXIOM_NAMES, alpha_equal, check_spnf, cq_set_equivalent,
                     enumerate_dbs, find_disagreement, gen_cq, gen_ucq,
                     gen_uexp, mutate_ucq, queries_agree, run_axiom_check,
                     small_dbs, std_env)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _bench(benchdir, fname):
    return (benchdir / fname).read_text()


# -- 1 ---------------------------------------------------------------------

def test_criterion_1_index_scan(benchdir):
    t0 = time.monotonic()
    out = run_program_text(_bench(benchdir, "index_scan.cos"))[0]
    wall = time.monotonic() - t0
    rules = out.trace.rule_names()
    ok = (out.status == "EQUIVALENT"
          and rules.count("key-collapse") == 1
          and rules.count("sum-elim-eq") == 2
          and rules.count("sum-elim-cover") == 1
          and wall < 30.0)
    report(1, "index-scan rewrite", ok,
           f"status={out.status}, key={rules.count('key-collapse')}, "
           f"elim={rules.count('sum-elim-eq')}, wall={wall:.2f}s")


# -- 2 ---------------------------------------------------------------------

def test_criterion_2_distinct_self_join(benchdir):
    out = run_program_text(_bench(benchdir, "distinct_selfjoin.cos"))[0]
    names = set(out.trace.rule_names())
    ok = (out.status == "EQUIVALENT"
          and "excluded-middle" in names
          and "squash-square" in names
          and "squash-one-plus" in names)
    report(2, "DISTINCT self-join", ok,
           f"status={out.status}, rules={sorted(names & {'excluded-middle', 'squash-square', 'squash-one-plus'})}")


# -- 3 ---------------------------------------------------------------------

def test_criterion_3_starburst(benchdir):
    out = run_program_text(_bench(benchdir, "starburst_distinct_pullup.cos"))[0]
    bijections = [e.payload["map"] for e in out.trace.events
                  if e.kind == "bijection" and len(e.payload["map"]) == 2]
    inverse_pair = any(
        sorted((y, x) for x, y in b1) == sorted(b2)
        for b1 in bijections for b2 in bijections)
    stable = out.trace.rule_names().count("key-squash-stable")
    ok = (out.status == "EQUIVALENT"
          and stable >= 1
          and len(bijections) >= 2 and inverse_pair)
    report(3, "Starburst DISTINCT pull-up", ok,
           f"status={out.status}, stable={stable}, "
           f"homomorphisms={bijections[:2]}")


# -- 4 ---------------------------------------------------------------------

STRUCTURAL_RULES = {
    "prod-comm", "mul-assoc", "mul-comm", "add-assoc", "add-comm",
    "sum-hoist", "sum-swap", "squash-mul", "pull-not", "mul-one", "mul-zero",
    "add-zero", "sum-zero", "squash-zero", "squash-one", "squash-idem",
    "squash-lift-add", "squash-not", "not-zero", "pred-squash-elim",
    "eq-trans", "eq-refl",
}
DISTRIBUTIVITY_RULES = {"distr-mul-add", "sum-add"}


def test_criterion_4_selection_over_union(benchdir):
    out = run_program_text(_bench(benchdir, "union_pushdown.cos"))[0]
    used = set(out.trace.rule_names())
    extra = used - STRUCTURAL_RULES - DISTRIBUTIVITY_RULES
    ok = (out.status == "EQUIVALENT"
          and not extra
          and "distr-mul-add" in used)
    report(4, "selection distributes over union", ok,
           f"status={out.status}, non-structural={sorted(used & DISTRIBUTIVITY_RULES)}, "
           f"unexpected={sorted(extra)}")


# -- 5 ---------------------------------------------------------------------

def _verify_status(q1, q2, env) -> str:
    from semiq.sqlast import VerifyStmt
    out = run_verify(VerifyStmt(q1, q2), "v", env, Limits(timeout_s=30),
                     want_trace=False)
    return out.status


def _keyed_env():
    from semiq import build_env, parse
    return build_env(parse("""
        schema s(a:int, b:int);
        schema w(a:int, b:int);
        table R(s);
        table S(w);
        key R(a);
        foreign key S(b) references R(a);
    """))


def test_criterion_5_soundness_suite():
    from semiq.sqlast import Distinct
    plain = std_env(("R", "S"))
    keyed = _keyed_env()
    rng = random.Random(2024)
    pools = {
        id(plain): small_dbs(plain, 100, seed=51, sizes=GenSizes(3, 3, 3),
                             extra_ints=(0, 1, 2)),
        id(keyed): small_dbs(keyed, 100, seed=52, sizes=GenSizes(3, 3, 3),
                             constraints=keyed.constraints(),
                             extra_ints=(0, 1, 2)),
    }
    assert all(len(p) == 100 for p in pools.values())
    pairs = []
    for _ in range(250):
        q = gen_ucq(rng)
        pairs.append((q, mutate_ucq(rng, q), plain))
    for _ in range(100):
        q = gen_ucq(rng)
        pairs.append((Distinct(q), Distinct(mutate_ucq(rng, q)), plain))
    for _ in range(100):
        q = gen_ucq(rng)
        q2 = mutate_ucq(rng, q)
        if rng.random() < 0.4:
            q, q2 = Distinct(q), Distinct(q2)
        pairs.append((q, q2, keyed))
    for _ in range(50):
        pairs.append((gen_ucq(rng), gen_ucq(rng), plain))
    assert len(pairs) == 500
    equivalent = disagreements = 0
    for q1, q2, env in pairs:
        if _verify_status(q1, q2, env) != "EQUIVALENT":
            continue
        equivalent += 1
        q1p = inline_views(desugar_groupby(q1), env)
        q2p = inline_views(desugar_groupby(q2), env)
        if not queries_agree(q1p, q2p, env, pools[id(env)]):
            disagreements += 1
    ok = disagreements == 0 and equivalent >= 300
    report(5, "soundness on 500 random pairs", ok,
           f"equivalent={equivalent}/500, disagreements={disagreements}")


# -- 6 ---------------------------------------------------------------------

def test_criterion_6_ucq_bag_completeness():
    env = std_env(("R", "S"))
    rng = random.Random(77)

    # equivalent pairs: branch permutation plus variable renaming
    from helpers import rename_aliases, _branches, union_all
    good = 0
    for _ in range(100):
        q = gen_ucq(rng)
        branches = [rename_aliases(rng, b) for b in _branches(q)]
        rng.shuffle(branches)
        q2 = union_all(branches)
        if _verify_status(q, q2, env) == "EQUIVALENT":
            good += 1
    eq_ok = good == 100

    # certified non-equivalent pairs must all be refuted definitively
    db_pool = list(enumerate_dbs(env, domain_size=2, max_tuples=2, max_mult=2,
                                 extra_ints=(0, 1, 2)))
    certified = refuted = 0
    attempts = 0
    while certified < 100 and attempts < 3000:
        attempts += 1
        q1, q2 = gen_ucq(rng), gen_ucq(rng)
        if find_disagreement(q1, q2, env, db_pool) is None:
            continue
        certified += 1
        if _verify_status(q1, q2, env) == "NOT_EQUIVALENT":
            refuted += 1
    ok = eq_ok and certified == 100 and refuted == 100
    report(6, "bag completeness on unions of conjunctive queries", ok,
           f"equivalent={good}/100, refuted={refuted}/{certified}")


# -- 7 ---------------------------------------------------------------------

def test_criterion_7_ucq_set_completeness():
    env = std_env(("R", "S"))
    rng = random.Random(4242)
    from semiq.sqlast import Distinct
    agree = 0
    for i in range(100):
        q1 = gen_cq(rng, max_atoms=4, max_vars=4, allow_const=False)
        q2 = gen_cq(rng, max_atoms=4, max_vars=4, allow_const=False)
        want = "EQUIVALENT" if cq_set_equivalent(q1, q2, env) else "NOT_EQUIVALENT"
        got = _verify_status(Distinct(q1), Distinct(q2), env)
        if got == want:
            agree += 1
    report(7, "set completeness vs reference containment", agree == 100,
           f"agreement={agree}/100")


# -- 8 ---------------------------------------------------------------------

def test_criterion_8_normalizer_suite():
    env = std_env()
    rng = random.Random(808)
    out_var = TupleVar(0, env.tables["R"], "t")
    db_pool = small_dbs(env, 20, seed=61, sizes=GenSizes(2, 2, 2))
    shaped = idem = preserved = 0
    growth = []
    for i in range(200):
        e = gen_uexp(rng, env, out_var, depth=3)
        gen = VarGen(1_000_000)
        s = to_spnf(e, gen)
        if check_spnf(s, frozenset({out_var.vid})):
            shaped += 1
        s2 = to_spnf(s.to_exp(), gen)
        if alpha_equal(s.to_exp(), s2.to_exp()):
            idem += 1
        growth.append(count_nodes(s.to_exp()) / count_nodes(e))
        ok = True
        for db in db_pool:
            for asg in db.tuple_space(out_var.schema)[:2]:
                envb = {out_var.vid: asg}
                if eval_exp(e, db, envb) != eval_exp(s.to_exp(), db, envb):
                    ok = False
        preserved += 1 if ok else 0
    avg_growth = (sum(growth) / len(growth) - 1.0) * 100.0
    ok = shaped == idem == preserved == 200
    report(8, "normalizer on 200 random expressions", ok,
           f"shape={shaped}, idempotent={idem}, preserved={preserved}, "
           f"size growth {avg_growth:+.1f}% (informational)")


# -- 9 ---------------------------------------------------------------------

def test_criterion_9_axiom_model_check():
    env = std_env()
    failures = {}
    for name in CORE_AXIOM_NAMES:
        checked, failed = run_axiom_check(name, env, rounds=1000, seed=9000)
        if failed or checked != 1000:
            failures[name] = (checked, failed)
    report(9, "core identities hold on 1000 instantiations each",
           not failures, f"identities={len(CORE_AXIOM_NAMES)}, failures={failures}")


# -- 10 --------------------------------------------------------------------

def test_criterion_10_negative_controls(benchdir):
    t0 = time.monotonic()
    arith = run_program_text(_bench(benchdir, "arithmetic_filters.cos"))[0]
    count = run_program_text(_bench(benchdir, "count_subquery.cos"))[0]
    wall = time.monotonic() - t0
    ok = (arith.status == "NOT_PROVED" and count.status == "NOT_PROVED"
          and wall < 30.0)
    report(10, "negative controls stay unproved", ok,
           f"arithmetic={arith.status}, count-subquery={count.status}, "
           f"wall={wall:.2f}s")
