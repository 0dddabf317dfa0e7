#!/usr/bin/env python3
"""Random differential experiment: generate query pairs, decide them, and
cross-check every EQUIVALENT verdict against the finite-model oracle.

The pairs wrapped in DISTINCT are, in equal shares, a UCQ against a
mutation of itself, against the same branches with each body joined with
a copy of itself, and against itself plus a narrowed copy of one branch.
Their verdict must be exactly that of the reference containment checker
(`tests/helpers.py`), whose count of misses is printed as `wrong_set=`.

    python scripts/random_soundness.py --pairs 500 --dbs 100 --seed 2024
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from semiq.config import Budget, Limits                          # noqa: E402
from semiq.decide import Decider                                 # noqa: E402
from semiq.frontend import desugar_groupby, inline_views         # noqa: E402
from semiq.oracle import GenSizes, compile_query, interp_query   # noqa: E402
from semiq.spnf import to_spnf                                   # noqa: E402
from semiq.sqlast import Distinct                                # noqa: E402
from helpers import (_branches, copy_body, denote_pair, gen_ucq,  # noqa: E402
                     mutate_ucq, narrow, small_dbs, std_env,
                     ucq_set_equivalent, union_all)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=500)
    ap.add_argument("--dbs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--set-fraction", type=float, default=0.2,
                    help="fraction of pairs wrapped in DISTINCT")
    args = ap.parse_args()

    env = std_env(("R", "S"))
    rng = random.Random(args.seed)
    pool = small_dbs(env, args.dbs, seed=args.seed + 1,
                     sizes=GenSizes(3, 3, 3), extra_ints=(0, 1, 2))
    t0 = time.monotonic()
    equivalent = other = disagreements = wrong_set = 0
    for i in range(args.pairs):
        q = gen_ucq(rng)
        q2 = mutate_ucq(rng, q)
        distinct = rng.random() < args.set_fraction
        if distinct:
            kind = rng.randrange(3)
            if kind == 1:
                q2 = mutate_ucq(rng, union_all([copy_body(b) for b in _branches(q)]))
            elif kind == 2:
                q2 = union_all(_branches(q2) + [narrow(rng, rng.choice(_branches(q)))])
            q, q2 = Distinct(q), Distinct(q2)
        gen, _, b1, b2 = denote_pair(q, q2, env)
        d = Decider(env, gen, budget=Budget(Limits(timeout_s=30)))
        got = d.equivalent(to_spnf(b1, gen), to_spnf(b2, gen))
        if distinct and got != ucq_set_equivalent(q, q2, env):
            wrong_set += 1
            print(f"pair {i}: WRONG SET VERDICT {got}\n{q}\n{q2}")
        if not got:
            other += 1
            continue
        equivalent += 1
        p1 = compile_query(inline_views(desugar_groupby(q), env), env)
        p2 = compile_query(inline_views(desugar_groupby(q2), env), env)
        for db in pool:
            if interp_query(p1, db, env) != interp_query(p2, db, env):
                disagreements += 1
                print(f"pair {i}: DISAGREEMENT\n{db.dump()}")
                break
    dt = time.monotonic() - t0
    print(f"pairs={args.pairs} equivalent={equivalent} other={other} "
          f"disagreements={disagreements} wrong_set={wrong_set} time={dt:.1f}s")
    return 1 if disagreements or wrong_set else 0


if __name__ == "__main__":
    sys.exit(main())
