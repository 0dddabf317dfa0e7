#!/usr/bin/env python3
"""Time to verdict on the scaling rows of ROADMAP.md.

    python scripts/scaling.py [--timeout 60] [--seed 1] [--json PATH] [FAMILY=SIZE ...]

With no FAMILY=SIZE arguments every row of the ROADMAP scaling table runs:
`join_chain` 16 and 24, `symmetric_self_join` 6, 7 and 8,
`nested_projection` 16, 40, 60, 100, 200 and 400, `index_join_back` 12,
24 and 48, `wide_union` 64, `shared_union` 128, 256 and 1200, `union_all`
600 and 1200, `union_all_miss` 9 and 200,
`union_derived` 1200, `union_exists` 1200, `union_agg` 1200,
`wide_from` 400, 600, 800, 1000 and 2000, `derived_from` 100, 200 and
400, `fk_cycle` 3, `wide_and` and
`wide_or` 1200, `keyed_collapse` 100, 200 and 400, `distinct_fk` 4,
8, 16 and 32, `refute_sweep` 2, 3 and 4, `refute_unread` 0, 16 and 64, and
`self_join_offset` 8 and 12.  Each row is
one `run_program_text` call under `Limits(timeout_s=--timeout)`, and
prints one tab-separated line:

    family  size  ms  verdict  steps.total

A row that raises prints `family  size  -  ERROR:<ExceptionType>  -`; the
other rows still run, and the exit code is 1.

`--json PATH` also writes the run to PATH as one JSON object, `seed`,
`timeout_s`, `setup_ms` and `rows`, where each row is `{family, size, ms,
verdict, steps}` and `steps` holds `total` and its split by stage
(`normalize`, `canonize`, `search`); a row that raised has `ms` and `steps`
null.  `setup_ms` is the median wall time of `import semiq` in 5 fresh
interpreters that compile it from source, with no bytecode cache read or
written.  The committed `BENCH_<n>.json` files hold such runs, one per
commit measured.

All families but `shared_union`, `union_all`, `union_all_miss`, `union_derived`,
`union_exists`, `union_agg`, `wide_from`, `derived_from`, `fk_cycle`,
`wide_and`, `wide_or`, `keyed_collapse`, `distinct_fk`, `refute_sweep`,
`refute_unread` and `self_join_offset` are the
generators of `perfbench/workloads.py` (only read), called with
`random.Random(--seed)`.
`shared_union` is a SIZE-branch `UNION ALL` of filtered scans `SELECT *
FROM R x<i>` with branch i filtered by `x<i>.a = i`, `x<i>.b = i` or
`x<i>.a = x<i>.b AND x<i>.b = i` in turn, against the same branches
reversed under other aliases: the branches of `wide_union` without its
`range(100)` limit on SIZE.  Every branch is summation-free and shared,
so all of them cancel before canonization.
`union_all` is a SIZE-branch `UNION ALL` with one constant filter per
branch, against the same branches reversed under other aliases.  `union_all_miss` is SIZE copies of
`SELECT x.a AS o FROM R x` against SIZE - 1 copies and a last branch that
adds `WHERE y.a = y.b`: all branches tie on signature and constants, the
last right branch matches no left one, and the pair is `NOT_EQUIVALENT`.
`union_derived` projects a SIZE-branch `UNION ALL R ...` through a derived
table, `SELECT u.a AS o FROM (R UNION ALL ...) u`, against itself.
`union_exists` filters `S y` by `EXISTS` over a SIZE-branch `UNION ALL` of
`SELECT x.a AS a FROM R x`, against itself, and `union_agg` by
`y.b = cnt(...)` over the same union.
`wide_from` is `SELECT s0.a AS o FROM R s0, ..., R s<SIZE-1>`, with no
WHERE, against itself.
`derived_from` is `SELECT s0.a AS o` over SIZE derived tables
`(SELECT x<i>.a AS a FROM R x<i>) s<i>` in one FROM list, against itself:
`wide_from` with a summation per scan for the normalizer to hoist.
`fk_cycle` is one fixed DISTINCT pair over two keyed tables whose foreign
keys form a cycle, and its SIZE is the chase depth (`Limits.chase_depth`).
`wide_and` is `SELECT x.a AS o FROM R x, R y WHERE ...` with SIZE ANDed
conjuncts, alternately `y.a = i` (at position i) and `x.a = y.b`, against
itself; `wide_or` is the same with OR.
`keyed_collapse` is SIZE scans `R s0, ..., R s<SIZE-1>` under `key R(a)`,
joined by `s<i>.a = s<i+1>.a` and projecting `s0.b`, against itself: the
key collapse puts every scan in one tuple class.
`distinct_fk` is `SELECT DISTINCT b0.u` over SIZE scans of `B` and one of
`A`, under `foreign key B(w) references A(x)`, against the same with the
FROM order reversed: every `B` scan needs one level of the chase.
`refute_sweep` is `SELECT s0.a AS o, s1.b AS p` over SIZE >= 2 scans of
`R` with `WHERE s0.a < s1.b`, against the same with `s1.b > s0.a`: a true
pair that does not prove, run with `refute=True` (the family sets it), so
the oracle sweeps all 200 databases and finds no witness; a database with
k rows in `R` gives each side k^SIZE rows to filter.
`refute_unread` is `refute_sweep`'s pair at 2 scans, run the same way, in a
program that also declares SIZE tables `U<i>` over `R`'s schema that the
pair does not read: the sweep draws only `R`, so its time should not grow
with SIZE.
`self_join_offset` is `SELECT s0.a + 1 AS o` over SIZE scans of `R`, with
no WHERE, against the same scans projecting `s<SIZE-1>.a + 2`: `+` is
uninterpreted, so no bijection of the scans matches and the pair is
`NOT_PROVED`; the one predicate that fails mentions one scan per side.
Times are wall times of one run, with no calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from semiq import run_program_text  # noqa: E402
from semiq.config import Limits  # noqa: E402

import workloads  # noqa: E402

ROWS = (("join_chain", 16), ("join_chain", 24), ("symmetric_self_join", 6),
        ("symmetric_self_join", 7), ("symmetric_self_join", 8),
        ("nested_projection", 16), ("nested_projection", 40),
        ("nested_projection", 60), ("nested_projection", 100),
        ("nested_projection", 200), ("nested_projection", 400),
        ("index_join_back", 12), ("index_join_back", 24),
        ("index_join_back", 48), ("wide_union", 64), ("shared_union", 128),
        ("shared_union", 256), ("shared_union", 1200), ("union_all", 600),
        ("union_all", 1200), ("union_all_miss", 9), ("union_all_miss", 200),
        ("union_derived", 1200), ("union_exists", 1200), ("union_agg", 1200),
        ("wide_from", 400), ("wide_from", 600), ("wide_from", 800),
        ("wide_from", 1000), ("wide_from", 2000), ("derived_from", 100),
        ("derived_from", 200), ("derived_from", 400), ("fk_cycle", 3),
        ("wide_and", 1200), ("wide_or", 1200), ("keyed_collapse", 100),
        ("keyed_collapse", 200), ("keyed_collapse", 400), ("distinct_fk", 4),
        ("distinct_fk", 8), ("distinct_fk", 16), ("distinct_fk", 32),
        ("refute_sweep", 2), ("refute_sweep", 3),
        ("refute_sweep", 4), ("refute_unread", 0), ("refute_unread", 16),
        ("refute_unread", 64), ("self_join_offset", 8), ("self_join_offset", 12))
FAMILIES = ("join_chain", "symmetric_self_join", "nested_projection",
            "index_join_back", "wide_union", "shared_union", "union_all",
            "union_all_miss",
            "union_derived", "union_exists", "union_agg", "wide_from",
            "derived_from", "fk_cycle", "wide_and", "wide_or", "keyed_collapse",
            "distinct_fk", "refute_sweep", "refute_unread", "self_join_offset")
# the query over S y of each family that puts a SIZE-branch union at {u}
UNION_SUBQUERY = {"union_exists": "SELECT y.a AS a FROM S y WHERE EXISTS ({u})",
                  "union_agg": "SELECT y.a AS a FROM S y WHERE y.b = cnt({u})"}

# A(y) -> B(u) -> A(x) -> ...: each side's chase runs to the ceiling
FK_CYCLE = """schema sa(x:int, y:int);
schema sb(u:int, w:int);
table A(sa);
table B(sb);
key A(x);
key B(u);
foreign key A(y) references B(u);
foreign key B(w) references A(x);
verify (SELECT DISTINCT a.x AS o FROM A a)
       (SELECT DISTINCT a.x AS o FROM A a, B b WHERE a.y = b.u);
"""


def shared_union(n: int) -> str:
    shapes = ("{x}.a = {i}", "{x}.b = {i}", "{x}.a = {x}.b AND {x}.b = {i}")

    def side(alias: str, order) -> str:
        return " UNION ALL ".join(
            f"(SELECT * FROM R {alias}{i} WHERE "
            f"{shapes[i % 3].format(x=f'{alias}{i}', i=i)})" for i in order)

    return (f"schema s(a:int, b:int);\ntable R(s);\n"
            f"verify ({side('x', range(n))})\n"
            f"       ({side('y', reversed(range(n)))});\n")


def union_all(n: int) -> str:
    def side(alias: str, order) -> str:
        return " UNION ALL ".join(
            f"(SELECT {alias}{i}.a AS o FROM R {alias}{i} WHERE {alias}{i}.a = {i})"
            for i in order)

    return (f"schema s(a:int, b:int);\ntable R(s);\n"
            f"verify ({side('x', range(n))})\n"
            f"       ({side('y', reversed(range(n)))});\n")


def union_all_miss(n: int) -> str:
    def side(alias: str, last: str) -> str:
        return " UNION ALL ".join(
            f"(SELECT {alias}{i}.a AS o FROM R {alias}{i}"
            f"{last if i == n - 1 else ''})" for i in range(n))

    return (f"schema s(a:int, b:int);\ntable R(s);\n"
            f"verify ({side('x', '')})\n"
            f"       ({side('y', f' WHERE y{n - 1}.a = y{n - 1}.b')});\n")


def union_derived(n: int) -> str:
    q = f"SELECT u.a AS o FROM ({' UNION ALL '.join(['R'] * n)}) u"
    return f"schema s(a:int, b:int);\ntable R(s);\nverify ({q})\n       ({q});\n"


def union_subquery(outer: str, n: int) -> str:
    u = " UNION ALL ".join(["(SELECT x.a AS a FROM R x)"] * n)
    q = outer.format(u=u)
    return (f"schema s(a:int, b:int);\ntable R(s);\ntable S(s);\n"
            f"verify ({q})\n       ({q});\n")


def wide_from(n: int) -> str:
    q = f"SELECT s0.a AS o FROM {', '.join(f'R s{i}' for i in range(n))}"
    return f"schema s(a:int, b:int);\ntable R(s);\nverify ({q})\n       ({q});\n"


def derived_from(n: int) -> str:
    q = (f"SELECT s0.a AS o FROM "
         + ", ".join(f"(SELECT x{i}.a AS a FROM R x{i}) s{i}" for i in range(n)))
    return f"schema s(a:int, b:int);\ntable R(s);\nverify ({q})\n       ({q});\n"


def wide_pred(op: str, n: int) -> str:
    pred = f" {op} ".join("x.a = y.b" if i % 2 else f"y.a = {i}" for i in range(n))
    q = f"SELECT x.a AS o FROM R x, R y WHERE {pred}"
    return f"schema s(a:int, b:int);\ntable R(s);\nverify ({q})\n       ({q});\n"


def keyed_collapse(n: int) -> str:
    joins = " AND ".join(f"s{i}.a = s{i + 1}.a" for i in range(n - 1))
    q = (f"SELECT s0.b AS o FROM {', '.join(f'R s{i}' for i in range(n))}"
         + (f" WHERE {joins}" if joins else ""))
    return (f"schema s(a:int, b:int);\ntable R(s);\nkey R(a);\n"
            f"verify ({q})\n       ({q});\n")


def distinct_fk(n: int) -> str:
    scans = [f"B b{i}" for i in range(n)] + ["A a"]
    return ("schema sa(x:int, y:int);\nschema sb(u:int, w:int);\n"
            "table A(sa);\ntable B(sb);\nkey A(x);\n"
            "foreign key B(w) references A(x);\n"
            f"verify (SELECT DISTINCT b0.u AS o FROM {', '.join(scans)})\n"
            f"       (SELECT DISTINCT b0.u AS o FROM {', '.join(scans[::-1])});\n")


def refute_sweep(n: int, unread: int = 0) -> str:
    scans = ", ".join(f"R s{i}" for i in range(n))
    q = f"SELECT s0.a AS o, s1.b AS p FROM {scans} WHERE "
    tables = "".join(f"table U{i}(s);\n" for i in range(unread))
    return (f"schema s(a:int, b:int);\ntable R(s);\n{tables}"
            f"verify ({q}s0.a < s1.b)\n       ({q}s1.b > s0.a);\n")


def self_join_offset(n: int) -> str:
    scans = ", ".join(f"R s{i}" for i in range(n))
    return (f"schema s(a:int, b:int);\ntable R(s);\n"
            f"verify (SELECT s0.a + 1 AS o FROM {scans})\n"
            f"       (SELECT s{n - 1}.a + 2 AS o FROM {scans});\n")


def program(family: str, size: int, seed: int) -> str:
    if family == "shared_union":
        return shared_union(size)
    if family == "union_all":
        return union_all(size)
    if family == "union_all_miss":
        return union_all_miss(size)
    if family == "union_derived":
        return union_derived(size)
    if family in UNION_SUBQUERY:
        return union_subquery(UNION_SUBQUERY[family], size)
    if family == "wide_from":
        return wide_from(size)
    if family == "derived_from":
        return derived_from(size)
    if family == "fk_cycle":
        return FK_CYCLE
    if family in ("wide_and", "wide_or"):
        return wide_pred(family[5:].upper(), size)
    if family == "keyed_collapse":
        return keyed_collapse(size)
    if family == "distinct_fk":
        return distinct_fk(size)
    if family == "refute_sweep":
        return refute_sweep(size)
    if family == "refute_unread":
        return refute_sweep(2, unread=size)
    if family == "self_join_offset":
        return self_join_offset(size)
    return getattr(workloads, family)(random.Random(seed), size).text


def measure(family: str, size: int, timeout_s: float, seed: int) -> tuple:
    """(ms, verdict, steps by stage) of one run of the row's program."""
    text = program(family, size, seed)
    depth = {"chase_depth": size} if family == "fk_cycle" else {}
    t0 = time.perf_counter()
    [out] = run_program_text(text, limits=Limits(timeout_s=timeout_s, **depth),
                             refute=family in ("refute_sweep", "refute_unread"))
    ms = (time.perf_counter() - t0) * 1000
    return ms, out.status, out.steps


def setup_ms() -> float:
    """Median milliseconds of `import semiq` in fresh interpreters; the empty
    bytecode cache prefix makes each compile the package from source."""
    code = "import time; t = time.perf_counter(); import semiq; print(time.perf_counter() - t)"
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        secs = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True, timeout=60).stdout)
                for _ in range(5)]
    return round(statistics.median(secs) * 1000, 1)


def _row(arg: str) -> tuple[str, int]:
    family, _, size = arg.partition("=")
    if family not in FAMILIES or not size.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected FAMILY=SIZE with FAMILY one of {', '.join(FAMILIES)}")
    return family, int(size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rows", nargs="*", type=_row, metavar="FAMILY=SIZE",
                    help="rows to run (default: the ROADMAP rows)")
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="wall-clock budget per row, seconds (default 60)")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the workload generators (default 1)")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the rows to PATH as JSON")
    args = ap.parse_args(argv)
    rows = []
    for family, size in args.rows or ROWS:
        try:
            ms, verdict, steps = measure(family, size, args.timeout, args.seed)
        except Exception as exc:
            ms, verdict, steps = None, f"ERROR:{type(exc).__name__}", None
            print(f"{family}\t{size}\t-\t{verdict}\t-", flush=True)
        else:
            print(f"{family}\t{size}\t{ms:.1f}\t{verdict}\t{steps.get('total')}",
                  flush=True)
        rows.append({"family": family, "size": size,
                     "ms": None if ms is None else round(ms, 1),
                     "verdict": verdict, "steps": steps})
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "timeout_s": args.timeout, "setup_ms": setup_ms(),
             "rows": rows}, indent=1) + "\n")
    return 1 if any(r["ms"] is None for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
