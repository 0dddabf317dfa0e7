"""Seeded workload generators.

Each generator returns one-verify `.cos` programs together with the answer
the pair must get.  The answer follows from how the pair was built: a chain
of equivalence-preserving edits, one of the procedure's own rewrite rules
(index scan, key collapse, foreign-key join, projection through derived
tables), or a deliberate semantic change.  It is never read off a semiq run.

`build(name, seed)` gives the fixed mix of one workload.  The seed changes
names, constants, orders and which columns join, never the families, their
sizes or their counts, so runs with different seeds do the same amount of
work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
NOT_PROVED = "NOT_PROVED"


@dataclass(frozen=True)
class Instance:
    family: str
    text: str
    expect: str              # the verdict known by construction
    refute: bool = False     # run with refute=True (the CLI's --refute)
    witness: bool = False    # a counterexample database must be found
    oracle_check: bool = False  # cross-check the verdict on oracle instances


# The bundled programs, with the verdicts their header comments state.
BUNDLED = {
    "arithmetic_filters.cos": NOT_PROVED,
    "count_subquery.cos": NOT_PROVED,
    "distinct_selfjoin.cos": EQUIVALENT,
    "exists_to_join.cos": EQUIVALENT,
    "filter_pushdown.cos": EQUIVALENT,
    "index_scan.cos": EQUIVALENT,
    "starburst_distinct_pullup.cos": EQUIVALENT,
    "union_pushdown.cos": EQUIVALENT,
}

RS_DECL = ("schema sr(a:int, b:int);\nschema ss(a:int, c:int);\n"
           "table R(sr);\ntable S(ss);\n")
COLS = {"R": ("a", "b"), "S": ("a", "c")}


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct identifiers with seeded numbers."""
    picks = rng.sample(range(100, 1000), n)
    return [f"{prefix}{p}" for p in picks]


def _verify(decl: str, lhs: str, rhs: str) -> str:
    return f"{decl}verify ({lhs})\n       ({rhs});\n"


# ---------------------------------------------------------------------------
# Conjunctive queries and equivalence-preserving edits

@dataclass
class Cq:
    """sources: table per position; conds: ((pos, col), (pos, col) | int);
    proj: (pos, col) per output column o1..ok."""
    sources: list[str]
    conds: list[tuple]
    proj: list[tuple[int, str]]


class _Classes:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def random_cq(rng: random.Random, sources: str, extra: int, consts: int,
              width: int) -> Cq:
    """A CQ over the given sources (a string over R and S) with `extra`
    equalities beyond the ones that connect the sources and `consts`
    constant filters.  The conditions are irredundant: each equality joins
    two classes that were apart, and each class gets at most one constant,
    so dropping any condition changes the query."""
    cols = [(i, c) for i, t in enumerate(sources) for c in COLS[t]]
    classes = _Classes()
    conds: list[tuple] = []
    for i in range(1, len(sources)):  # connect every source to an earlier one
        lhs = (i, rng.choice(COLS[sources[i]]))
        j = rng.randrange(i)
        rhs = (j, rng.choice(COLS[sources[j]]))
        classes.union(lhs, rhs)
        conds.append((lhs, rhs))
    while extra:
        lhs, rhs = rng.sample(cols, 2)
        if classes.union(lhs, rhs):
            conds.append((lhs, rhs))
            extra -= 1
    pinned = set()
    while consts:
        col = rng.choice(cols)
        if classes.find(col) not in pinned:
            pinned.add(classes.find(col))
            conds.append((col, rng.randint(0, 3)))
            consts -= 1
    proj = [rng.choice(cols) for _ in range(width)]
    return Cq(list(sources), conds, proj)


def _equal_columns(cq: Cq) -> _Classes:
    classes = _Classes()
    for lhs, rhs in cq.conds:
        if isinstance(rhs, tuple):
            classes.union(lhs, rhs)
    return classes


def render_cq(rng: random.Random, cq: Cq, distinct: bool = False,
              shuffle: bool = True) -> str:
    """Render with fresh aliases; with shuffle, also permute sources and
    conditions, flip equalities and project equal columns in place of
    each other.  Every such choice preserves bag semantics."""
    n = len(cq.sources)
    alias = _names(rng, "v", n)
    order = list(range(n))
    conds = list(cq.conds)
    proj = list(cq.proj)
    if shuffle:
        rng.shuffle(order)
        rng.shuffle(conds)
        classes = _equal_columns(cq)
        cols = [(i, c) for i, t in enumerate(cq.sources) for c in COLS[t]]
        proj = [rng.choice([c for c in cols if classes.find(c) == classes.find(p)])
                for p in proj]

    def col(c):
        return f"{alias[c[0]]}.{c[1]}"

    parts = []
    for lhs, rhs in conds:
        r = col(rhs) if isinstance(rhs, tuple) else str(rhs)
        pair = [col(lhs), r]
        if shuffle and rng.random() < 0.5:
            pair.reverse()
        parts.append(f"{pair[0]} = {pair[1]}")
    items = ", ".join(f"{col(p)} AS o{k}" for k, p in enumerate(proj))
    srcs = ", ".join(f"{cq.sources[i]} {alias[i]}" for i in order)
    where = f" WHERE {' AND '.join(parts)}" if parts else ""
    head = "SELECT DISTINCT" if distinct else "SELECT"
    return f"{head} {items} FROM {srcs}{where}"


def _with_redundant_copy(rng: random.Random, cq: Cq) -> Cq:
    """Add a copy of one source bound column-by-column to the original;
    a homomorphism folds it back, so set semantics is unchanged."""
    i = rng.randrange(len(cq.sources))
    j = len(cq.sources)
    conds = list(cq.conds) + [((j, c), (i, c)) for c in COLS[cq.sources[i]]]
    return Cq(cq.sources + [cq.sources[i]], conds, list(cq.proj))


def _union(branches: list[str]) -> str:
    return " UNION ALL ".join(f"({b})" for b in branches)


# Shapes of the random UCQs: (sources of each branch, extra equalities,
# constant filters, output width).  Fixed, so that every seed draws the
# same amount of work.
UCQ_SHAPES = (
    (("R",), 0, 1, 1), (("S",), 0, 1, 2), (("RS",), 0, 1, 1), (("RS",), 1, 0, 2),
    (("RR",), 0, 1, 1), (("RSR",), 0, 1, 1), (("SR",), 1, 1, 1), (("RRS",), 1, 0, 1),
    (("R", "R"), 0, 1, 1), (("RS", "S"), 0, 1, 1), (("R", "SR"), 0, 1, 2),
    (("R", "R", "R"), 0, 1, 1),
)
NEAR_MISS_SHAPES = (
    (("RS",), 0, 1, 1), (("RR",), 1, 0, 1), (("R", "RS"), 0, 1, 1),
    (("SR",), 0, 1, 2), (("RSR",), 0, 0, 1),
)


def _cqs(rng: random.Random, shape) -> list[Cq]:
    branches, extra, consts, width = shape
    return [random_cq(rng, src, extra, consts, width) for src in branches]


def ucq_pair(rng: random.Random, shape, distinct: bool) -> Instance:
    """A union of CQs against a rewritten copy: branches permuted and
    each branch re-rendered; under DISTINCT one branch also gains a
    redundant self-join copy.  Both sides stay in the UCQ fragment."""
    cqs = _cqs(rng, shape)
    lhs = [render_cq(rng, q, shuffle=False) for q in cqs]
    rhs_cqs = list(cqs)
    if distinct:
        k = rng.randrange(len(rhs_cqs))
        rhs_cqs[k] = _with_redundant_copy(rng, rhs_cqs[k])
    rhs = [render_cq(rng, q) for q in rhs_cqs]
    rng.shuffle(rhs)
    if distinct:
        return Instance("ucq-set", _verify(RS_DECL, f"DISTINCT ({_union(lhs)})",
                                           f"DISTINCT ({_union(rhs)})"),
                        EQUIVALENT, oracle_check=True)
    return Instance("ucq-bag", _verify(RS_DECL, _union(lhs), _union(rhs)),
                    EQUIVALENT, oracle_check=True)


def ucq_near_miss(rng: random.Random, shape) -> Instance:
    """A bag UCQ against a rewritten copy with one condition dropped from
    its first branch.  Bag union cancels the untouched branches, and the
    conditions are irredundant, so the pair is truly different."""
    cqs = _cqs(rng, shape)
    weak = cqs[0]
    conds = list(weak.conds)
    del conds[rng.randrange(len(conds))]
    rhs_cqs = [Cq(weak.sources, conds, weak.proj)] + cqs[1:]
    lhs = [render_cq(rng, q, shuffle=False) for q in cqs]
    rhs = [render_cq(rng, q) for q in rhs_cqs]
    rng.shuffle(rhs)
    return Instance("ucq-near-miss", _verify(RS_DECL, _union(lhs), _union(rhs)),
                    NOT_EQUIVALENT, refute=True, witness=True)


# ---------------------------------------------------------------------------
# Constraint rewrites

COMPARISONS = ("=", ">=", "<", "<>")


def index_join_back(rng: random.Random, k: int) -> Instance:
    """Filter scan of a keyed table against k index probes joined back on
    the key (the index-scan rewrite, once per index)."""
    attrs = _names(rng, "c", k)
    decl = (f"schema sr(id:int, {', '.join(f'{a}:int' for a in attrs)});\n"
            "table R(sr);\nkey R(id);\n"
            + "".join(f"index I{i} on R(id, {a});\n" for i, a in enumerate(attrs)))
    filters = [(a, COMPARISONS[i % 4], rng.randint(0, 20)) for i, a in enumerate(attrs)]
    t, base = _names(rng, "t", 2)
    probes = _names(rng, "p", k)
    lhs = f"SELECT * FROM R {t} WHERE " + " AND ".join(
        f"{t}.{a} {op} {c}" for a, op, c in filters)
    srcs = [f"I{i} {p}" for i, p in enumerate(probes)] + [f"R {base}"]
    rng.shuffle(srcs)
    conds = [f"{p}.id = {base}.id" for p in probes] + [
        f"{p}.{a} {op} {c}" for p, (a, op, c) in zip(probes, filters)]
    rng.shuffle(conds)
    rhs = f"SELECT {base}.* FROM {', '.join(srcs)} WHERE {' AND '.join(conds)}"
    return Instance(f"index-join-back-{k}", _verify(decl, lhs, rhs), EQUIVALENT,
                    oracle_check=True)


def fk_chain(rng: random.Random, length: int, distinct: bool) -> Instance:
    """A scan of T0 against its join with the foreign-key chain
    T0 -> T1 -> ... -> T<length>, each target keyed: every source row has
    exactly one partner, so the join neither drops nor copies rows."""
    tabs = [f"T{i}" for i in range(length + 1)]
    decl = "schema s(k:int, f:int, v:int);\n" + "".join(
        f"table {t}(s);\n" for t in tabs)
    decl += "".join(f"key {t}(k);\n" for t in tabs[1:])
    decl += "".join(f"foreign key {tabs[i]}(f) references {tabs[i + 1]}(k);\n"
                    for i in range(length))
    al = _names(rng, "x", length + 1)
    col = rng.choice(("v", "k"))
    head = "SELECT DISTINCT" if distinct else "SELECT"
    lhs = f"{head} {al[0]}.{col} AS o FROM T0 {al[0]}"
    srcs = [f"{t} {a}" for t, a in zip(tabs, al)]
    rng.shuffle(srcs)
    conds = [f"{al[i]}.f = {al[i + 1]}.k" for i in range(length)]
    rng.shuffle(conds)
    rhs = f"{head} {al[0]}.{col} AS o FROM {', '.join(srcs)} WHERE {' AND '.join(conds)}"
    fam = f"fk-chain-{length}{'-distinct' if distinct else ''}"
    return Instance(fam, _verify(decl, lhs, rhs), EQUIVALENT, oracle_check=True)


def key_collapse(rng: random.Random) -> Instance:
    """A self-join on the full key of a keyed table is the table itself."""
    decl = "schema s(k1:int, k2:int, v:int);\ntable K(s);\nkey K(k1, k2);\n"
    x, y, z = _names(rng, "x", 3)
    col = rng.choice(("v", "k1"))
    conds = [f"{x}.k1 = {y}.k1", f"{y}.k2 = {x}.k2"]
    rng.shuffle(conds)
    lhs = f"SELECT {x}.{col} AS o FROM K {x}, K {y} WHERE {' AND '.join(conds)}"
    rhs = f"SELECT {z}.{col} AS o FROM K {z}"
    return Instance("key-collapse", _verify(decl, lhs, rhs), EQUIVALENT,
                    oracle_check=True)


def distinct_self_join(rng: random.Random, n: int) -> Instance:
    """DISTINCT projection of an n-way cross self-join is the DISTINCT
    projection of one scan."""
    al = _names(rng, "x", n)
    col = rng.choice(("a", "b"))
    lhs = f"SELECT DISTINCT {al[0]}.{col} AS o FROM " + ", ".join(f"R {a}" for a in al)
    w = _names(rng, "w", 1)[0]
    rhs = f"SELECT DISTINCT {w}.{col} AS o FROM R {w}"
    return Instance(f"distinct-self-join-{n}", _verify(RS_DECL, lhs, rhs), EQUIVALENT,
                    oracle_check=True)


# ---------------------------------------------------------------------------
# Deep canonization

def nested_projection(rng: random.Random, depth: int, change: bool = False) -> Instance:
    """A filtered scan against the same scan threaded through `depth`
    derived tables, each projecting every column explicitly under a new
    name and order; the filter sits halfway down.  With change, the
    deep side filters on another constant: a truly different pair that
    the procedure cannot call NOT_EQUIVALENT (derived tables are outside
    the UCQ fragment)."""
    base = ("a", "b", "c")
    decl = "schema s3(a:int, b:int, c:int);\ntable R(s3);\n"
    fcol, const = rng.choice(base), rng.randint(0, 3)
    x = _names(rng, "x", 1)[0]
    lhs = (f"SELECT {', '.join(f'{x}.{c} AS {c}' for c in base)} FROM R {x} "
           f"WHERE {x}.{fcol} = {const}")
    other = (const + 1) % 4 if change else const
    filter_level = depth // 2
    names = {c: c for c in base}   # base column -> name at the current level
    aliases = _names(rng, "t", depth)
    q = f"SELECT {', '.join(f'{x}.{c} AS {c}' for c in base)} FROM R {x}"
    for level, t in enumerate(aliases):
        fresh = dict(zip(base, _names(rng, "n", 3)))
        order = list(base)
        rng.shuffle(order)
        items = ", ".join(f"{t}.{names[c]} AS {fresh[c]}" for c in order)
        where = f" WHERE {t}.{names[fcol]} = {other}" if level == filter_level else ""
        q = f"SELECT {items} FROM ({q}) {t}{where}"
        names = fresh
    top = _names(rng, "u", 1)[0]
    rhs = f"SELECT {', '.join(f'{top}.{names[c]} AS {c}' for c in base)} FROM ({q}) {top}"
    if change:
        return Instance(f"nested-changed-{depth}", _verify(decl, lhs, rhs),
                        NOT_PROVED, refute=True, witness=True)
    return Instance(f"nested-{depth}", _verify(decl, lhs, rhs), EQUIVALENT)


# ---------------------------------------------------------------------------
# Wide search

def wide_union(rng: random.Random, n: int) -> Instance:
    """n branches over one relation, all with the same term signature, in
    seeded order, against the same branches reversed under fresh aliases.
    Reversal makes the permutation search fail on every unused branch
    before the matching one: n(n-1)/2 failed `match_terms` calls whatever
    the seed, where a random order would make the count depend on it."""
    shapes = ("x.a = {}", "x.b = {}", "x.a = x.b AND x.b = {}")
    consts = rng.sample(range(100), n)
    preds = [shapes[i % 3].format(c) for i, c in enumerate(consts)]
    rng.shuffle(preds)

    def branch(p: str) -> str:
        a = _names(rng, "r", 1)[0]
        return f"SELECT * FROM R {a} WHERE {p.replace('x.', a + '.')}"

    lhs = [branch(p) for p in preds]
    rhs = [branch(p) for p in reversed(preds)]
    return Instance(f"union-{n}", _verify(RS_DECL, _union(lhs), _union(rhs)),
                    EQUIVALENT)


def symmetric_self_join(rng: random.Random, n: int) -> Instance:
    """n interchangeable scans of R projecting one column through `+ 1`
    on one side and `+ 2` on the other.  Arithmetic is uninterpreted, so
    no bijection of the scans matches and the search tries them all; the
    queries differ, so refutation finds a database."""
    col = rng.choice(("a", "b"))

    def side(c: int) -> str:
        al = _names(rng, "s", n)
        return f"SELECT {al[0]}.{col} + {c} AS o FROM " + ", ".join(
            f"R {a}" for a in al)

    return Instance(f"symmetric-self-join-{n}", _verify(RS_DECL, side(1), side(2)),
                    NOT_PROVED, refute=True, witness=True)


def join_chain(rng: random.Random, n: int) -> Instance:
    """An n-step path join over R against the same path written in
    seeded alias, source and condition order."""
    def side() -> str:
        al = _names(rng, "j", n)
        srcs = [f"R {a}" for a in al]
        rng.shuffle(srcs)
        conds = [f"{al[i]}.b = {al[i + 1]}.a" if rng.random() < 0.5 else
                 f"{al[i + 1]}.a = {al[i]}.b" for i in range(n - 1)]
        rng.shuffle(conds)
        return f"SELECT {al[0]}.a AS o FROM {', '.join(srcs)} WHERE {' AND '.join(conds)}"

    return Instance(f"join-chain-{n}", _verify(RS_DECL, side(), side()), EQUIVALENT)


# ---------------------------------------------------------------------------
# Refutation

DIFFERENT = ("constant", "bag-vs-set", "flipped-comparison", "inflation",
             "dropped-join")
UNPROVABLE = ("mirrored", "double-negation", "de-morgan", "negated-gt",
              "mirrored-join")


def refute_different(rng: random.Random, kind: str) -> Instance:
    """A truly different pair whose difference a small random database
    shows, so a witness appears within the first few tries."""
    x, y = _names(rng, "d", 2)
    c = rng.randint(0, 3)
    if kind == "constant":
        lhs = f"SELECT * FROM R {x} WHERE {x}.a = {c}"
        rhs = f"SELECT * FROM R {y} WHERE {y}.a = {c + 1}"
        return Instance("different-constant", _verify(RS_DECL, lhs, rhs),
                        NOT_EQUIVALENT, refute=True, witness=True)
    if kind == "bag-vs-set":
        lhs = f"SELECT {x}.a AS o FROM R {x}"
        rhs = f"SELECT DISTINCT {y}.a AS o FROM R {y}"
        return Instance("different-bag-vs-set", _verify(RS_DECL, lhs, rhs),
                        NOT_PROVED, refute=True, witness=True)
    if kind == "flipped-comparison":
        lhs = f"SELECT * FROM R {x} WHERE {x}.a < {x}.b"
        rhs = f"SELECT * FROM R {y} WHERE {y}.a > {y}.b"
        return Instance("different-flipped", _verify(RS_DECL, lhs, rhs),
                        NOT_PROVED, refute=True, witness=True)
    if kind == "inflation":
        z = _names(rng, "d", 1)[0]
        lhs = f"SELECT {x}.a AS o FROM R {x}"
        rhs = f"SELECT {y}.a AS o FROM R {y}, R {z} WHERE {y}.a = {z}.a"
        return Instance("different-inflation", _verify(RS_DECL, lhs, rhs),
                        NOT_EQUIVALENT, refute=True, witness=True)
    z, w = _names(rng, "e", 2)
    lhs = f"SELECT {x}.b AS o FROM R {x}, S {z} WHERE {x}.a = {z}.a"
    rhs = f"SELECT {y}.b AS o FROM R {y}, S {w}"
    return Instance("different-dropped-join", _verify(RS_DECL, lhs, rhs),
                    NOT_EQUIVALENT, refute=True, witness=True)


def refute_true(rng: random.Random, kind: str) -> Instance:
    """A truly equivalent pair the procedure cannot prove (comparisons are
    uninterpreted, and there is no double-negation or De Morgan rule), so
    refutation sweeps every try and must find nothing."""
    x, y = _names(rng, "q", 2)
    c1, c2 = rng.randint(0, 3), rng.randint(0, 3)
    if kind == "mirrored":
        lhs = f"SELECT * FROM R {x} WHERE {x}.a < {x}.b"
        rhs = f"SELECT * FROM R {y} WHERE {y}.b > {y}.a"
    elif kind == "double-negation":
        lhs = f"SELECT * FROM R {x} WHERE NOT (NOT ({x}.a = {c1}))"
        rhs = f"SELECT * FROM R {y} WHERE {y}.a = {c1}"
    elif kind == "de-morgan":
        lhs = f"SELECT * FROM R {x} WHERE NOT ({x}.a = {c1} AND {x}.b = {c2})"
        rhs = f"SELECT * FROM R {y} WHERE NOT ({y}.a = {c1}) OR NOT ({y}.b = {c2})"
    elif kind == "negated-gt":
        lhs = f"SELECT * FROM R {x} WHERE {x}.a <= {x}.b"
        rhs = f"SELECT * FROM R {y} WHERE NOT ({y}.a > {y}.b)"
    else:
        z, w = _names(rng, "p", 2)
        lhs = (f"SELECT {x}.a AS o, {z}.c AS p FROM R {x}, S {z} "
               f"WHERE {x}.a = {z}.a AND {x}.b < {z}.c")
        rhs = (f"SELECT {y}.a AS o, {w}.c AS p FROM S {w}, R {y} "
               f"WHERE {w}.c > {y}.b AND {w}.a = {y}.a")
    return Instance(f"unprovable-{kind}", _verify(RS_DECL, lhs, rhs), NOT_PROVED,
                    refute=True, witness=False)


# ---------------------------------------------------------------------------
# Workload mixes

def _rewrites(rng: random.Random, root: Path) -> list[Instance]:
    out = [Instance(f"bundled-{name[:-4]}", (root / "benchmarks" / name).read_text(),
                    expect, oracle_check=expect == EQUIVALENT)
           for name, expect in sorted(BUNDLED.items())]
    out += [ucq_pair(rng, shape, distinct=False) for shape in UCQ_SHAPES]
    out += [ucq_pair(rng, shape, distinct=True) for shape in UCQ_SHAPES]
    out += [ucq_near_miss(rng, shape) for shape in NEAR_MISS_SHAPES]
    out += [index_join_back(rng, k) for k in (1, 1, 1, 2)]
    out += [fk_chain(rng, 1, distinct=False) for _ in range(3)]
    out += [key_collapse(rng) for _ in range(3)]
    out += [distinct_self_join(rng, n) for n in (2, 3)]
    return out


def _deep_canon(rng: random.Random, root: Path) -> list[Instance]:
    out = [nested_projection(rng, d) for d in (6, 8, 10, 12, 14, 16)]
    out += [nested_projection(rng, 8, change=True)]
    out += [index_join_back(rng, k) for k in (3, 4, 5, 6)]
    out += [fk_chain(rng, 2, distinct=False), fk_chain(rng, 3, distinct=False),
            fk_chain(rng, 1, distinct=True)]
    out += [join_chain(rng, 8)]
    return out


def _wide_search(rng: random.Random, root: Path) -> list[Instance]:
    out = [wide_union(rng, n) for n in (12, 16, 20, 24, 28, 32)]
    out += [symmetric_self_join(rng, n) for n in (3, 4, 4, 5, 5)]
    out += [distinct_self_join(rng, n) for n in (4, 5, 6, 8)]
    return out


def _refute(rng: random.Random, root: Path) -> list[Instance]:
    out = [refute_different(rng, kind) for kind in DIFFERENT for _ in range(12)]
    out += [refute_true(rng, kind) for kind in UNPROVABLE for _ in range(6)]
    return out


WORKLOADS = {
    "rewrites": _rewrites,
    "deep-canon": _deep_canon,
    "wide-search": _wide_search,
    "refute": _refute,
}


def build(name: str, seed: int, root: Path) -> list[Instance]:
    """The instances of one workload, in a seeded order."""
    rng = random.Random(f"{name}/{seed}")
    instances = WORKLOADS[name](rng, root)
    rng.shuffle(instances)
    return instances
