"""End-to-end verification pipeline.

parse -> build_env, then each verify statement in two steps: prepare
(desugar -> inline -> denote, which checks the pair -> classify) and
decide (normalize -> canonize -> search -> refute).  A program's verifies
are all prepared before any is decided.  The fragment is read off the
shape of the two denotations, and it controls whether a failed search is
a definitive non-equivalence.
"""

from __future__ import annotations

import itertools
import time

from .config import Budget, BudgetError, Limits
from .decide import (Decider, EQUIVALENT, GENERAL, NOT_EQUIVALENT, NOT_PROVED,
                     RESOURCE_EXHAUSTED, UCQ_BAG, UCQ_SET)
from .frontend import build_env, desugar_groupby, inline_views
from .oracle import FiniteDb, GenSizes, OracleError, compile_query, gen_instances, interp_query
from .parser import parse
from .record import factory, record, replace
from .schema import SchemaEnv
from .sqlast import Lit, Program, TableRef, VerifyStmt, walk
from .spnf import to_spnf
from .trace import Trace
from .translate import denote, unify_outputs
from .exprs import (Add, AttrRef, Const, EqAtom, Exp, Mul, One, Pred, Rel, Squash,
                    Sum, TupleEqAtom, TupleVar, VarGen, Zero, pretty)


@record
class VerifyOutcome:
    name: str
    status: str
    fragment: str
    wall_ms: float = 0.0
    steps: dict = factory(dict)
    trace: Trace | None = None
    witness: FiniteDb | None = None
    detail: str = ""
    dumps: dict = factory(dict)

    @property
    def exit_contribution(self) -> int:
        return 0 if self.status == EQUIVALENT else 1


# ---------------------------------------------------------------------------
# Fragment classification

def _ucq_relations(e: Exp) -> set[str] | None:
    """The relations of a sum of UCQ terms, or None for any other ``e``."""
    rels: set[str] = set()
    for term in e.terms if type(e) is Add else (e,):
        stack = [term.body if type(term) is Sum else term]
        while stack:
            f = stack.pop()
            if type(f) is Mul:
                stack.extend(f.factors)
            elif type(f) is Rel:
                rels.add(f.name)
            elif type(f) is Pred:
                a = f.atom
                if not (type(a) is TupleEqAtom or type(a) is EqAtom
                        and {type(a.lhs), type(a.rhs)} <= {AttrRef, Const}):
                    return None
            elif type(f) not in (One, Zero):
                return None
    return rels


def classify_fragment(body1: Exp, body2: Exp, env: SchemaEnv) -> str:
    """``ucq-bag`` when both denotations are sums of UCQ terms, ``ucq-set``
    when each is one squash of such a sum, else ``general``; so is a pair
    that names a keyed or FK table.  A UCQ term is a summation, or a bare
    body, over a product (nested ones flattened) of relation atoms, 1, 0
    and equalities between attributes and constants or between tuples."""
    fragment = UCQ_BAG
    if type(body1) is Squash and type(body2) is Squash:
        body1, body2, fragment = body1.body, body2.body, UCQ_SET
    rels1, rels2 = _ucq_relations(body1), _ucq_relations(body2)
    if rels1 is None or rels2 is None:
        return GENERAL
    rels = rels1 | rels2
    touched = any(k.relation in rels for k in env.keys) or \
        any(fk.source in rels or fk.target in rels for fk in env.fks)
    return GENERAL if touched else fragment


# ---------------------------------------------------------------------------
# What a pair reads: its literals (oracle domains must include them) and tables

def query_reads(env: SchemaEnv, *queries) -> tuple[dict[str, set], set[str]]:
    """The int and string literals of ``queries`` and the declared tables
    they read, in one walk of them and of each view (or index) they read
    through; a foreign key whose source is read adds its target."""
    lits: dict[str, set] = {"int": set(), "string": set()}
    names: set[str] = set()
    todo = list(queries)
    while todo:
        for n in walk(todo.pop()):
            if isinstance(n, Lit):
                if n.ty in lits:
                    lits[n.ty].add(n.value)
            elif isinstance(n, TableRef) and n.name not in names:
                names.add(n.name)
                if n.name in env.views:
                    todo.append(env.views[n.name])
    tables = {n for n in names if n in env.tables}
    for _ in env.fks:  # each pass follows one more link of every chain
        tables |= {fk.target for fk in env.fks if fk.source in tables}
    return lits, tables


# ---------------------------------------------------------------------------
# One verify statement

def prepare_pair(stmt: VerifyStmt, env: SchemaEnv):
    q1 = inline_views(desugar_groupby(stmt.lhs), env)
    q2 = inline_views(desugar_groupby(stmt.rhs), env)
    return q1, q2


@record
class PreparedVerify:
    """A verify statement checked and denoted, ready to decide: both
    bodies are over the one output variable ``out_var``."""
    name: str
    q1: object
    q2: object
    fragment: str
    gen: VarGen
    out_var: TupleVar
    body1: Exp
    body2: Exp
    prep_ms: float


def prepare_verify(stmt: VerifyStmt, name: str, env: SchemaEnv) -> PreparedVerify:
    """Desugar, inline and denote both sides, then classify; raises
    SemanticError on a bad reference or on incompatible output schemas."""
    t0 = time.monotonic()
    gen = VarGen()
    q1, q2 = prepare_pair(stmt, env)
    d1 = denote(q1, env, gen)
    t, body1, body2 = unify_outputs(d1, denote(q2, env, gen, out=d1.out_var), name)
    return PreparedVerify(name, q1, q2, classify_fragment(body1, body2, env), gen, t,
                          body1, body2, (time.monotonic() - t0) * 1000.0)


def decide_verify(p: PreparedVerify, env: SchemaEnv, limits: Limits | None = None,
                  want_trace: bool = True, dump_uexp: bool = False,
                  dump_spnf: bool = False, refute: bool = False,
                  seed: int = 0) -> VerifyOutcome:
    """Normalize, canonize and search, then refute on request."""
    t0 = time.monotonic()
    trace = Trace(enabled=want_trace)
    budget = Budget(limits)
    dumps: dict[str, str] = {}
    names = {p.out_var.vid: "t"}
    if dump_uexp:
        dumps["uexp1"] = pretty(p.body1, names)
        dumps["uexp2"] = pretty(p.body2, names)
    try:
        s1 = to_spnf(p.body1, p.gen, trace, budget)
        s2 = to_spnf(p.body2, p.gen, trace, budget)
        if dump_spnf:
            dumps["spnf1"] = pretty(s1.to_exp(), names)
            dumps["spnf2"] = pretty(s2.to_exp(), names)
        decider = Decider(env, p.gen, trace, budget)
        equal = decider.equivalent(s1, s2)
        if equal:
            status = EQUIVALENT
        elif p.fragment in (UCQ_BAG, UCQ_SET):
            status = NOT_EQUIVALENT
        else:
            status = NOT_PROVED
        detail = ""
        if decider.canonizer.chase_exhausted:
            detail = "chase depth ceiling reached"
    except BudgetError as exc:
        status = RESOURCE_EXHAUSTED
        detail = str(exc)
    wall_ms = p.prep_ms + (time.monotonic() - t0) * 1000.0
    outcome = VerifyOutcome(p.name, status, p.fragment, wall_ms,
                            steps={"total": budget.steps, **budget.by_stage},
                            trace=trace, detail=detail, dumps=dumps)
    if refute and status in (NOT_EQUIVALENT, NOT_PROVED):
        note = ""
        try:
            outcome.witness = find_witness(p.q1, p.q2, env, seed=seed, budget=budget)
        except BudgetError as exc:
            note = f"refutation stopped: {exc}"
        else:
            if outcome.witness is None and any(s.rest for s in env.tables.values()):
                # no database can hold a generic table's rows
                generic = sorted(n for n in query_reads(env, p.q1, p.q2)[1]
                                 if env.tables[n].rest)
                if generic:
                    note = f"refutation drew no database: generic table {', '.join(generic)}"
        outcome.detail = "; ".join(filter(None, (detail, note)))
    return outcome


def run_verify(stmt: VerifyStmt, name: str, env: SchemaEnv,
               limits: Limits | None = None, want_trace: bool = True,
               dump_uexp: bool = False, dump_spnf: bool = False,
               refute: bool = False, seed: int = 0) -> VerifyOutcome:
    return decide_verify(prepare_verify(stmt, name, env), env, limits, want_trace,
                         dump_uexp, dump_spnf, refute, seed)


# At most this many table instances, summed over the cached databases, stay
# in the sweep cache: perfbench's refute workload keeps 1,808-2,205 of them
# at seeds 1, 3, 7, 9 and 11, and a smaller cache would redraw its streams.
SWEEP_TABLES = 4096


class _Stream:
    """A cached stream: the databases drawn so far and the live generator;
    ``kept`` turns false when the cache lets the stream go."""
    __slots__ = ("dbs", "draws", "kept")

    def __init__(self, draws):
        self.dbs, self.draws, self.kept = [], draws, True


class SweepCache:
    """`find_witness`'s database streams, kept for the life of the process.

    A stream is a pure function of its key, so a sweep over the same drawn
    tables, constraints, seed and literals reads the databases an earlier
    sweep drew, then extends the stream from its live generator.  Cached
    databases are only ever read.  Once they hold more than SWEEP_TABLES
    tables, whole streams are evicted, least recently used first; a stream
    whose generator raises is dropped."""

    def __init__(self):
        self.streams: dict[tuple, _Stream] = {}  # least recently used first
        self.tables = 0

    def clear(self) -> None:
        self.streams.clear()
        self.tables = 0

    def sweep(self, key: tuple, start):
        """The stream of ``key``: its cached databases, then new ones from its
        generator, which ``start()`` makes on a miss."""
        stream = self.streams.pop(key, None) or _Stream(start())
        self.streams[key] = stream
        yield from stream.dbs
        while True:
            try:
                db = next(stream.draws)
            except StopIteration:
                return
            except BaseException:
                if stream.kept:
                    self._evict(key)
                raise
            stream.dbs.append(db)
            if stream.kept:
                self.tables += len(db.rels)
                while self.tables > SWEEP_TABLES:
                    self._evict(next(iter(self.streams)))
            yield db

    def _evict(self, key: tuple) -> None:
        stream = self.streams.pop(key)
        stream.kept = False
        self.tables -= sum(len(db.rels) for db in stream.dbs)


SWEEPS = SweepCache()


def find_witness(q1, q2, env: SchemaEnv, seed: int = 0, tries: int = 200,
                 budget: Budget | None = None) -> FiniteDb | None:
    """Search generated constraint-satisfying instances for a disagreement;
    each side is compiled once.  Only the tables the pair reads are drawn
    (`query_reads`); the witness lists every declared table, an unread one
    empty, so it satisfies every declared constraint.  With a budget, its
    deadline is checked before each instance and inside each evaluation
    (BudgetError propagates).

    The databases come from the process-wide sweep cache `SWEEPS`, keyed by
    the drawn tables as (name, Schema) pairs (a Schema's equality covers its
    column types), the drawn constraints in order, the seed and the sorted
    int and string literals: a sweep over a key swept before reads the
    databases drawn then, and a sweep that stops early caches only what it
    drew.  The cache holds at most SWEEP_TABLES table instances.  The
    witness is a copy of the database that separates the pair, with fresh
    caches, so the cached one is never handed out."""
    lits, read = query_reads(env, q1, q2)
    drawn = env if read == env.tables.keys() else replace(
        env, tables={n: s for n, s in env.tables.items() if n in read},
        keys=[k for k in env.keys if k.relation in read],
        fks=[fk for fk in env.fks if fk.source in read])
    constraints = drawn.constraints()
    ints, strings = tuple(sorted(lits["int"])), tuple(sorted(lits["string"]))
    key = (tuple(sorted(drawn.tables.items())), tuple(constraints), seed, ints, strings)
    try:
        plan1, plan2 = compile_query(q1, env, budget), compile_query(q2, env, budget)
        stream = SWEEPS.sweep(key, lambda: gen_instances(
            drawn, constraints, GenSizes(), seed, extra_ints=ints, extra_strings=strings))
        for db in itertools.islice(stream, tries):
            if budget is not None:
                budget.check_time()
            if interp_query(plan1, db, env) != interp_query(plan2, db, env):
                rels = {n: dict(rows) for n, rows in db.rels.items()}
                rels.update((n, {}) for n in env.tables.keys() - read)
                return FiniteDb(dict(db.domains), rels, db.salt, db.space_cap)
    except OracleError:
        return None
    return None


# ---------------------------------------------------------------------------
# Whole programs

def run_program_text(text: str, limits: Limits | None = None, **kw) -> list[VerifyOutcome]:
    program = parse(text)
    env = build_env(program)
    return run_program(program, env, limits, **kw)


def run_program(program: Program, env: SchemaEnv, limits: Limits | None = None,
                **kw) -> list[VerifyOutcome]:
    """Every verify is prepared, so checked, before any is decided."""
    prepared = [prepare_verify(stmt, f"verify{i}", env)
                for i, stmt in enumerate(program.verifies(), start=1)]
    return [decide_verify(p, env, limits, **kw) for p in prepared]
