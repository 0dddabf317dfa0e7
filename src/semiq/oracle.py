"""Brute-force evaluation over finite databases.

Two independent evaluators live here: ``eval_exp`` interprets semiring
expressions by enumerating tuple spaces, and ``interp_query`` runs the bag
plan that ``compile_query`` builds once from a SQL AST.  They share only the
value-level conventions (uninterpreted functions and aggregates are
deterministic hash functions, so both sides agree on them).  Used for
differential testing and refutation, never as part of a proof.

Generic schemas must be instantiated to concrete attribute lists before
anything here can run.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import random
from math import prod

from .config import Budget
from .record import factory, record
from .schema import FkConstraint, KeyConstraint, Schema, SchemaEnv
from .sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ,
    Exists, ExprItem, Lit, NotP, OrP, Select, Star, TableRef, UnionAll,
)
from .frontend import shorthand_column_names
from .exprs import (
    Add, AggCall, AttrRef, Const, EqAtom, Func, Mul, NeqAtom, Not, One, Pred,
    PredApp, Rel, Squash, Sum, TupleCons, TupleEqAtom, TupleNeqAtom,
    TupleSlice, TupleVar, Zero,
)

Assignment = tuple[tuple[str, object], ...]

ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
EQUALITY = {"=": operator.eq, "<>": operator.ne}


class OracleError(Exception):
    pass


@record
class FiniteDb:
    domains: dict[str, tuple]
    rels: dict[str, dict[Assignment, int]]
    salt: int = 0
    space_cap: int = 65536
    _spaces: dict = factory(dict)
    _scans: dict = factory(dict)
    _bags: dict = factory(dict)
    _hashes: dict = factory(dict)

    def domain(self, ty: str) -> tuple:
        if ty in self.domains:
            return self.domains[ty]
        return self.domains["int"]  # unknown result types live in the int domain

    def tuple_space(self, schema: Schema) -> list[Assignment]:
        key = (frozenset(schema.attrs), schema.rest)
        if key in self._spaces:
            return self._spaces[key]
        if schema.rest:
            raise OracleError(f"cannot enumerate generic schema {schema.name}")
        attrs = sorted(schema.attrs)
        doms = [self.domain(t) for _, t in attrs]
        if prod(map(len, doms)) > self.space_cap:
            raise OracleError(f"tuple space of {schema.name} exceeds cap")
        space = [tuple((a, v) for (a, _), v in zip(attrs, combo))
                 for combo in itertools.product(*doms)]
        self._spaces[key] = space
        return space

    def scan(self, name: str) -> list[tuple[dict, int, Assignment]]:
        """A base table's `_live_rows`, built at its first scan unless the
        database came with them (rels stay fixed)."""
        rows = self._scans.get(name)
        if rows is None:
            rows = self._scans[name] = _live_rows(self.rels.get(name, {}))
        return rows

    def bag(self, name: str) -> dict[Assignment, int]:
        """A base table's live rows keyed by their sorted assignment, however
        ``rels`` orders a key, built at its first lookup."""
        if name not in self._bags:
            self._bags[name] = _bag_sum((asg, m) for _, m, asg in self.scan(name))
        return self._bags[name]

    def dump(self) -> str:
        lines = []
        for name in sorted(self.rels):
            lines.append(f"{name}:")
            rows = self.rels[name]
            if not rows:
                lines.append("  (empty)")
            for asg, m in sorted(rows.items(), key=lambda kv: repr(kv[0])):
                row = ", ".join(f"{a}={v!r}" for a, v in asg)
                lines.append(f"  ({row}) x{m}")
        return "\n".join(lines)


def make_assignment(values: dict[str, object]) -> Assignment:
    return tuple(sorted(values.items()))


def _hash_int(db: FiniteDb, kind: str, name: str, values: tuple, types: tuple) -> int:
    """A hash of ``(kind, name, values)`` under the database's salt, kept per
    database.  Equal values can print apart (True and 1): ``types`` is keyed."""
    key = (kind, name, values, types)
    h = db._hashes.get(key)
    if h is None:
        digest = hashlib.blake2b(repr((db.salt, (kind, name, values))).encode(),
                                 digest_size=8).digest()
        h = db._hashes[key] = int.from_bytes(digest, "big")
    return h


def ufun_value(db: FiniteDb, name: str, args: tuple) -> object:
    dom = db.domain("int")
    return dom[_hash_int(db, "fn", name, args, tuple(map(type, args))) % len(dom)]


def upred_truth(db: FiniteDb, name: str, args: tuple) -> bool:
    """The standard order on two ints (not bools), else a deterministic hash."""
    cmp = ORDER.get(name)
    if cmp is not None and len(args) == 2 and type(args[0]) is type(args[1]) is int:
        return cmp(*args)
    return _hash_int(db, "pred", name, args, tuple(map(type, args))) % 2 == 1


def agg_value(db: FiniteDb, name: str, bag: tuple) -> object:
    """bag: tuple(sorted((assignment, multiplicity))) with multiplicity > 0."""
    if name in ("count", "cnt"):
        return sum(m for _, m in bag)
    if name == "sum" and all(len(asg) == 1 and type(asg[0][1]) is int for asg, _ in bag):
        return sum(asg[0][1] * m for asg, m in bag)
    dom = db.domain("int")
    types = tuple(type(v) for asg, _ in bag for _, v in asg)
    return dom[_hash_int(db, "agg", name, bag, types) % len(dom)]


# ---------------------------------------------------------------------------
# Semiring-expression evaluation

def eval_exp(e, db: FiniteDb, env: dict[int, Assignment] | None = None) -> int:
    """Natural-number value by structural recursion; summations enumerate
    the finite tuple space, squash clamps to one, negation tests for zero."""
    return _ev(e, db, env or {})


def _ev(e, db: FiniteDb, env: dict[int, Assignment]) -> int:
    if isinstance(e, Zero):
        return 0
    if isinstance(e, One):
        return 1
    if isinstance(e, Add):
        return sum(_ev(t, db, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1
        for f in e.factors:  # no factor after a 0 is evaluated
            out = out and out * _ev(f, db, env)
        return out
    if isinstance(e, Squash):
        return min(1, _ev(e.body, db, env))
    if isinstance(e, Not):
        return 1 if _ev(e.body, db, env) == 0 else 0
    if isinstance(e, Sum):
        spaces = [db.tuple_space(v.schema) for v in e.vars]
        return sum(_ev(e.body, db, {**env, **{v.vid: a for v, a in zip(e.vars, asgs)}})
                   for asgs in itertools.product(*spaces))
    if isinstance(e, Rel):
        return db.bag(e.name).get(_lookup(env, e.var), 0)
    if isinstance(e, Pred):
        return 1 if _atom_true(e.atom, db, env) else 0
    raise TypeError(e)


def _lookup(env: dict[int, Assignment], v: TupleVar) -> Assignment:
    if v.vid not in env:
        raise OracleError(f"unbound tuple variable {v}")
    return env[v.vid]


def eval_scalar(s, db: FiniteDb, env: dict[int, Assignment]):
    if isinstance(s, Const):
        return s.value
    if isinstance(s, AttrRef):
        asg = dict(_lookup(env, s.var))
        if s.attr not in asg:
            raise OracleError(f"attribute {s.attr} missing from binding of {s.var}")
        return asg[s.attr]
    if isinstance(s, Func):
        return ufun_value(db, s.name, tuple(eval_scalar(a, db, env) for a in s.args))
    if isinstance(s, AggCall):
        bag = {asg: m for asg in db.tuple_space(s.var.schema)
               if (m := _ev(s.body, db, {**env, s.var.vid: asg}))}
        return agg_value(db, s.name, tuple(sorted(bag.items())))
    raise TypeError(s)


def eval_tuple(t, db: FiniteDb, env: dict[int, Assignment]) -> Assignment:
    if isinstance(t, TupleVar):
        return _lookup(env, t)
    if isinstance(t, TupleSlice):
        if t.part.rest:
            raise OracleError("cannot evaluate a slice over a generic footprint")
        names = set(t.part.attr_names())
        return tuple((a, v) for a, v in _lookup(env, t.var) if a in names)
    if isinstance(t, TupleCons):
        return make_assignment({n: eval_scalar(s, db, env) for n, s in t.fields})
    raise TypeError(t)


def _atom_true(a, db: FiniteDb, env: dict[int, Assignment]) -> bool:
    if isinstance(a, EqAtom):
        return eval_scalar(a.lhs, db, env) == eval_scalar(a.rhs, db, env)
    if isinstance(a, NeqAtom):
        return eval_scalar(a.lhs, db, env) != eval_scalar(a.rhs, db, env)
    if isinstance(a, PredApp):
        return upred_truth(db, a.name, tuple(eval_scalar(s, db, env) for s in a.args))
    if isinstance(a, TupleEqAtom):
        return eval_tuple(a.lhs, db, env) == eval_tuple(a.rhs, db, env)
    if isinstance(a, TupleNeqAtom):
        return eval_tuple(a.lhs, db, env) != eval_tuple(a.rhs, db, env)
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Bag evaluation of the SQL AST (independent of the semiring path).  A plan is
# a closure ``(db, frames) -> bag``: ``frames`` holds the enclosing SELECTs'
# current source rows, outermost first, each a `_live_rows` triple (row dict,
# multiplicity, sorted assignment); a column reads ``frames[slot][0][attr]``.

def compile_query(q, env: SchemaEnv, budget: Budget | None = None):
    """The plan of ``q``, checking ``budget``'s deadline every 256 rows."""
    return _Compiler(env, budget).query(q, ())


def interp_query(q, db: FiniteDb, env: SchemaEnv) -> dict[Assignment, int]:
    """The bag of ``q`` on ``db``; ``q`` is a query or its compiled plan."""
    return (q if callable(q) else compile_query(q, env))(db, ())


def _live_rows(bag: dict[Assignment, int]) -> list[tuple[dict, int, Assignment]]:
    return [(dict(asg), m, tuple(sorted(asg))) for asg, m in sorted(bag.items()) if m > 0]


def _bag_sum(pairs) -> dict[Assignment, int]:
    out: dict[Assignment, int] = {}
    for k, m in pairs:
        out[k] = out.get(k, 0) + m
    return out


@record
class _Compiler:
    """Maps each node, with the aliases in scope (innermost last), to its closure."""
    env: SchemaEnv
    budget: Budget | None
    read: set = factory(set)  # the row slots the closures built so far read

    def query(self, q, scope: tuple):
        if isinstance(q, UnionAll):
            plans = [self.query(b, scope) for b in q.branches]
            return lambda db, frames: _bag_sum(
                kv for plan in plans for kv in plan(db, frames).items())
        if isinstance(q, TableRef) and q.name in self.env.views:
            return self.query(self.env.views[q.name], scope)
        if isinstance(q, TableRef):
            return lambda db, frames: _bag_sum((asg, m) for _, m, asg in db.scan(q.name))
        if isinstance(q, Distinct):
            inner = self.query(q.query, scope)
            return lambda db, frames: {k: 1 for k, m in inner(db, frames).items() if m > 0}
        if isinstance(q, ExceptQ):
            lhs, rhs = self.query(q.lhs, scope), self.query(q.rhs, scope)

            def except_(db, frames):
                left, right = lhs(db, frames), rhs(db, frames)
                return {k: m for k, m in left.items() if right.get(k, 0) == 0}
            return except_
        if isinstance(q, Select):
            return self._select(q, scope)
        raise OracleError(f"cannot interpret query node {type(q).__name__}")

    def _scan(self, q, scope: tuple):
        """The source's `_live_rows`; a base table's are the database's."""
        if isinstance(q, TableRef) and q.name not in self.env.views:
            return lambda db, frames: db.scan(q.name)
        bag = self.query(q, scope)
        return lambda db, frames: _live_rows(bag(db, frames))

    def _total(self, q, scope: tuple):
        """The source as one row ``({}, total multiplicity, ())``; none at 0."""
        scan = self._scan(q, scope)

        def total(db, frames):
            m = sum([n for _, n, _ in scan(db, frames)])
            return [({}, m, ())] if m else []
        return total

    def _select(self, q: Select, scope: tuple):
        inner = scope + tuple(s.alias for s in q.sources)
        local = range(len(scope), len(inner))
        outer, self.read = self.read, set()
        where = self.pred(q.where, inner) if q.where is not None else None
        project, fold = self._group(q, inner, local) if q.group_by else \
            (self._projection(q.items, inner, local), None)
        read, self.read = self.read, outer | self.read
        # a source that no closure of the items, WHERE or GROUP BY reads is one
        # row of its total multiplicity: the same bag, without walking its rows
        scans = [self._scan(s.query, scope) if k in read else self._total(s.query, scope)
                 for k, s in zip(local, q.sources)]
        budget = self.budget

        def select(db, frames):  # each row passing WHERE adds to its projection
            out: dict = {}
            for i, here in enumerate(itertools.product(*[scan(db, frames) for scan in scans])):
                if budget is not None and i & 255 == 255:
                    budget.check_time()
                row = frames + here
                if where is None or where(db, row):
                    m = 1
                    for _, n, _ in here:
                        m *= n
                    key = project(db, row)
                    out[key] = out.get(key, 0) + m
            return out if fold is None else fold(db, out)
        return select

    def _projection(self, items, scope: tuple, local: range):
        stars, named = [], {}
        for it in items:
            if isinstance(it, Star):
                stars += local
                self.read.update(local)
            elif isinstance(it, AliasStar):
                stars.append(self._slot(it.alias, scope, local.start))
            elif isinstance(it, ExprItem):
                named[it.name] = self.expr(it.expr, scope)
            else:
                raise OracleError("unknown projection item")
        named = sorted(named.items())
        if not stars:
            return lambda db, row: tuple([(n, f(db, row)) for n, f in named])
        if len(stars) == 1 and not named:  # one source's row: its stored assignment
            return lambda db, row, k=stars[0]: row[k][2]

        def project(db, row):
            values: dict[str, object] = {}
            for k in stars:
                values.update(row[k][0])
            values.update([(n, f(db, row)) for n, f in named])
            return make_assignment(values)
        return project

    def _group(self, q: Select, scope: tuple, local: range):
        """A row's projection to its group and its items' values, and the fold."""
        keys = [self.expr(g, scope) for g in q.group_by]
        grouped, here = {(g.alias, g.attr) for g in q.group_by}, set(scope[local.start:])

        def aggregated(e) -> bool:  # refers to a local column outside the GROUP BY
            if isinstance(e, ColRef):
                return e.alias in here and (e.alias, e.attr) not in grouped
            return isinstance(e, App) and any(map(aggregated, e.args))
        items = []  # (name, aggregate, projection of its arguments) or (name, None, closure)
        for it in q.items:
            if not isinstance(it, ExprItem):
                raise OracleError("grouped query must project named expressions")
            e = it.expr
            if isinstance(e, App) and aggregated(e):
                args = map(ExprItem, e.args, shorthand_column_names(list(e.args)))
                items.append((it.name, e.name, self._projection(list(args), scope, local)))
            else:
                items.append((it.name, None, self.expr(e, scope)))

        def fold(db, bag):  # one row per group; a plain item takes its first row's value
            groups: dict[tuple, list[dict]] = {}  # per group, each item's bag of values
            for (key, values), m in bag.items():
                for vals, v in zip(groups.setdefault(key, [{} for _ in items]), values):
                    vals[v] = vals.get(v, 0) + m
            return _bag_sum((make_assignment({
                name: agg_value(db, agg, tuple(sorted(vals.items()))) if agg else next(iter(vals))
                for (name, agg, _), vals in zip(items, groups[key])}), 1)
                for key in sorted(groups, key=repr))
        return (lambda db, row: (tuple([k(db, row) for k in keys]),
                                 tuple([f(db, row) for *_, f in items]))), fold

    def pred(self, p, scope: tuple):
        if isinstance(p, Cmp):
            l, r, op = self._operand(p.lhs, scope), self._operand(p.rhs, scope), p.op
            if l is not None and r is not None:
                return _compare(op, *l, *r)
            l, r, test = self.expr(p.lhs, scope), self.expr(p.rhs, scope), EQUALITY.get(op)
            if test is not None:
                return lambda db, row: test(l(db, row), r(db, row))
            return lambda db, row: upred_truth(db, op, (l(db, row), r(db, row)))
        if isinstance(p, (AndP, OrP)):
            # operands joined pairwise, in order: closures nest log2(n) deep,
            # and each two-operand closure short-circuits as the operator does
            fs = [self.pred(a, scope) for a in p.args]
            join = _both if isinstance(p, AndP) else _either
            while len(fs) > 1:
                fs = [join(*fs[i:i + 2]) if i + 1 < len(fs) else fs[i]
                      for i in range(0, len(fs), 2)]
            return fs[0]
        if isinstance(p, NotP):
            body = self.pred(p.body, scope)
            return lambda db, row: not body(db, row)
        if isinstance(p, BoolLit):
            return lambda db, row: p.value
        if isinstance(p, Exists):
            sub = self.query(p.query, scope)
            return lambda db, row: any(m > 0 for m in sub(db, row).values())
        raise OracleError(f"cannot interpret predicate {type(p).__name__}")

    def _slot(self, alias: str, scope: tuple, start: int = 0) -> int:
        """The innermost source named ``alias`` among ``scope[start:]``, noted
        as read."""
        for k in range(len(scope) - 1, start - 1, -1):
            if scope[k] == alias:
                self.read.add(k)
                return k
        raise OracleError(f"unknown alias {alias}")

    def _operand(self, e, scope: tuple):
        """A column's ``(slot, attr)``, a literal's ``(None, value)``, else None."""
        if isinstance(e, ColRef):
            return self._slot(e.alias, scope), e.attr
        return (None, e.value) if isinstance(e, Lit) else None

    def expr(self, e, scope: tuple):
        if isinstance(e, (ColRef, Lit)):
            k, a = self._operand(e, scope)
            return (lambda db, row: a) if k is None else (lambda db, row: row[k][0][a])
        if isinstance(e, App):
            args = [self.expr(a, scope) for a in e.args]
            return lambda db, row: ufun_value(db, e.name, tuple([a(db, row) for a in args]))
        if isinstance(e, AggQuery):
            sub = self.query(e.query, scope)
            return lambda db, row: agg_value(db, e.name, tuple(sorted(
                kv for kv in sub(db, row).items() if kv[1] > 0)))
        raise OracleError(f"cannot interpret expression {type(e).__name__}")


def _compare(op: str, k, a, j, b):
    """``op`` on ``row[k][0][a]`` (``a`` when ``k`` is None) and ``row[j][0][b]``."""
    test, ordered = EQUALITY.get(op) or ORDER[op], op in ORDER

    def compare(db, row):
        x, y = a if k is None else row[k][0][a], b if j is None else row[j][0][b]
        if ordered and not type(x) is int is type(y):
            return upred_truth(db, op, (x, y))
        return test(x, y)
    return compare


def _both(l, r):
    return lambda db, row: l(db, row) and r(db, row)


def _either(l, r):
    return lambda db, row: l(db, row) or r(db, row)


# ---------------------------------------------------------------------------
# Constraint checking

def check_constraints(db: FiniteDb, constraints) -> bool:
    for c in constraints:
        if isinstance(c, KeyConstraint):
            per_key = _bag_sum((tuple(dict(asg)[a] for a in c.attrs), m)
                               for asg, m in db.rels.get(c.relation, {}).items() if m > 0)
            if any(total > 1 for total in per_key.values()):
                return False
        elif isinstance(c, FkConstraint):
            targets = db.rels.get(c.target, {})
            for asg, m in db.rels.get(c.source, {}).items():
                if m <= 0:
                    continue
                matches = _fk_matches(c, asg, targets)
                if len(matches) != 1 or targets[matches[0]] != 1:
                    return False
        else:
            raise OracleError(f"unknown constraint {type(c).__name__}")
    return True


def _fk_matches(c: FkConstraint, asg: Assignment, targets: dict) -> list:
    """The live ``targets`` rows whose target attributes equal ``asg``'s."""
    sv = tuple(dict(asg)[a] for a in c.source_attrs)
    return [t for t, tm in targets.items() if tm > 0 and
            tuple(dict(t)[a] for a in c.target_attrs) == sv]


# ---------------------------------------------------------------------------
# Instance generation

@record
class GenSizes:
    domain: int = 3
    tuples: int = 3
    mult: int = 3


def _repair(db: FiniteDb, constraints) -> bool:
    for c in constraints:
        if isinstance(c, KeyConstraint):
            first: dict[tuple, Assignment] = {}  # key value -> its first row
            for asg in sorted(db.rels.get(c.relation, {}), key=repr):
                first.setdefault(tuple(dict(asg)[a] for a in c.attrs), asg)
            db.rels[c.relation] = {asg: 1 for asg in first.values()}
    for _ in range(8):
        ok = True
        for c in constraints:
            if not isinstance(c, FkConstraint):
                continue
            targets = db.rels.setdefault(c.target, {})
            for asg, m in list(db.rels.get(c.source, {}).items()):
                if m <= 0:
                    continue
                matches = _fk_matches(c, asg, targets)
                if len(matches) == 1 and targets[matches[0]] == 1:
                    continue
                ok = False
                if not matches:
                    del db.rels[c.source][asg]  # drop the dangling source row
                    continue
                for t in matches[1:]:
                    del targets[t]
                targets[matches[0]] = 1
        if ok:
            break
    return check_constraints(db, constraints)


def gen_instances(env: SchemaEnv, constraints, sizes: GenSizes, seed: int,
                  count: int | None = None, extra_ints=(), extra_strings=()):
    """Deterministic seeded stream of constraint-satisfying databases over
    the tables of ``env``; a caller that needs only some tables passes an
    env that declares only those.

    Each database draws its int-domain size and a 16-bit salt, and each
    table a row count k uniform in 0..min(tuples, |tuple space|), then k
    distinct rows value by value (no tuple space is enumerated), each
    followed by its multiplicity.  A generic table ends the stream.  A
    table that no constraint names comes with its scan (`FiniteDb.scan`):
    its rows are drawn as sorted assignments and kept in sorted order, so
    they are its `_live_rows` as they stand."""
    draw, mult = random.Random(seed).random, sizes.mult  # a uniform pick of m: int(draw() * m)
    strings = tuple(sorted(set("abc"[:max(1, min(sizes.domain, 3))])
                           | set(extra_strings)))
    tables = sorted(env.tables.items())
    if any(sch.rest for _, sch in tables):
        return
    constrained = {n for c in constraints for n in (
        (c.relation,) if isinstance(c, KeyConstraint) else (c.source, c.target))}
    # per drawn int-domain size: domains, shared tuple-space cache, table shapes
    draws: dict[int, tuple[dict[str, tuple], dict, list]] = {}
    produced = attempts = 0
    while count is None or produced < count:
        attempts += 1
        if count is not None and attempts > 50 * (count + 1):
            return  # constraints unsatisfiable at this size
        n = 1 + int(draw() * sizes.domain)
        if n not in draws:
            ints = tuple(sorted(set(range(n)) | set(extra_ints)))
            domains = {"int": ints, "bool": (False, True), "string": strings}
            shapes = []
            for name, sch in tables:  # a column is its cells, (attr, value) pairs
                cols = [(tuple([(a, v) for v in d]), len(d)) for a, t in sorted(sch.attrs)
                        for d in (domains.get(t, ints),)]
                shapes.append((name, cols, min(sizes.tuples, prod(m for _, m in cols)),
                               name not in constrained))
            draws[n] = (domains, {}, shapes)
        domains, spaces, shapes = draws[n]
        db = FiniteDb(domains, {}, salt=int(draw() * 2 ** 16), _spaces=spaces)
        for name, cols, most, scanned in shapes:
            k, rows = int(draw() * (most + 1)), {}
            while len(rows) < k:
                row = tuple([cells[int(draw() * m)] for cells, m in cols])
                if row not in rows:  # a repeated row is drawn again
                    rows[row] = 1 + int(draw() * mult)
            db.rels[name] = rows = dict(sorted(rows.items())) if k > 1 else rows
            if scanned:
                db._scans[name] = [(dict(row), m, row) for row, m in rows.items()]
        if not constraints or _repair(db, constraints):
            produced += 1
            yield db
