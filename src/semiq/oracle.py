"""Brute-force evaluation over finite databases.

Two independent evaluators live here: ``eval_exp`` interprets semiring
expressions by enumerating tuple spaces, and ``interp_query`` interprets the
SQL AST directly as bags.  They share only the value-level conventions
(uninterpreted functions and aggregates are deterministic hash functions, so
both sides agree on them).  Used for differential testing and refutation,
never as part of a proof.

Generic schemas must be instantiated to concrete attribute lists before
anything here can run.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

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

COMPARISONS = {"<", "<=", ">", ">="}


class OracleError(Exception):
    pass


@dataclass
class FiniteDb:
    domains: dict[str, tuple]
    rels: dict[str, dict[Assignment, int]]
    salt: int = 0
    space_cap: int = 65536
    _spaces: dict = field(default_factory=dict, repr=False)

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
        size = 1
        for d in doms:
            size *= len(d)
            if size > self.space_cap:
                raise OracleError(f"tuple space of {schema.name} exceeds cap")
        space = [tuple((a, v) for (a, _), v in zip(attrs, combo))
                 for combo in itertools.product(*doms)]
        self._spaces[key] = space
        return space

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


def _hash_int(salt: int, *parts) -> int:
    h = hashlib.blake2b(repr((salt, parts)).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def ufun_value(db: FiniteDb, name: str, args: tuple) -> object:
    dom = db.domain("int")
    return dom[_hash_int(db.salt, "fn", name, args) % len(dom)]


def upred_truth(db: FiniteDb, name: str, args: tuple) -> bool:
    if name in COMPARISONS and all(isinstance(a, int) and not isinstance(a, bool)
                                   for a in args):
        l, r = args
        return {"<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[name]
    return _hash_int(db.salt, "pred", name, args) % 2 == 1


def agg_value(db: FiniteDb, name: str, bag: tuple) -> object:
    """bag: tuple(sorted((assignment, multiplicity))) with multiplicity > 0."""
    if name in ("count", "cnt"):
        return sum(m for _, m in bag)
    if name == "sum":
        total = 0
        for asg, m in bag:
            if len(asg) != 1 or isinstance(asg[0][1], bool) or not isinstance(asg[0][1], int):
                break
            total += asg[0][1] * m
        else:
            return total
    dom = db.domain("int")
    return dom[_hash_int(db.salt, "agg", name, bag) % len(dom)]


# ---------------------------------------------------------------------------
# Semiring-expression evaluation

def eval_exp(e, db: FiniteDb, env: dict[int, Assignment] | None = None) -> int:
    """Natural-number value by structural recursion; summations enumerate
    the finite tuple space, squash clamps to one, negation tests for zero."""
    env = env or {}
    return _ev(e, db, env)


def _ev(e, db: FiniteDb, env: dict[int, Assignment]) -> int:
    if isinstance(e, Zero):
        return 0
    if isinstance(e, One):
        return 1
    if isinstance(e, Add):
        return _ev(e.lhs, db, env) + _ev(e.rhs, db, env)
    if isinstance(e, Mul):
        l = _ev(e.lhs, db, env)
        if l == 0:
            return 0
        return l * _ev(e.rhs, db, env)
    if isinstance(e, Squash):
        return min(1, _ev(e.body, db, env))
    if isinstance(e, Not):
        return 1 if _ev(e.body, db, env) == 0 else 0
    if isinstance(e, Sum):
        total = 0
        for asg in db.tuple_space(e.var.schema):
            env2 = dict(env)
            env2[e.var.vid] = asg
            total += _ev(e.body, db, env2)
        return total
    if isinstance(e, Rel):
        asg = _lookup(env, e.var)
        return db.rels.get(e.name, {}).get(asg, 0)
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
        bag_d: dict[Assignment, int] = {}
        for asg in db.tuple_space(s.var.schema):
            env2 = dict(env)
            env2[s.var.vid] = asg
            m = _ev(s.body, db, env2)
            if m:
                bag_d[asg] = bag_d.get(asg, 0) + m
        return agg_value(db, s.name, tuple(sorted(bag_d.items())))
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
# Direct bag interpreter over the SQL AST (independent of the semiring path)

def interp_query(q, db: FiniteDb, env: SchemaEnv, scopes=()) -> dict[Assignment, int]:
    if isinstance(q, TableRef):
        if q.name in env.views:
            return interp_query(env.views[q.name], db, env, scopes)
        return dict(db.rels.get(q.name, {}))
    if isinstance(q, Distinct):
        return {k: 1 for k, m in interp_query(q.query, db, env, scopes).items() if m > 0}
    if isinstance(q, UnionAll):
        out = dict(interp_query(q.lhs, db, env, scopes))
        for k, m in interp_query(q.rhs, db, env, scopes).items():
            out[k] = out.get(k, 0) + m
        return out
    if isinstance(q, ExceptQ):
        left = interp_query(q.lhs, db, env, scopes)
        right = interp_query(q.rhs, db, env, scopes)
        return {k: m for k, m in left.items() if right.get(k, 0) == 0}
    if isinstance(q, Select):
        return _interp_select(q, db, env, scopes)
    raise OracleError(f"cannot interpret query node {type(q).__name__}")


def _interp_select(q: Select, db: FiniteDb, env: SchemaEnv, scopes):
    rows: list[tuple[dict[str, Assignment], int]] = [({}, 1)]
    for src in q.sources:
        bag = interp_query(src.query, db, env, scopes)
        live = sorted((asg, m) for asg, m in bag.items() if m > 0)
        rows = [(dict(lm, **{src.alias: asg}), m1 * m2)
                for lm, m1 in rows for asg, m2 in live]
    if q.where is not None:
        rows = [(lm, m) for lm, m in rows
                if interp_pred(q.where, db, env, scopes + (lm,))]
    if q.group_by:
        return _interp_groupby(q, rows, db, env, scopes)
    out: dict[Assignment, int] = {}
    for lm, m in rows:
        asg = _project_row(q.items, lm, db, env, scopes)
        out[asg] = out.get(asg, 0) + m
    return out


def _project_row(items, lm: dict[str, Assignment], db, env, scopes) -> Assignment:
    values: dict[str, object] = {}
    for item in items:
        if isinstance(item, Star):
            for alias in lm:
                values.update(dict(lm[alias]))
        elif isinstance(item, AliasStar):
            values.update(dict(lm[item.alias]))
        elif isinstance(item, ExprItem):
            values[item.name] = interp_expr(item.expr, db, env, scopes + (lm,))
        else:
            raise OracleError("unknown projection item")
    return make_assignment(values)


def _interp_groupby(q: Select, rows, db: FiniteDb, env: SchemaEnv, scopes):
    grouped = {(g.alias, g.attr) for g in q.group_by}
    local_aliases = {s.alias for s in q.sources}
    groups: dict[tuple, list[tuple[dict, int]]] = {}
    for lm, m in rows:
        key = tuple(dict(lm[g.alias])[g.attr] for g in q.group_by)
        groups.setdefault(key, []).append((lm, m))
    out: dict[Assignment, int] = {}
    for key in sorted(groups, key=repr):
        members = groups[key]
        lm0 = members[0][0]
        values: dict[str, object] = {}
        for item in q.items:
            if not isinstance(item, ExprItem):
                raise OracleError("grouped query must project named expressions")
            e = item.expr
            if isinstance(e, App) and _refs_nongrouped(e, grouped, local_aliases):
                names = shorthand_column_names(list(e.args))
                bag_d: dict[Assignment, int] = {}
                for lm, m in members:
                    asg = make_assignment({
                        n: interp_expr(a, db, env, scopes + (lm,))
                        for n, a in zip(names, e.args)})
                    bag_d[asg] = bag_d.get(asg, 0) + m
                values[item.name] = agg_value(db, e.name, tuple(sorted(bag_d.items())))
            else:
                values[item.name] = interp_expr(e, db, env, scopes + (lm0,))
        asg = make_assignment(values)
        out[asg] = out.get(asg, 0) + 1  # one row per group
    return out


def _refs_nongrouped(e, grouped, local_aliases) -> bool:
    if isinstance(e, ColRef):
        return e.alias in local_aliases and (e.alias, e.attr) not in grouped
    if isinstance(e, App):
        return any(_refs_nongrouped(a, grouped, local_aliases) for a in e.args)
    return False


def interp_pred(p, db: FiniteDb, env: SchemaEnv, scopes) -> bool:
    if isinstance(p, Cmp):
        l = interp_expr(p.lhs, db, env, scopes)
        r = interp_expr(p.rhs, db, env, scopes)
        if p.op == "=":
            return l == r
        if p.op == "<>":
            return l != r
        return upred_truth(db, p.op, (l, r))
    if isinstance(p, AndP):
        return interp_pred(p.lhs, db, env, scopes) and interp_pred(p.rhs, db, env, scopes)
    if isinstance(p, OrP):
        return interp_pred(p.lhs, db, env, scopes) or interp_pred(p.rhs, db, env, scopes)
    if isinstance(p, NotP):
        return not interp_pred(p.body, db, env, scopes)
    if isinstance(p, BoolLit):
        return p.value
    if isinstance(p, Exists):
        return any(m > 0 for m in interp_query(p.query, db, env, scopes).values())
    raise OracleError(f"cannot interpret predicate {type(p).__name__}")


def interp_expr(e, db: FiniteDb, env: SchemaEnv, scopes):
    if isinstance(e, ColRef):
        for sc in reversed(scopes):
            if e.alias in sc:
                return dict(sc[e.alias])[e.attr]
        raise OracleError(f"unknown alias {e.alias}")
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, App):
        return ufun_value(db, e.name,
                          tuple(interp_expr(a, db, env, scopes) for a in e.args))
    if isinstance(e, AggQuery):
        bag = interp_query(e.query, db, env, scopes)
        bag_t = tuple(sorted((k, m) for k, m in bag.items() if m > 0))
        return agg_value(db, e.name, bag_t)
    raise OracleError(f"cannot interpret expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Constraint checking

def check_constraints(db: FiniteDb, constraints) -> bool:
    for c in constraints:
        if isinstance(c, KeyConstraint):
            per_key: dict[tuple, int] = {}
            for asg, m in db.rels.get(c.relation, {}).items():
                if m <= 0:
                    continue
                kv = tuple(dict(asg)[a] for a in c.attrs)
                per_key[kv] = per_key.get(kv, 0) + m
            if any(total > 1 for total in per_key.values()):
                return False
        elif isinstance(c, FkConstraint):
            targets = db.rels.get(c.target, {})
            for asg, m in db.rels.get(c.source, {}).items():
                if m <= 0:
                    continue
                sv = tuple(dict(asg)[a] for a in c.source_attrs)
                matches = [(t, tm) for t, tm in targets.items() if tm > 0 and
                           tuple(dict(t)[a] for a in c.target_attrs) == sv]
                if len(matches) != 1 or matches[0][1] != 1:
                    return False
        else:
            raise OracleError(f"unknown constraint {type(c).__name__}")
    return True


# ---------------------------------------------------------------------------
# Instance generation

@dataclass
class GenSizes:
    domain: int = 3
    tuples: int = 3
    mult: int = 3


def _repair(db: FiniteDb, constraints, rng: random.Random) -> bool:
    for c in constraints:
        if isinstance(c, KeyConstraint):
            seen: set[tuple] = set()
            fixed: dict[Assignment, int] = {}
            for asg in sorted(db.rels.get(c.relation, {}), key=repr):
                kv = tuple(dict(asg)[a] for a in c.attrs)
                if kv in seen:
                    continue
                seen.add(kv)
                fixed[asg] = 1
            db.rels[c.relation] = fixed
    for _ in range(8):
        ok = True
        for c in constraints:
            if not isinstance(c, FkConstraint):
                continue
            targets = db.rels.setdefault(c.target, {})
            for asg, m in list(db.rels.get(c.source, {}).items()):
                if m <= 0:
                    continue
                sv = tuple(dict(asg)[a] for a in c.source_attrs)
                matches = [t for t, tm in targets.items() if tm > 0 and
                           tuple(dict(t)[a] for a in c.target_attrs) == sv]
                if len(matches) == 1 and targets[matches[0]] == 1:
                    continue
                ok = False
                if len(matches) > 1:
                    for t in matches[1:]:
                        del targets[t]
                    targets[matches[0]] = 1
                elif matches:
                    targets[matches[0]] = 1
                else:
                    del db.rels[c.source][asg]  # drop the dangling source row
        if ok:
            return check_constraints(db, constraints)
    return check_constraints(db, constraints)


def gen_instances(env: SchemaEnv, constraints, sizes: GenSizes, seed: int,
                  count: int | None = None, extra_ints=(), extra_strings=()):
    """Deterministic seeded stream of constraint-satisfying databases."""
    rng = random.Random(seed)
    strings = tuple(sorted(set("abc"[:max(1, min(sizes.domain, 3))])
                           | set(extra_strings)))
    tables = sorted(env.tables.items())
    # one domain map per drawn int-domain size, each with the tuple-space
    # cache that every database drawn at that size shares
    draws: dict[int, tuple[dict[str, tuple], dict]] = {}
    produced = 0
    attempts = 0
    while count is None or produced < count:
        attempts += 1
        if count is not None and attempts > 50 * (count + 1):
            return  # constraints unsatisfiable at this size
        n = rng.randint(1, sizes.domain)
        if n not in draws:
            ints = tuple(sorted(set(range(n)) | set(extra_ints)))
            draws[n] = ({"int": ints, "bool": (False, True), "string": strings}, {})
        domains, spaces = draws[n]
        db = FiniteDb(domains, {}, salt=rng.randrange(2 ** 16), _spaces=spaces)
        ok = True
        for name, sch in tables:
            try:
                space = db.tuple_space(sch)
            except OracleError:
                ok = False
                break
            k = rng.randint(0, min(sizes.tuples, len(space)))
            support = rng.sample(space, k) if k else []
            db.rels[name] = {asg: rng.randint(1, sizes.mult) for asg in sorted(support)}
        if not ok:
            return
        if _repair(db, constraints, rng):
            produced += 1
            yield db

