"""Shared test machinery: random query/expression generators, the SQL
printers, the reference homomorphism containment checker, and
differential-testing loops."""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import random

from hypothesis import strategies as st

import semiq
from semiq.congruence import Closure
from semiq.frontend import desugar_groupby, inline_views
from semiq.oracle import (FiniteDb, GenSizes, compile_query, eval_exp, gen_instances,
                          interp_query)
from semiq.schema import Schema, SchemaEnv
from semiq.spnf import SpnfError, SpnfExp
from semiq.sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ, Exists,
    Expr, ExprItem, FkStmt, IndexStmt, KeyStmt, Lit, NotP, OrP, Predicate, Program,
    ProjItem, Query, SchemaStmt, Select, Source, Star, Statement, TableRef, TableStmt,
    UnionAll, VerifyStmt, ViewStmt,
)
from semiq.translate import denote
from semiq.exprs import (Add, AttrRef, Const, Exp, Func, Mul, Not, Pred, Rel,
                        Scalar, Squash, Sum, TupleSlice, TupleVar, VarGen, add,
                        canon_key, free_vars, mk_eq, mk_neq, mk_record,
                        mk_tuple_eq, rewrite, substitute, sum_)

def record_classes() -> list[type]:
    """Every ``@record`` class of `semiq`, module by module; the decorator
    marks each by its ``__record_fields__``."""
    out = []
    for info in pkgutil.iter_modules(semiq.__path__):
        mod = importlib.import_module(f"semiq.{info.name}")
        out += [c for c in vars(mod).values()
                if isinstance(c, type) and c.__module__ == mod.__name__
                and "__record_fields__" in vars(c)]
    return out


# A small standard environment: three binary relations over ints.

def std_env(rel_names=("R", "S", "T")) -> SchemaEnv:
    env = SchemaEnv()
    for name in rel_names:
        sch = Schema(f"s{name}", (("a", "int"), ("b", "int")))
        env.declare_schema(sch)
        env.declare_table(name, f"s{name}")
    return env


# ---------------------------------------------------------------------------
# Normal-form shape checking

def check_spnf(e: SpnfExp, outer_vars: frozenset[int] = frozenset()) -> bool:
    """True iff the term invariants hold syntactically."""
    try:
        _check(e, outer_vars)
        return True
    except SpnfError:
        return False


def _check(e: SpnfExp, outer: frozenset[int]) -> None:
    if not isinstance(e, SpnfExp):
        raise SpnfError("not a normal-form expression")
    for t in e.terms:
        vids = [v.vid for v in t.sum_vars]
        if len(set(vids)) != len(vids):
            raise SpnfError("duplicate summation variable")
        scope = outer | set(vids)
        for rel, v in t.atoms:
            if v.vid not in scope:
                raise SpnfError(f"atom {rel}({v}) references out-of-scope variable")
        for p in t.preds:
            for v in free_vars(p):
                if v.vid not in scope:
                    raise SpnfError("predicate references out-of-scope variable")
        if t.squash is not None:
            if t.squash.is_one():
                raise SpnfError("squash slot holding 1 must be omitted")
            _check(t.squash, frozenset(scope))
        if t.neg is not None:
            if t.neg.is_zero():
                raise SpnfError("negation slot holding 0 must be omitted")
            _check(t.neg, frozenset(scope))


# ---------------------------------------------------------------------------
# SQL printing: the parser round trip reads a printed program back

def print_expr(e: Expr) -> str:
    if isinstance(e, ColRef):
        return f"{e.alias}.{e.attr}"
    if isinstance(e, Lit):
        return f"'{e.value}'" if e.ty == "string" else str(e.value)
    if isinstance(e, App):
        if len(e.args) == 2 and not e.name[0].isalpha():
            return f"({print_expr(e.args[0])} {e.name} {print_expr(e.args[1])})"
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, AggQuery):
        return f"{e.name}({print_query(e.query)})"
    raise TypeError(e)


def print_pred(p: Predicate) -> str:
    if isinstance(p, Cmp):
        return f"{print_expr(p.lhs)} {p.op} {print_expr(p.rhs)}"
    if isinstance(p, NotP):
        if isinstance(p.body, Exists):
            return f"NOT EXISTS ({print_query(p.body.query)})"
        return f"NOT ({print_pred(p.body)})"
    if isinstance(p, (AndP, OrP)):
        op = " AND " if isinstance(p, AndP) else " OR "
        return f"({op.join(print_pred(a) for a in p.args)})"
    if isinstance(p, BoolLit):
        return "TRUE" if p.value else "FALSE"
    if isinstance(p, Exists):
        return f"EXISTS ({print_query(p.query)})"
    raise TypeError(p)


def print_item(it: ProjItem) -> str:
    if isinstance(it, Star):
        return "*"
    if isinstance(it, AliasStar):
        return f"{it.alias}.*"
    if isinstance(it, ExprItem):
        return f"{print_expr(it.expr)} AS {it.name}"
    raise TypeError(it)


def print_query(q: Query) -> str:
    if isinstance(q, TableRef):
        return q.name
    if isinstance(q, Select):
        items = ", ".join(print_item(i) for i in q.items)

        def src(s: Source) -> str:
            if isinstance(s.query, TableRef):
                return s.query.name if s.query.name == s.alias else \
                    f"{s.query.name} {s.alias}"
            return f"({print_query(s.query)}) {s.alias}"

        srcs = ", ".join(src(s) for s in q.sources)
        out = f"SELECT {items} FROM {srcs}"
        if q.where is not None:
            out += f" WHERE {print_pred(q.where)}"
        if q.group_by:
            out += " GROUP BY " + ", ".join(print_expr(g) for g in q.group_by)
        return out
    if isinstance(q, UnionAll):
        return " UNION ALL ".join(f"({print_query(b)})" for b in q.branches)
    if isinstance(q, ExceptQ):
        return f"({print_query(q.lhs)}) EXCEPT ({print_query(q.rhs)})"
    if isinstance(q, Distinct):
        inner = q.query
        if isinstance(inner, Select):
            return "SELECT DISTINCT " + print_query(inner)[len("SELECT "):]
        return f"DISTINCT ({print_query(inner)})"
    raise TypeError(q)


def print_statement(s: Statement) -> str:
    if isinstance(s, SchemaStmt):
        parts = [f"{a}:{t}" for a, t in s.attrs] + (["??"] if s.generic else [])
        return f"schema {s.name}({', '.join(parts)});"
    if isinstance(s, TableStmt):
        return f"table {s.name}({s.schema_name});"
    if isinstance(s, KeyStmt):
        return f"key {s.table}({', '.join(s.attrs)});"
    if isinstance(s, FkStmt):
        return (f"foreign key {s.source}({', '.join(s.source_attrs)}) "
                f"references {s.target}({', '.join(s.target_attrs)});")
    if isinstance(s, ViewStmt):
        return f"view {s.name} {print_query(s.query)};"
    if isinstance(s, IndexStmt):
        return f"index {s.name} on {s.table}({', '.join(s.attrs)});"
    if isinstance(s, VerifyStmt):
        return f"verify ({print_query(s.lhs)}) ({print_query(s.rhs)});"
    raise TypeError(s)


def print_program(p: Program) -> str:
    return "\n".join(print_statement(s) for s in p.statements) + "\n"


# ---------------------------------------------------------------------------
# Structural comparison and rewriting of U-expressions

def alpha_equal(e1: Exp, e2: Exp,
                pairs: list[tuple[TupleVar, TupleVar]] | None = None) -> bool:
    """Structural equality up to bound-variable renaming.

    ``pairs`` aligns free variables of ``e1`` with those of ``e2`` (e.g. the
    two output variables); unpaired free variables must be identical.
    """
    # each pair becomes one shared free variable, of a negative vid that no
    # VarGen hands out
    m1: dict[TupleVar, TupleVar] = {}
    m2: dict[TupleVar, TupleVar] = {}
    for i, (a, b) in enumerate(pairs or []):
        m1[a] = TupleVar(-1 - i, a.schema, a.hint)
        m2[b] = TupleVar(-1 - i, b.schema, b.hint)
    return canon_key(substitute(e1, m1)) == canon_key(substitute(e2, m2))


def replace_scalar(e, old: Scalar, new: Scalar):
    """Replace every occurrence of the scalar term ``old`` by ``new``."""
    return rewrite(e, lambda n: new if n == old else None)


# ---------------------------------------------------------------------------
# Random conjunctive queries (ASTs)

def gen_cq(rng: random.Random, rels=("R", "S"), max_atoms=3, max_vars=3,
           out_names=("o1",), allow_const=True) -> Select:
    n_atoms = rng.randint(1, max_atoms)
    sources = []
    for i in range(min(n_atoms, max_vars)):
        sources.append(Source(TableRef(rng.choice(rels)), f"x{i}"))
    aliases = [s.alias for s in sources]
    attrs = ("a", "b")

    def rand_ref():
        return ColRef(rng.choice(aliases), rng.choice(attrs))

    preds = []
    for _ in range(rng.randint(0, 2)):
        lhs = rand_ref()
        if allow_const and rng.random() < 0.25:
            preds.append(Cmp("=", lhs, _lit(rng)))
        else:
            preds.append(Cmp("=", lhs, rand_ref()))
    items = tuple(ExprItem(rand_ref(), name) for name in out_names)
    return Select(items, tuple(sources), conjunction(preds))


def conjunction(ps: list):
    """ps as one WHERE clause, as the parser builds it: None, the lone
    conjunct, or one AndP."""
    return None if not ps else ps[0] if len(ps) == 1 else AndP(tuple(ps))


def _lit(rng):
    from semiq.sqlast import Lit
    return Lit(rng.randint(0, 2), "int")


def gen_ucq(rng: random.Random, rels=("R", "S"), branches=None,
            out_names=("o1",)):
    k = branches if branches is not None else rng.randint(1, 3)
    return union_all([gen_cq(rng, rels, out_names=out_names) for _ in range(k)])


def union_all(qs: list):
    """The union of qs as one node, as the parser builds it; one query alone."""
    return qs[0] if len(qs) == 1 else UnionAll(tuple(qs))


# ---------------------------------------------------------------------------
# Equivalence-preserving syntactic mutations

def shuffle_sources(rng: random.Random, q: Select) -> Select:
    src = list(q.sources)
    rng.shuffle(src)
    return Select(q.items, tuple(src), q.where, q.group_by, q.pos)


def rename_aliases(rng: random.Random, q: Select) -> Select:
    mapping = {s.alias: f"y{i}_{rng.randint(0, 9)}" for i, s in enumerate(q.sources)}
    return _renamed(q, mapping)


def _renamed(q: Select, mapping: dict[str, str]) -> Select:
    def rex(e):
        if isinstance(e, ColRef):
            return ColRef(mapping.get(e.alias, e.alias), e.attr)
        return e

    def rp(p):
        if isinstance(p, Cmp):
            return Cmp(p.op, rex(p.lhs), rex(p.rhs))
        if isinstance(p, AndP):
            return AndP(tuple(map(rp, p.args)))
        return p

    sources = tuple(Source(s.query, mapping[s.alias]) for s in q.sources)
    items = tuple(ExprItem(rex(it.expr), it.name) for it in q.items)
    where = rp(q.where) if q.where is not None else None
    return Select(items, sources, where)


def copy_body(q: Select) -> Select:
    """``q`` joined with a second copy of its FROM list and WHERE conjuncts
    under fresh aliases: under DISTINCT, the same rows."""
    c = _renamed(q, {s.alias: f"{s.alias}_c" for s in q.sources})
    where = q.where if c.where is None else AndP((q.where, c.where))
    return Select(q.items, q.sources + c.sources, where)


def narrow(rng: random.Random, q: Select) -> Select:
    """``q`` with one more conjunct or one more scan: contained in ``q``
    under DISTINCT, so a union with ``q`` has ``q``'s rows."""
    aliases = [s.alias for s in q.sources]
    if rng.random() < 0.5:
        extra = Cmp("=", ColRef(rng.choice(aliases), rng.choice("ab")),
                    rng.choice([_lit(rng), ColRef(rng.choice(aliases),
                                                  rng.choice("ab"))]))
        return Select(q.items, q.sources,
                      extra if q.where is None else AndP((q.where, extra)))
    scan = Source(TableRef(rng.choice(("R", "S"))), "extra")
    return Select(q.items, q.sources + (scan,), q.where)


def shuffle_conjuncts(rng: random.Random, q: Select) -> Select:
    if q.where is None:
        return q
    conj = _conjuncts(q.where)
    rng.shuffle(conj)
    return Select(q.items, q.sources, conjunction(conj), q.group_by, q.pos)


def _conjuncts(p) -> list:
    if isinstance(p, AndP):
        return [c for a in p.args for c in _conjuncts(a)]
    return [p]


def duplicate_conjunct(rng: random.Random, q: Select) -> Select:
    if q.where is None:
        return q
    conj = _conjuncts(q.where)
    where = AndP((q.where, rng.choice(conj)))
    return Select(q.items, q.sources, where, q.group_by, q.pos)


def swap_eq_sides(rng: random.Random, q: Select) -> Select:
    def rp(p):
        if isinstance(p, Cmp) and p.op == "=" and rng.random() < 0.5:
            return Cmp("=", p.rhs, p.lhs)
        if isinstance(p, AndP):
            return AndP(tuple(map(rp, p.args)))
        return p
    where = rp(q.where) if q.where is not None else None
    return Select(q.items, q.sources, where, q.group_by, q.pos)


def wrap_subquery(rng: random.Random, q) -> Select:
    return Select((Star(),), (Source(q, "z"),))


CQ_MUTATIONS = [shuffle_sources, rename_aliases, shuffle_conjuncts,
                duplicate_conjunct, swap_eq_sides]


def mutate_cq(rng: random.Random, q: Select, rounds=3):
    for _ in range(rounds):
        q = rng.choice(CQ_MUTATIONS)(rng, q)
    if rng.random() < 0.3:
        q = wrap_subquery(rng, q)
    return q


def mutate_ucq(rng: random.Random, q):
    branches = _branches(q)
    branches = [mutate_cq(rng, b) if isinstance(b, Select) else b
                for b in branches]
    rng.shuffle(branches)
    return union_all(branches)


def _branches(q) -> list:
    if isinstance(q, UnionAll):
        return [b for u in q.branches for b in _branches(u)]
    return [q]


# ---------------------------------------------------------------------------
# Reference containment checker for conjunctive queries under set semantics.
# Independent of the decision procedures: works on the query ASTs directly.

class _Tableau:
    def __init__(self, q: Select, env: SchemaEnv):
        assert isinstance(q, Select)
        self.atoms = [(s.query.name, s.alias) for s in q.sources]
        self.aliases = [s.alias for s in q.sources]
        self.parent: dict = {}
        self.head: dict[str, object] = {}
        for it in q.items:
            self.head[it.name] = self._term(it.expr)
        for p in _conjuncts(q.where) if q.where is not None else []:
            if isinstance(p, BoolLit):
                continue
            self._union(self._term(p.lhs), self._term(p.rhs))

    def _term(self, e):
        if isinstance(e, ColRef):
            return ("v", e.alias, e.attr)
        return ("c", e.value)

    def _find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            if repr(ra) > repr(rb):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def consistent(self) -> bool:
        # two distinct constants merged means the query is unsatisfiable
        reps: dict = {}
        for x in list(self.parent):
            if x[0] == "c":
                r = self._find(x)
                if r in reps and reps[r] != x:
                    return False
                reps[r] = x
        return True

    def same(self, a, b) -> bool:
        return self._find(a) == self._find(b)


def cq_contained(q1: Select, q2: Select, env: SchemaEnv) -> bool:
    """q1 subset-of q2 under set semantics, via homomorphism q2 -> q1."""
    t1, t2 = _Tableau(q1, env), _Tableau(q2, env)
    if not t1.consistent():
        return True  # empty query is contained in anything
    if not t2.consistent():
        return False if t1.consistent() else True
    if set(t1.head) != set(t2.head):
        return False
    a1 = t1.aliases

    def map_term(term, h):
        if term[0] == "c":
            return term
        return ("v", h[term[1]], term[2])

    for combo in itertools.product(a1, repeat=len(t2.aliases)):
        h = dict(zip(t2.aliases, combo))
        ok = True
        for rel, x in t2.atoms:
            if (rel, h[x]) not in t1.atoms:
                ok = False
                break
        if not ok:
            continue
        for (x, px) in list(t2.parent.items()):
            if not t1.same(map_term(x, h), map_term(t2._find(x), h)):
                ok = False
                break
        if not ok:
            continue
        for name, term in t2.head.items():
            if not t1.same(map_term(term, h), t1.head[name]):
                ok = False
                break
        if ok:
            return True
    return False


def cq_set_equivalent(q1: Select, q2: Select, env: SchemaEnv) -> bool:
    return cq_contained(q1, q2, env) and cq_contained(q2, q1, env)


def ucq_set_equivalent(q1, q2, env: SchemaEnv) -> bool:
    """Set equivalence of two unions of conjunctive queries, DISTINCT or
    not: each branch of either is contained in some branch of the other
    (Sagiv and Yannakakis).  ``SELECT *`` wrappers of one branch, as
    `wrap_subquery` writes them, are looked through."""
    b1, b2 = _cq_branches(q1), _cq_branches(q2)
    return (all(any(cq_contained(a, b, env) for b in b2) for a in b1)
            and all(any(cq_contained(b, a, env) for a in b1) for b in b2))


def _cq_branches(q) -> list[Select]:
    if isinstance(q, Distinct):
        q = q.query
    out = []
    for b in _branches(q):
        while b.items == (Star(),) and not isinstance(b.sources[0].query,
                                                      TableRef):
            b = b.sources[0].query
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# Oracle comparison helpers

def queries_agree(q1, q2, env: SchemaEnv, dbs) -> bool:
    return find_disagreement(q1, q2, env, dbs) is None


def find_disagreement(q1, q2, env: SchemaEnv, dbs):
    """The first database the two queries differ on; each is compiled once."""
    p1, p2 = compile_query(q1, env), compile_query(q2, env)
    for db in dbs:
        if interp_query(p1, db, env) != interp_query(p2, db, env):
            return db
    return None


def denote_pair(q1, q2, env: SchemaEnv):
    from semiq.exprs import substitute
    gen = VarGen()
    q1 = inline_views(desugar_groupby(q1), env)
    q2 = inline_views(desugar_groupby(q2), env)
    d1 = denote(q1, env, gen)
    d2 = denote(q2, env, gen)
    body2 = substitute(d2.body, {d2.out_var: d1.out_var})
    return gen, d1.out_var, d1.body, body2


# ---------------------------------------------------------------------------
# Random semiring expressions (closed except for one output variable)

def gen_uexp(rng: random.Random, env: SchemaEnv, out_var: TupleVar, depth=3):
    rels = sorted(env.tables)

    # all standard-env schemas share the attribute layout, so any in-scope
    # variable can feed any relation atom
    def build(scope: list[TupleVar], d: int):
        choices = ["rel", "pred", "one"]
        if d > 0:
            choices += ["add", "mul", "mul", "sum", "squash", "not"]
        kind = rng.choice(choices)
        if kind == "rel":
            name = rng.choice(rels)
            candidates = [v for v in scope if v.schema == env.tables[name]]
            if not candidates:
                return _ONE
            return Rel(name, rng.choice(candidates))
        if kind == "pred":
            refs = [AttrRef(rng.choice(scope), rng.choice(("a", "b")))
                    for _ in range(2)]
            if rng.random() < 0.3:
                refs[1] = Const(rng.randint(0, 2), "int")
            atom = mk_eq(*refs) if rng.random() < 0.8 else mk_neq(*refs)
            return Pred(atom)
        if kind == "one":
            return _ONE
        if kind == "add":
            return add(build(scope, d - 1), build(scope, d - 1))
        if kind == "mul":
            return Mul((build(scope, d - 1), build(scope, d - 1)))
        if kind == "squash":
            return Squash(build(scope, d - 1))
        if kind == "not":
            return Not(build(scope, d - 1))
        if kind == "sum":
            name = rng.choice(rels)
            v = TupleVar(rng.randrange(10_000, 1_000_000), env.tables[name], "u")
            return Sum((v,), Mul((build(scope + [v], d - 1), Rel(name, v))))
        raise AssertionError(kind)

    return build([out_var], depth)


from semiq.exprs import ONE as _ONE  # noqa: E402


def small_dbs(env: SchemaEnv, n: int, seed: int, sizes: GenSizes | None = None,
              constraints=(), extra_ints=()):
    return list(itertools.islice(
        gen_instances(env, list(constraints), sizes or GenSizes(2, 2, 2), seed,
                      extra_ints=extra_ints), n))


def enumerate_dbs(env: SchemaEnv, domain_size: int = 2, max_tuples: int = 2,
                  max_mult: int = 2, extra_ints=()):
    """Exhaustive enumeration of small databases (no constraint filtering)."""
    domains = {"int": tuple(sorted(set(range(domain_size)) | set(extra_ints))),
               "bool": (False, True), "string": tuple("ab"[:domain_size])}
    names = sorted(env.tables)
    per_rel: list[list[dict]] = []
    probe = FiniteDb(domains, {})
    for name in names:
        space = probe.tuple_space(env.tables[name])
        options: list[dict] = []
        for k in range(0, max_tuples + 1):
            for support in itertools.combinations(space, k):
                for mults in itertools.product(range(1, max_mult + 1), repeat=k):
                    options.append(dict(zip(support, mults)))
        per_rel.append(options)
    for combo in itertools.product(*per_rel):
        yield FiniteDb(domains, dict(zip(names, [dict(c) for c in combo])))


# ---------------------------------------------------------------------------
# Axiom instantiation library: each entry builds a random instance of one
# identity and checks it pointwise under natural-number evaluation.

def _scope_var(rng: random.Random, env: SchemaEnv, n: int) -> TupleVar:
    name = rng.choice(sorted(env.tables))
    return TupleVar(900_000 + n, env.tables[name], "w")


def gen_uexp_scope(rng: random.Random, env: SchemaEnv, scope, depth=2):
    if not scope:
        scope = [_scope_var(rng, env, rng.randrange(50))]
    return gen_uexp(rng, env, scope[0], depth) if len(scope) == 1 else \
        _gen_with_scope(rng, env, list(scope), depth)


def _gen_with_scope(rng, env, scope, depth):
    e = gen_uexp(rng, env, scope[0], depth)
    for v in scope[1:]:
        if rng.random() < 0.5:
            e = Mul((e, Pred(mk_eq(AttrRef(v, "a"), AttrRef(scope[0], "b")))))
    return e


def _rand_scalar(rng, scope):
    if rng.random() < 0.3:
        return Const(rng.randint(0, 1), "int")
    return AttrRef(rng.choice(scope), rng.choice(("a", "b")))


def _ev_eq(db, env_b, lhs, rhs) -> bool:
    return eval_exp(lhs, db, env_b) == eval_exp(rhs, db, env_b)


def _bind(db: FiniteDb, *vs: TupleVar) -> dict:
    env_b = {}
    for v in vs:
        space = db.tuple_space(v.schema)
        env_b[v.vid] = space[(v.vid * 7919) % len(space)]
    return env_b


def axiom_checks(env: SchemaEnv):
    """name -> check(rng, db) returning True/False (None = skip)."""
    from semiq.exprs import ONE, Pred as P, TupleCons, ZERO, mk_tuple_eq, mk_tuple_neq

    def ctx(rng, n_scope=2):
        vs = [_scope_var(rng, env, i) for i in range(n_scope)]
        return vs

    def fresh(rng):
        name = rng.choice(sorted(env.tables))
        return TupleVar(800_000 + rng.randrange(10_000), env.tables[name], "t")

    def c_squash_zero(rng, db):
        return _ev_eq(db, {}, Squash(ZERO), ZERO)

    def c_squash_one_plus(rng, db):
        vs = ctx(rng)
        x = gen_uexp_scope(rng, env, vs)
        return _ev_eq(db, _bind(db, *vs), Squash(Add((_ONE, x))), _ONE)

    def c_squash_lift_add(rng, db):
        vs = ctx(rng)
        x, y = gen_uexp_scope(rng, env, vs), gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Squash(Add((Squash(x), y))), Squash(Add((x, y))))

    def c_squash_mul(rng, db):
        vs = ctx(rng)
        x, y = gen_uexp_scope(rng, env, vs), gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Mul((Squash(x), Squash(y))), Squash(Mul((x, y))))

    def c_squash_square(rng, db):
        vs = ctx(rng)
        x = gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Mul((Squash(x), Squash(x))), Squash(x))

    def c_absorb_squash(rng, db):
        vs = ctx(rng)
        x = gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Mul((x, Squash(x))), x)

    def c_squash_of_idem(rng, db):
        vs = ctx(rng)
        x = gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        v = eval_exp(x, db, b)
        if v * v != v:
            return None  # premise fails at this point
        return _ev_eq(db, b, Squash(x), x)

    def c_not_zero(rng, db):
        return _ev_eq(db, {}, Not(ZERO), _ONE)

    def c_not_mul(rng, db):
        vs = ctx(rng)
        x, y = gen_uexp_scope(rng, env, vs), gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Not(Mul((x, y))), Squash(Add((Not(x), Not(y)))))

    def c_not_add(rng, db):
        vs = ctx(rng)
        x, y = gen_uexp_scope(rng, env, vs), gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Not(Add((x, y))), Mul((Not(x), Not(y))))

    def c_not_squash(rng, db):
        vs = ctx(rng)
        x = gen_uexp_scope(rng, env, vs)
        b = _bind(db, *vs)
        return (_ev_eq(db, b, Not(Squash(x)), Not(x)) and
                _ev_eq(db, b, Squash(Not(x)), Not(x)))

    def c_sum_add(rng, db):
        t = fresh(rng)
        f1 = gen_uexp(rng, env, t, 2)
        f2 = gen_uexp(rng, env, t, 2)
        return _ev_eq(db, {}, Sum((t,), Add((f1, f2))),
                      Add((sum_((t,), f1), sum_((t,), f2))))

    def c_sum_swap(rng, db):
        t1, t2 = fresh(rng), fresh(rng)
        f = Mul((gen_uexp(rng, env, t1, 1), gen_uexp(rng, env, t2, 1)))
        return _ev_eq(db, {}, Sum((t1, t2), f), Sum((t2, t1), f))

    def c_sum_hoist(rng, db):
        vs = ctx(rng, 1)
        t = fresh(rng)
        x = gen_uexp_scope(rng, env, vs)
        f = gen_uexp(rng, env, t, 2)
        b = _bind(db, *vs)
        return _ev_eq(db, b, Mul((x, sum_((t,), f))), Sum((t,), Mul((x, f))))

    def c_squash_sum(rng, db):
        t = fresh(rng)
        f = gen_uexp(rng, env, t, 2)
        return _ev_eq(db, {}, Squash(sum_((t,), f)), Squash(Sum((t,), Squash(f))))

    def c_pred_squash(rng, db):
        vs = ctx(rng)
        b = _bind(db, *vs)
        atom = mk_eq(_rand_scalar(rng, vs), _rand_scalar(rng, vs))
        return _ev_eq(db, b, P(atom), Squash(P(atom)))

    def c_excluded_middle(rng, db):
        vs = ctx(rng)
        b = _bind(db, *vs)
        l, r = _rand_scalar(rng, vs), _rand_scalar(rng, vs)
        scalar = Add((P(mk_eq(l, r)), P(mk_neq(l, r))))
        if not _ev_eq(db, b, scalar, _ONE):
            return False
        u = w = None
        u, w = vs[0], vs[-1]
        if u.schema != w.schema:
            return True
        tup = Add((P(mk_tuple_eq(u, w)), P(mk_tuple_neq(u, w))))
        return _ev_eq(db, b, tup, _ONE)

    def c_subst_eq(rng, db):
        vs = ctx(rng)
        b = _bind(db, *vs)
        e1 = AttrRef(vs[0], "a")
        e2 = _rand_scalar(rng, vs)
        f1 = gen_uexp_scope(rng, env, vs)
        f2 = replace_scalar(f1, e1, e2)
        eq = P(mk_eq(e1, e2))
        return _ev_eq(db, b, Mul((f1, eq)), Mul((f2, eq)))

    def c_sum_one(rng, db):
        t = fresh(rng)
        vs = ctx(rng, 1)
        cand = vs[0] if vs[0].schema == t.schema else None
        if cand is None:
            dom = db.tuple_space(t.schema)
            rec = TupleCons(tuple((a, Const(v, "int")) for a, v in dom[0]))
            b = {}
            e = rec
        else:
            b = _bind(db, cand)
            e = cand
        from semiq.exprs import mk_tuple_eq as teq
        return _ev_eq(db, b, Sum((t,), P(teq(t, e))), _ONE)

    def c_sum_elim(rng, db):
        t = fresh(rng)
        u = TupleVar(810_000 + rng.randrange(1000), t.schema, "u")
        b = _bind(db, u)
        f = gen_uexp(rng, env, t, 2)
        from semiq.exprs import mk_tuple_eq as teq, substitute
        lhs = Sum((t,), Mul((P(teq(t, u)), f)))
        rhs = substitute(f, {t: u})
        return _ev_eq(db, b, lhs, rhs)

    def c_semiring(rng, db):
        vs = ctx(rng)
        b = _bind(db, *vs)
        x, y, z = (gen_uexp_scope(rng, env, vs, 1) for _ in range(3))
        return (_ev_eq(db, b, Add((x, y)), Add((y, x))) and
                _ev_eq(db, b, Mul((x, y)), Mul((y, x))) and
                _ev_eq(db, b, Add((Add((x, y)), z)), Add((x, Add((y, z))))) and
                _ev_eq(db, b, Mul((Mul((x, y)), z)), Mul((x, Mul((y, z))))) and
                _ev_eq(db, b, Mul((x, Add((y, z)))), Add((Mul((x, y)), Mul((x, z))))) and
                _ev_eq(db, b, Add((x, ZERO)), x) and
                _ev_eq(db, b, Mul((x, _ONE)), x) and
                _ev_eq(db, b, Mul((x, ZERO)), ZERO))

    def c_squash_flatten(rng, db):
        vs = ctx(rng)
        b = _bind(db, *vs)
        a, x, y = (gen_uexp_scope(rng, env, vs, 1) for _ in range(3))
        return _ev_eq(db, b, Squash(Add((Mul((a, Squash(x))), y))),
                      Squash(Add((Mul((a, x)), y))))

    return {
        "squash-zero": c_squash_zero,
        "squash-one-plus": c_squash_one_plus,
        "squash-lift-add": c_squash_lift_add,
        "squash-mul": c_squash_mul,
        "squash-square": c_squash_square,
        "absorb-squash": c_absorb_squash,
        "squash-of-idem": c_squash_of_idem,
        "not-zero": c_not_zero,
        "not-mul": c_not_mul,
        "not-add": c_not_add,
        "not-squash": c_not_squash,
        "sum-add": c_sum_add,
        "sum-swap": c_sum_swap,
        "sum-hoist": c_sum_hoist,
        "squash-sum": c_squash_sum,
        "pred-squash": c_pred_squash,
        "excluded-middle": c_excluded_middle,
        "subst-eq": c_subst_eq,
        "sum-one": c_sum_one,
        "sum-elim-eq": c_sum_elim,
        "semiring": c_semiring,
        "squash-flatten": c_squash_flatten,
    }


# Identities the verifier treats as numbered core axioms: the seven squash
# laws, the four summation laws, and the predicate/equality laws.
CORE_AXIOM_NAMES = [
    "squash-zero", "squash-one-plus", "squash-lift-add", "squash-mul",
    "squash-square", "absorb-squash", "squash-of-idem",
    "sum-add", "sum-swap", "sum-hoist", "squash-sum",
    "pred-squash", "excluded-middle", "subst-eq", "sum-one",
]


def run_axiom_check(name: str, env: SchemaEnv, rounds: int, seed: int) -> tuple[int, int]:
    """Returns (checked, failed)."""
    rng = random.Random(seed)
    checks = axiom_checks(env)
    fn = checks[name]
    dbs = small_dbs(env, 8, seed + 1)
    checked = failed = 0
    i = 0
    while checked < rounds:
        db = dbs[i % len(dbs)]
        i += 1
        out = fn(rng, db)
        if out is None:
            continue
        checked += 1
        if not out:
            failed += 1
    return checked, failed


# ---------------------------------------------------------------------------
# Reference bijection search: the oracle of `Decider.match_terms`.

def reference_match_terms(d, t1, t2) -> bool:
    """Leaf-only backtracking over the bijections of summation variables
    that keep variable signatures, in the order the decider places them:
    right variables that some predicate mentions as its only summation
    variable first, then by (signature class size, id), left candidates in
    `t1.sum_vars` order.  Every leaf goes to `Decider._term_check` with
    the map in `t2.sum_vars` order, so the first bijection it accepts, and
    its BIJECTION trace line, are the ones the pruned search must find."""
    from semiq.congruence import closure_of

    if len(t1.sum_vars) != len(t2.sum_vars):
        return False
    if sorted(r for r, _ in t1.atoms) != sorted(r for r, _ in t2.atoms):
        return False

    def signatures(t):
        closure = closure_of(t.preds)
        return {v.vid: var_signature(t, v) + reference_unary(t, closure, v)
                for v in t.sum_vars}

    sig1, sig2 = signatures(t1), signatures(t2)
    cand = {v2.vid: [v1 for v1 in t1.sum_vars if sig1[v1.vid] == sig2[v2.vid]]
            for v2 in t2.sum_vars}
    alone = set()
    for p in t2.preds:
        summed = [v for v in t2.sum_vars if v in free_vars(p)]
        if len(summed) == 1:
            alone.add(summed[0].vid)
    order = sorted(t2.sum_vars,
                   key=lambda v: (v.vid not in alone, len(cand[v.vid]), v.vid))
    for images in itertools.product(*(cand[v.vid] for v in order)):
        image = {v.vid: w for v, w in zip(order, images)}
        if len({v.vid for v in images}) == len(images) and \
                d._term_check(t1, t2, [(v, image[v.vid]) for v in t2.sum_vars]):
            return True
    return False


def var_signature(t, v) -> tuple:
    """One summation variable's signature, the oracle of
    `decide._var_signatures`: its footprint, its relations, and whether the
    squash and the negation slot mention it, each found by its own scan."""
    from semiq.schema import footprint_key
    from semiq.spnf import nested_terms

    def mentions(e) -> bool:
        return e is not None and any(
            any(w.vid == v.vid for _, w in u.atoms)
            or any(v in free_vars(p) for p in u.preds)
            for u in nested_terms(e))

    return (footprint_key(v.schema), tuple(sorted(r for r, w in t.atoms if w.vid == v.vid)),
            mentions(t.squash), mentions(t.neg))


def reference_unary(t, closure, v) -> tuple:
    """`_EqualityLinks.unary` from grounded members keyed in every class of
    ``closure``: per attribute of ``v``, in name order, the sorted keys of
    the terms over free variables and constants in its class."""
    sum_ids = {w.vid for w in t.sum_vars}
    reps = {(w.vid, a): closure.scalar_rep(AttrRef(w, a))
            for w in t.sum_vars for a in w.schema.attr_names()}
    ground = {rep: tuple(sorted(canon_key(Pred(mk_eq(m, m))) for m in members
                                if not any(w.vid in sum_ids for w in free_vars(m))))
              for rep, members in closure.scalar_classes().items()}
    return tuple((a, ground[reps[v.vid, a]]) for a in sorted(v.schema.attr_names()))


# ---------------------------------------------------------------------------
# Reference term pairing: the oracle of `Decider._perm_search`.

def reference_pairing(d, c1, c2) -> list[int] | None:
    """The first permutation, in lexicographic order, that pairs each right
    term j with left term perm[j] of its `term_signature` that
    `d.match_terms` accepts, or None when no permutation does."""
    from semiq.decide import term_signature

    n = len(c1.terms)
    if n != len(c2.terms):
        return None
    ok = [[term_signature(t1) == term_signature(t2) and d.match_terms(t1, t2)
           for t1 in c1.terms] for t2 in c2.terms]
    return next((list(perm) for perm in itertools.permutations(range(n))
                 if all(ok[j][i] for j, i in enumerate(perm))), None)


# ---------------------------------------------------------------------------
# Reference predicate-list congruence: the oracle of `Decider._term_check`'s
# predicate test.

def congruent_preds(p1, p2) -> bool:
    """Both predicate lists generate the same closure, and every
    non-equality atom on each side has a congruent counterpart.  Each
    side's closure is built fresh and grown with the terms of both."""
    from semiq.congruence import closure_of, is_eq_atom
    from semiq.exprs import EqAtom, TupleEqAtom

    c1, c2 = closure_of(p1), closure_of(p2)
    for c in (c1, c2):
        for p in (*p1, *p2):
            c.add_atom_terms(p)
        c.close()
    for mine, other in ((p1, c2), (p2, c1)):
        for p in mine:
            if isinstance(p, EqAtom) and not other.scalar_eq(p.lhs, p.rhs):
                return False
            if isinstance(p, TupleEqAtom) and not other.tuple_eq(p.lhs, p.rhs):
                return False
    sigs1 = {c1.atom_signature(p) for p in p1 if not is_eq_atom(p)}
    sigs2 = {c1.atom_signature(p) for p in p2 if not is_eq_atom(p)}
    return sigs1 == sigs2


# ---------------------------------------------------------------------------
# Congruence-closure inputs: scalars over constants, attributes of three
# variables and unary or binary `f`/`g`, and tuples that are those variables
# or records of such scalars.

CLOSURE_VARS = tuple(TupleVar(i, Schema("s", (("a", "int"), ("b", "int"))))
                     for i in range(3))
closure_scalars = st.recursive(
    st.sampled_from([Const(0, "int"), Const(1, "int"), Const("a", "string")])
    | st.builds(AttrRef, st.sampled_from(CLOSURE_VARS), st.sampled_from("ab")),
    lambda inner: st.builds(lambda name, args: Func(name, tuple(args)),
                            st.sampled_from("fg"),
                            st.lists(inner, min_size=1, max_size=2)),
    max_leaves=3)
closure_tuples = st.sampled_from(CLOSURE_VARS) | st.builds(
    lambda a, b: mk_record({"a": a, "b": b}), closure_scalars, closure_scalars)
# every attribute of those variables; and tuples as above, records of one
# field or slices of the variables, so that record and slice projection and
# record injectivity all take part
CLOSURE_ATTRS = tuple(AttrRef(v, a) for v in CLOSURE_VARS for a in "ab")
_SLICE_PARTS = [Schema("p", (("a", "int"),)), Schema("q", (("b", "int"),)),
                Schema("s", (("a", "int"), ("b", "int")))]
closure_tuples_sliced = (
    closure_tuples
    | st.builds(lambda a: mk_record({"a": a}), closure_scalars)
    | st.builds(TupleSlice, st.sampled_from(CLOSURE_VARS),
                st.sampled_from(_SLICE_PARTS)))


class NaiveClosure(Closure):
    """The closure with the rescan fixpoint `Closure.close` once had: each
    round recomputes every node's signature and every class's records and
    slices, until a round merges nothing.  The oracle of the incremental
    `close`.  Injectivity pairs each record with the first record of its
    class that has the same field names."""

    def close(self) -> None:
        changed = True
        while changed:
            changed = False
            sigs: dict[tuple, int] = {}
            for nid in range(len(self.parent)):
                if not self.children[nid]:
                    continue
                sig = (self.kind[nid], self.payload[nid],
                       tuple(self.find(c) for c in self.children[nid]))
                prev = sigs.setdefault(sig, nid)
                changed |= prev != nid and self.union(prev, nid)
            records: dict[int, list[int]] = {}
            slices: dict[int, list[int]] = {}
            for nid in self.tuple_nodes:
                if self.kind[nid] == "record":
                    records.setdefault(self.find(nid), []).append(nid)
                elif self.kind[nid] == "slice":
                    slices.setdefault(self.find(nid), []).append(nid)
            # record projection: attr_a(x) == field when class(x) holds a record
            for anode in self.attr_nodes:
                attr = self.payload[anode]
                for rec in records.get(self.find(self.children[anode][0]), []):
                    names = self.payload[rec]
                    if attr in names:
                        changed |= self.union(
                            anode, self.children[rec][names.index(attr)])
            # slice projection: attr_a(x) == attr_a(t) when class(x) holds
            # t|P with a in P; t.a is interned if missing
            for anode in list(self.attr_nodes):
                attr = self.payload[anode]
                for sl in slices.get(self.find(self.children[anode][0]), []):
                    if attr in self.payload[sl][0]:
                        base = self.children[sl][0]
                        src = AttrRef(self.source[base], attr)
                        changed |= self.union(
                            anode, self._node("attr", attr, (base,), src))
            # record injectivity: equal records have equal fields
            for recs in records.values():
                first: dict = {}
                for rec in recs:
                    f = first.setdefault(self.payload[rec], rec)
                    for f0, f1 in zip(self.children[f], self.children[rec]):
                        changed |= self.union(f0, f1)


# ---------------------------------------------------------------------------
# Reference saturation: the oracle of `Canonizer.saturate`'s spanning chains.

def all_pairs_equalities(preds) -> list:
    """An equality atom for every pair of distinct members of every class of
    `closure_of(preds)`: the all-pairs form whose closure a saturated term's
    chains must generate."""
    from semiq.congruence import closure_of

    closure = closure_of(preds)
    out = []
    for classes, mk in ((closure.scalar_classes(), mk_eq),
                        (closure.tuple_classes(), mk_tuple_eq)):
        for members in classes.values():
            uniq = list(dict.fromkeys(members))
            out += [mk(x, y) for x, y in itertools.combinations(uniq, 2)]
    return out


# ---------------------------------------------------------------------------
# Programs that canonize at depth

def nested_projection_program(depth: int) -> str:
    """A filtered scan against the same scan threaded through `depth`
    derived tables, each renaming and reordering every column, with the
    filter halfway down."""
    cols = ("a", "b", "c")
    q = "SELECT x.a AS a, x.b AS b, x.c AS c FROM R x"
    names = dict(zip(cols, cols))
    for level in range(depth):
        fresh = {c: f"n{level}{c}" for c in cols}
        order = cols[level % 3:] + cols[:level % 3]
        items = ", ".join(f"t{level}.{names[c]} AS {fresh[c]}" for c in order)
        where = f" WHERE t{level}.{names['b']} = 2" if level == depth // 2 else ""
        q = f"SELECT {items} FROM ({q}) t{level}{where}"
        names = fresh
    top = ", ".join(f"u.{names[c]} AS {c}" for c in cols)
    return ("schema s3(a:int, b:int, c:int);\ntable R(s3);\n"
            "verify (SELECT x.a AS a, x.b AS b, x.c AS c FROM R x WHERE x.b = 2)\n"
            f"       (SELECT {top} FROM ({q}) u);\n")


def index_join_back_program(k: int) -> str:
    """A filtered scan of a keyed table against k index probes joined back
    on the key, one probe per filtered column."""
    cols = [f"c{i}" for i in range(k)]
    decl = (f"schema sr(id:int, {', '.join(f'{c}:int' for c in cols)});\n"
            "table R(sr);\nkey R(id);\n"
            + "".join(f"index I{i} on R(id, {c});\n" for i, c in enumerate(cols)))
    filters = [(c, ("=", ">=", "<", "<>")[i % 4], 3 * i + 1)
               for i, c in enumerate(cols)]
    lhs = "SELECT * FROM R t WHERE " + " AND ".join(
        f"t.{c} {op} {v}" for c, op, v in filters)
    srcs = ", ".join([f"I{i} p{i}" for i in reversed(range(k))] + ["R b"])
    conds = " AND ".join([f"p{i}.id = b.id" for i in range(k)] + [
        f"p{i}.{c} {op} {v}" for i, (c, op, v) in enumerate(filters)])
    return decl + f"verify ({lhs})\n       (SELECT b.* FROM {srcs} WHERE {conds});\n"


def union_subquery_program(outer: str, n: int) -> str:
    """``outer``, a query over ``S y`` whose ``{u}`` is replaced by an
    n-branch UNION ALL of ``SELECT x.a AS a FROM R x``, against itself."""
    u = " UNION ALL ".join(["(SELECT x.a AS a FROM R x)"] * n)
    q = outer.format(u=u)
    return ("schema s(a:int, b:int);\ntable R(s);\ntable S(s);\n"
            f"verify ({q})\n       ({q});\n")
