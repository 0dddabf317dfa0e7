"""Schemas and the declaration environment.

A schema is an unordered bag of named, typed attributes.  Generic schemas
additionally carry opaque "remainder" tokens standing for an unknown tail of
attributes (declared with ``??``); two schemas are equal iff they declare the
same attribute set and the same remainder tokens.  Attribute order is kept
only for display.
"""

from __future__ import annotations

from .record import factory, record

BASE_TYPES = ("int", "bool", "string")
UNKNOWN = "?"  # the type of a computed column, or of one over a generic tail


class SemanticError(Exception):
    """Name resolution / typing error in declarations or queries."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.msg = msg
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(msg + where)


class Schema:
    """Attribute bag, possibly with generic remainder tokens."""

    __slots__ = ("name", "attrs", "rest", "_types", "_key")

    def __init__(self, name: str, attrs: tuple[tuple[str, str], ...],
                 rest: frozenset[str] = frozenset()):
        self.name = name
        self.attrs = tuple(attrs)
        self.rest = frozenset(rest)
        self._types = dict(self.attrs)
        if len(self._types) != len(self.attrs):
            raise SemanticError(f"duplicate attribute in schema {name}")
        self._key = (frozenset(self.attrs), self.rest)

    @property
    def generic(self) -> bool:
        return bool(self.rest)

    def attr_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.attrs)

    def has_attr(self, a: str) -> bool:
        return a in self._types

    def attr_type(self, a: str) -> str:
        return self._types[a]

    def concat(self, other: "Schema") -> "Schema":
        overlap = set(self._types) & set(other._types)
        if overlap:
            raise SemanticError(
                f"ambiguous attribute(s) {sorted(overlap)} when combining "
                f"{self.name or '<anon>'} and {other.name or '<anon>'}")
        return Schema(f"({self.name}*{other.name})",
                      self.attrs + other.attrs, self.rest | other.rest)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = [f"{a}:{t}" for a, t in self.attrs]
        parts += [f"??{r}" for r in sorted(self.rest)]
        return f"schema {self.name}({', '.join(parts)})"


def footprint_key(schema: Schema) -> tuple:
    """Hashable, totally ordered identity of a schema's attribute footprint."""
    return (tuple(sorted(schema.attr_names())), tuple(sorted(schema.rest)))


def unify_schemas(s1: Schema, s2: Schema, what: str) -> Schema:
    """The schema of two bags combined by ``what`` (UNION ALL, EXCEPT, a
    verify pair): the same attribute names and generic rest, each type
    unified through ``?``."""
    if set(s1.attr_names()) != set(s2.attr_names()) or s1.rest != s2.rest:
        raise SemanticError(f"schemas differ in {what} "
                            f"({sorted(s1.attr_names())} vs {sorted(s2.attr_names())})")
    attrs = []
    for a, t in s1.attrs:
        u = s2.attr_type(a)
        if t != u and UNKNOWN not in (t, u):
            raise SemanticError(f"attribute {a} has conflicting types in {what}")
        attrs.append((a, u if t == UNKNOWN else t))
    return Schema(s1.name, tuple(attrs), s1.rest)


@record(hash=True)
class KeyConstraint:
    relation: str
    attrs: tuple[str, ...]


@record(hash=True)
class FkConstraint:
    source: str
    source_attrs: tuple[str, ...]
    target: str
    target_attrs: tuple[str, ...]


@record
class SchemaEnv:
    """Declared schemas, tables, constraints, and view/index definitions."""

    schemas: dict[str, Schema] = factory(dict)
    tables: dict[str, Schema] = factory(dict)
    keys: list[KeyConstraint] = factory(list)
    fks: list[FkConstraint] = factory(list)
    views: dict[str, object] = factory(dict)  # name -> QueryAst

    def declare_schema(self, s: Schema) -> None:
        if s.name in self.schemas:
            raise SemanticError(f"schema {s.name} already declared")
        self.schemas[s.name] = s

    def declare_table(self, name: str, schema_name: str) -> None:
        if schema_name not in self.schemas:
            raise SemanticError(f"table {name} references undeclared schema {schema_name}")
        if name in self.tables or name in self.views:
            raise SemanticError(f"table {name} already declared")
        self.tables[name] = self.schemas[schema_name]

    def declare_view(self, name: str, query) -> None:
        if name in self.tables or name in self.views:
            raise SemanticError(f"view {name} already declared")
        self.views[name] = query

    def table_schema(self, name: str) -> Schema:
        if name not in self.tables:
            raise SemanticError(f"undeclared table {name}")
        return self.tables[name]

    def add_key(self, k: KeyConstraint) -> None:
        sch = self.table_schema(k.relation)
        for a in k.attrs:
            if not sch.has_attr(a):
                raise SemanticError(f"key attribute {k.relation}.{a} not in schema")
        self.keys.append(k)

    def add_fk(self, fk: FkConstraint) -> None:
        src, tgt = self.table_schema(fk.source), self.table_schema(fk.target)
        for a in fk.source_attrs:
            if not src.has_attr(a):
                raise SemanticError(f"foreign key attribute {fk.source}.{a} not in schema")
        for a in fk.target_attrs:
            if not tgt.has_attr(a):
                raise SemanticError(f"foreign key attribute {fk.target}.{a} not in schema")
        if len(fk.source_attrs) != len(fk.target_attrs):
            raise SemanticError("foreign key attribute lists differ in length")
        if not any(c.relation == fk.target and set(c.attrs) == set(fk.target_attrs)
                   for c in self.keys):
            raise SemanticError(
                f"foreign key target {fk.target}({', '.join(fk.target_attrs)}) is not a declared key")
        self.fks.append(fk)

    def keys_of(self, relation: str) -> list[KeyConstraint]:
        return [k for k in self.keys if k.relation == relation]

    def constraints(self) -> list:
        return list(self.keys) + list(self.fks)
