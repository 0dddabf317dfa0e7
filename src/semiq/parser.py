"""Recursive-descent parser for the declaration/query input format.

Statements end with ``;``; ``--`` starts a comment running to end of line.
Keywords are case-insensitive, identifiers case-sensitive.  The parser keeps
a running symbol table of declared relations so that bare relation
references and aggregate-over-query calls parse without lookahead hacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sqlast import (
    AggQuery, AliasStar, AndP, App, BoolLit, Cmp, ColRef, Distinct, ExceptQ,
    Exists, ExprItem, FkStmt, IndexStmt, KeyStmt, Lit, NotP, OrP, Pos, Program,
    Select, SchemaStmt, Source, Star, TableRef, TableStmt, UnionAll, VerifyStmt,
    ViewStmt,
)
from .schema import BASE_TYPES

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT",
    "TRUE", "FALSE", "EXISTS", "DISTINCT", "UNION", "ALL", "EXCEPT",
    "SCHEMA", "TABLE", "KEY", "FOREIGN", "REFERENCES", "VIEW", "INDEX",
    "ON", "VERIFY",
}


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.msg, self.line, self.col = msg, line, col
        super().__init__(f"{msg} at {line}:{col}")


@dataclass
class Token:
    kind: str  # KW, IDENT, INT, STRING, OP, PUNCT, EOF
    value: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            kind = "KW" if word.upper() in KEYWORDS else "IDENT"
            toks.append(Token(kind, word.upper() if kind == "KW" else word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(Token("INT", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == "'":
            j = i + 1
            while j < n and src[j] != "'":
                if src[j] == "\n":
                    raise ParseError("unterminated string literal", line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, start_col)
            toks.append(Token("STRING", src[i + 1:j], line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        two = src[i:i + 2]
        if two in ("<>", "<=", ">=", "!="):
            toks.append(Token("OP", "<>" if two == "!=" else two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "=<>+-*/":
            toks.append(Token("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in "(),;.:?":
            if ch == "?" and src[i:i + 2] == "??":
                toks.append(Token("PUNCT", "??", line, start_col))
                i += 2
                col += 2
                continue
            toks.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("EOF", "", line, col))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        self.relations: set[str] = set()  # declared tables and views

    # -- token helpers -------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.value in words

    def eat_kw(self, word: str) -> Token:
        t = self.peek()
        if not (t.kind == "KW" and t.value == word):
            raise ParseError(f"expected {word}", t.line, t.col)
        return self.next()

    def at_punct(self, p: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == p

    def eat_punct(self, p: str) -> Token:
        t = self.peek()
        if not self.at_punct(p):
            raise ParseError(f"expected {p!r}", t.line, t.col)
        return self.next()

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.value in ops

    def eat_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected {what}", t.line, t.col)
        return self.next()

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while not self.peek().kind == "EOF":
            prog.statements.append(self.parse_statement())
        return prog

    def parse_statement(self):
        t = self.peek()
        if t.kind != "KW":
            raise ParseError("expected a statement keyword", t.line, t.col)
        stmt = {
            "SCHEMA": self.parse_schema,
            "TABLE": self.parse_table,
            "KEY": self.parse_key,
            "FOREIGN": self.parse_fk,
            "VIEW": self.parse_view,
            "INDEX": self.parse_index,
            "VERIFY": self.parse_verify,
        }.get(t.value)
        if stmt is None:
            raise ParseError(f"unexpected keyword {t.value}", t.line, t.col)
        out = stmt()
        self.eat_punct(";")
        return out

    def parse_schema(self) -> SchemaStmt:
        pos = self.eat_kw("SCHEMA").pos
        name = self.eat_ident("schema name").value
        self.eat_punct("(")
        attrs: list[tuple[str, str]] = []
        generic = False
        while True:
            if self.at_punct("??"):
                self.next()
                generic = True
            else:
                a = self.eat_ident("attribute name")
                self.eat_punct(":")
                ty = self.eat_ident("type")
                if ty.value not in BASE_TYPES:
                    raise ParseError(f"unknown base type {ty.value}", ty.line, ty.col)
                attrs.append((a.value, ty.value))
            if self.at_punct(","):
                self.next()
                continue
            break
        self.eat_punct(")")
        return SchemaStmt(name, tuple(attrs), generic, pos)

    def parse_table(self) -> TableStmt:
        pos = self.eat_kw("TABLE").pos
        name = self.eat_ident("table name").value
        self.eat_punct("(")
        schema = self.eat_ident("schema name").value
        self.eat_punct(")")
        self.relations.add(name)
        return TableStmt(name, schema, pos)

    def _attr_list(self) -> tuple[str, ...]:
        self.eat_punct("(")
        attrs = [self.eat_ident("attribute").value]
        while self.at_punct(","):
            self.next()
            attrs.append(self.eat_ident("attribute").value)
        self.eat_punct(")")
        return tuple(attrs)

    def parse_key(self) -> KeyStmt:
        pos = self.eat_kw("KEY").pos
        table = self.eat_ident("table name").value
        return KeyStmt(table, self._attr_list(), pos)

    def parse_fk(self) -> FkStmt:
        pos = self.eat_kw("FOREIGN").pos
        self.eat_kw("KEY")
        src = self.eat_ident("table name").value
        src_attrs = self._attr_list()
        self.eat_kw("REFERENCES")
        tgt = self.eat_ident("table name").value
        tgt_attrs = self._attr_list()
        return FkStmt(src, src_attrs, tgt, tgt_attrs, pos)

    def parse_view(self) -> ViewStmt:
        pos = self.eat_kw("VIEW").pos
        name = self.eat_ident("view name").value
        q = self.parse_query()
        self.relations.add(name)
        return ViewStmt(name, q, pos)

    def parse_index(self) -> IndexStmt:
        pos = self.eat_kw("INDEX").pos
        name = self.eat_ident("index name").value
        self.eat_kw("ON")
        table = self.eat_ident("table name").value
        attrs = self._attr_list()
        self.relations.add(name)
        return IndexStmt(name, table, attrs, pos)

    def parse_verify(self) -> VerifyStmt:
        pos = self.eat_kw("VERIFY").pos
        q1 = self.parse_query()
        q2 = self.parse_query()
        return VerifyStmt(q1, q2, pos)

    # -- queries ----------------------------------------------------------------

    def parse_query(self):
        q = self.parse_primary_query()
        while True:
            if self.at_kw("UNION"):
                self.next()
                self.eat_kw("ALL")
                # + is associative: the operand joins the union on its left
                left = q.branches if isinstance(q, UnionAll) else (q,)
                q = UnionAll(left + (self.parse_primary_query(),))
            elif self.at_kw("EXCEPT"):
                self.next()
                q = ExceptQ(q, self.parse_primary_query())
            else:
                return q

    def parse_primary_query(self):
        t = self.peek()
        if t.kind == "KW" and t.value == "SELECT":
            return self.parse_select()
        if t.kind == "KW" and t.value == "DISTINCT":
            self.next()
            return Distinct(self.parse_primary_query())
        if self.at_punct("("):
            self.next()
            q = self.parse_query()
            self.eat_punct(")")
            return q
        if t.kind == "IDENT":
            if t.value not in self.relations:
                raise ParseError(f"undeclared relation {t.value}", t.line, t.col)
            self.next()
            return TableRef(t.value, t.pos)
        raise ParseError("expected a query", t.line, t.col)

    def parse_select(self) -> Select:
        pos = self.eat_kw("SELECT").pos
        distinct = False
        if self.at_kw("DISTINCT"):
            self.next()
            distinct = True
        items = [self.parse_proj_item()]
        while self.at_punct(","):
            self.next()
            items.append(self.parse_proj_item())
        self.eat_kw("FROM")
        sources = [self.parse_source()]
        while self.at_punct(","):
            self.next()
            sources.append(self.parse_source())
        where = None
        if self.at_kw("WHERE"):
            self.next()
            where = self.parse_pred()
        group_by = None
        if self.at_kw("GROUP"):
            self.next()
            self.eat_kw("BY")
            cols = [self.parse_colref()]
            while self.at_punct(","):
                self.next()
                cols.append(self.parse_colref())
            group_by = tuple(cols)
        sel = Select(tuple(items), tuple(sources), where, group_by, pos)
        return Distinct(sel) if distinct else sel

    def parse_colref(self) -> ColRef:
        a = self.eat_ident("alias")
        self.eat_punct(".")
        b = self.eat_ident("attribute")
        return ColRef(a.value, b.value, a.pos)

    def parse_proj_item(self):
        t = self.peek()
        if self.at_op("*"):
            self.next()
            return Star(t.pos)
        if (t.kind == "IDENT" and self.peek(1).kind == "PUNCT"
                and self.peek(1).value == "." and self.peek(2).kind == "OP"
                and self.peek(2).value == "*"):
            self.next()
            self.next()
            self.next()
            return AliasStar(t.value, t.pos)
        e = self.parse_expr()
        if self.at_kw("AS"):
            self.next()
            name = self.eat_ident("output attribute").value
            return ExprItem(e, name, t.pos)
        if isinstance(e, ColRef):
            return ExprItem(e, e.attr, t.pos)
        raise ParseError("projection expression needs AS <name>", t.line, t.col)

    def parse_source(self) -> Source:
        t = self.peek()
        if self.at_punct("("):
            self.next()
            q = self.parse_query()
            self.eat_punct(")")
            alias = self.eat_ident("source alias").value
            return Source(q, alias, t.pos)
        name = self.eat_ident("relation name")
        if name.value not in self.relations:
            raise ParseError(f"undeclared relation {name.value}", name.line, name.col)
        if self.peek().kind == "IDENT":
            alias = self.next().value
        else:
            alias = name.value
        return Source(TableRef(name.value, name.pos), alias, name.pos)

    # -- predicates ----------------------------------------------------------------

    def parse_pred(self):
        p = self.parse_and()
        while self.at_kw("OR"):
            self.next()
            p = OrP(p, self.parse_and())
        return p

    def parse_and(self):
        p = self.parse_not()
        while self.at_kw("AND"):
            self.next()
            p = AndP(p, self.parse_not())
        return p

    def parse_not(self):
        if self.at_kw("NOT"):
            self.next()
            return NotP(self.parse_not())
        return self.parse_pred_atom()

    def parse_pred_atom(self):
        t = self.peek()
        if self.at_kw("TRUE"):
            self.next()
            return BoolLit(True)
        if self.at_kw("FALSE"):
            self.next()
            return BoolLit(False)
        if self.at_kw("EXISTS"):
            self.next()
            self.eat_punct("(")
            q = self.parse_query()
            self.eat_punct(")")
            return Exists(q)
        if self.at_punct("("):
            # could be a parenthesized predicate or a parenthesized expression
            save = self.i
            try:
                self.next()
                p = self.parse_pred()
                self.eat_punct(")")
                if self.at_op("=", "<>", "<", "<=", ">", ">="):
                    raise ParseError("expression context", t.line, t.col)
                return p
            except ParseError:
                self.i = save
        lhs = self.parse_expr()
        op = self.peek()
        if not self.at_op("=", "<>", "<", "<=", ">", ">="):
            raise ParseError("expected a comparison operator", op.line, op.col)
        self.next()
        rhs = self.parse_expr()
        return Cmp(op.value, lhs, rhs, t.pos)

    # -- scalar expressions -----------------------------------------------------------

    def parse_expr(self):
        e = self.parse_mul()
        while self.at_op("+", "-"):
            op = self.next().value
            e = App(op, (e, self.parse_mul()))
        return e

    def parse_mul(self):
        e = self.parse_atom_expr()
        while self.at_op("*", "/"):
            op = self.next().value
            e = App(op, (e, self.parse_atom_expr()))
        return e

    def parse_atom_expr(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Lit(int(t.value), "int", t.pos)
        if t.kind == "STRING":
            self.next()
            return Lit(t.value, "string", t.pos)
        if self.at_punct("("):
            self.next()
            e = self.parse_expr()
            self.eat_punct(")")
            return e
        if t.kind == "IDENT":
            if (self.peek(1).kind == "PUNCT" and self.peek(1).value == "."):
                self.next()
                self.next()
                attr = self.eat_ident("attribute")
                return ColRef(t.value, attr.value, t.pos)
            if self.peek(1).kind == "PUNCT" and self.peek(1).value == "(":
                name = self.next().value
                self.eat_punct("(")
                save = self.i
                try:
                    q = self.parse_query()
                    self.eat_punct(")")
                    return AggQuery(name, q, t.pos)
                except ParseError:
                    self.i = save
                args = [self.parse_expr()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.parse_expr())
                self.eat_punct(")")
                return App(name, tuple(args), t.pos)
            raise ParseError(f"bare identifier {t.value}; attribute references "
                             "must be alias-qualified", t.line, t.col)
        raise ParseError("expected an expression", t.line, t.col)


def parse(source: str) -> Program:
    """Parse a program; raises ParseError with position on bad input."""
    return Parser(source).parse_program()
