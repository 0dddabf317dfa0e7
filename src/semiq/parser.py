"""Parser for the declaration/query input format.

Statements end with ``;``; ``--`` starts a comment running to end of line.
Keywords are case-insensitive, identifiers case-sensitive.  The parser keeps
a running symbol table of declared relations so that bare relation
references and aggregate-over-query calls parse without lookahead hacks.

Tokens are ``(kind, value, line, col)`` tuples padded with EOF, so that a
lookahead is an index.  Predicates and expressions are parsed by precedence
climbing, one loop per binary level, left-associative.  Queries are parsed
over an explicit stack of open queries (parenthesised queries, derived
tables, ``DISTINCT`` and set-operation operands), so their depth costs no
Python frames.  The other nesting (parentheses and calls, ``NOT``,
``EXISTS``, aggregate subqueries) recurses, at most four frames a level,
under one limit of ``MAX_NESTING`` levels, past which it is a ParseError.
"""

from __future__ import annotations

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

# levels of parentheses, calls, NOT, EXISTS and aggregate subqueries
MAX_NESTING = 200

_CMP_OPS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_TWO_CHAR = {"<>": ("OP", "<>"), "<=": ("OP", "<="), ">=": ("OP", ">="),
             "!=": ("OP", "<>"), "??": ("PUNCT", "??")}
_ONE_CHAR = {**dict.fromkeys("=<>+-*/", "OP"), **dict.fromkeys("(),;.:?", "PUNCT")}


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.msg, self.line, self.col = msg, line, col
        super().__init__(f"{msg} at {line}:{col}")


class _TooDeep(ParseError):
    """The nesting limit: no alternative parse is tried past it."""


def tokenize(src: str) -> list[tuple]:
    toks: list[tuple] = []
    append = toks.append
    line, bol, i = 1, 0, 0  # bol: index of the current line's first character
    n, eof_col = len(src), None  # eof_col: set when a comment ends the text
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            if ch == "\n":
                line, bol = line + 1, i
            continue
        col = i - bol + 1
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            upper = word.upper()
            append(("KW", upper, line, col) if upper in KEYWORDS
                   else ("IDENT", word, line, col))
        elif ch.isdecimal():
            j = i + 1
            while j < n and src[j].isdecimal():
                j += 1
            append(("INT", src[i:j], line, col))
        elif ch == "'":
            j = src.find("'", i + 1) + 1  # past the closing quote
            if j == 0 or src.find("\n", i + 1, j) >= 0:
                raise ParseError("unterminated string literal", line, col)
            append(("STRING", src[i + 1:j - 1], line, col))
        elif ch == "-" and src.startswith("--", i):
            j = src.find("\n", i)
            if j < 0:
                eof_col = col
                break
        elif src[i:i + 2] in _TWO_CHAR:
            append((*_TWO_CHAR[src[i:i + 2]], line, col))
            j = i + 2
        elif ch in _ONE_CHAR:
            append((_ONE_CHAR[ch], ch, line, col))
            j = i + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i = j
    eof = ("EOF", "", line, eof_col or n - bol + 1)
    toks += (eof, eof, eof)
    return toks


def _pos(t: tuple) -> Pos:
    return Pos(t[2], t[3])


# frames of `Parser.parse_query`'s stack of open queries
_QUERY, _PAREN, _DISTINCT, _SOURCE = range(4)


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0  # open levels of recursive nesting
        self.relations: set[str] = set()  # declared tables and views

    # -- token helpers -------------------------------------------------------

    def at_kw(self, word: str) -> bool:
        t = self.toks[self.i]
        return t[1] == word and t[0] == "KW"

    def eat_kw(self, word: str) -> tuple:
        t = self.toks[self.i]
        if t[1] != word or t[0] != "KW":
            raise ParseError(f"expected {word}", t[2], t[3])
        self.i += 1
        return t

    def at_punct(self, p: str) -> bool:
        t = self.toks[self.i]
        return t[1] == p and t[0] == "PUNCT"

    def eat_punct(self, p: str) -> tuple:
        t = self.toks[self.i]
        if t[1] != p or t[0] != "PUNCT":
            raise ParseError(f"expected {p!r}", t[2], t[3])
        self.i += 1
        return t

    def eat_ident(self, what: str = "identifier") -> tuple:
        t = self.toks[self.i]
        if t[0] != "IDENT":
            raise ParseError(f"expected {what}", t[2], t[3])
        self.i += 1
        return t

    def _enter(self, t: tuple) -> int:
        """Open a level of nesting at token ``t``; the depth before it."""
        if self.depth == MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING} levels", t[2], t[3])
        self.depth += 1
        return self.depth - 1

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while self.toks[self.i][0] != "EOF":
            prog.statements.append(self.parse_statement())
        return prog

    def parse_statement(self):
        t = self.toks[self.i]
        if t[0] != "KW":
            raise ParseError("expected a statement keyword", t[2], t[3])
        stmt = self._STATEMENTS.get(t[1])
        if stmt is None:
            raise ParseError(f"unexpected keyword {t[1]}", t[2], t[3])
        out = stmt(self)
        self.eat_punct(";")
        return out

    def parse_schema(self) -> SchemaStmt:
        pos = _pos(self.eat_kw("SCHEMA"))
        name = self.eat_ident("schema name")[1]
        self.eat_punct("(")
        attrs: list[tuple[str, str]] = []
        generic = False
        while True:
            if self.at_punct("??"):
                self.i += 1
                generic = True
            else:
                a = self.eat_ident("attribute name")
                self.eat_punct(":")
                ty = self.eat_ident("type")
                if ty[1] not in BASE_TYPES:
                    raise ParseError(f"unknown base type {ty[1]}", ty[2], ty[3])
                attrs.append((a[1], ty[1]))
            if not self.at_punct(","):
                break
            self.i += 1
        self.eat_punct(")")
        return SchemaStmt(name, tuple(attrs), generic, pos)

    def parse_table(self) -> TableStmt:
        pos = _pos(self.eat_kw("TABLE"))
        name = self.eat_ident("table name")[1]
        self.eat_punct("(")
        schema = self.eat_ident("schema name")[1]
        self.eat_punct(")")
        self.relations.add(name)
        return TableStmt(name, schema, pos)

    def _attr_list(self) -> tuple[str, ...]:
        self.eat_punct("(")
        attrs = [self.eat_ident("attribute")[1]]
        while self.at_punct(","):
            self.i += 1
            attrs.append(self.eat_ident("attribute")[1])
        self.eat_punct(")")
        return tuple(attrs)

    def parse_key(self) -> KeyStmt:
        pos = _pos(self.eat_kw("KEY"))
        table = self.eat_ident("table name")[1]
        return KeyStmt(table, self._attr_list(), pos)

    def parse_fk(self) -> FkStmt:
        pos = _pos(self.eat_kw("FOREIGN"))
        self.eat_kw("KEY")
        src = self.eat_ident("table name")[1]
        src_attrs = self._attr_list()
        self.eat_kw("REFERENCES")
        tgt = self.eat_ident("table name")[1]
        tgt_attrs = self._attr_list()
        return FkStmt(src, src_attrs, tgt, tgt_attrs, pos)

    def parse_view(self) -> ViewStmt:
        pos = _pos(self.eat_kw("VIEW"))
        name = self.eat_ident("view name")[1]
        q = self.parse_query()
        self.relations.add(name)
        return ViewStmt(name, q, pos)

    def parse_index(self) -> IndexStmt:
        pos = _pos(self.eat_kw("INDEX"))
        name = self.eat_ident("index name")[1]
        self.eat_kw("ON")
        table = self.eat_ident("table name")[1]
        attrs = self._attr_list()
        self.relations.add(name)
        return IndexStmt(name, table, attrs, pos)

    def parse_verify(self) -> VerifyStmt:
        pos = _pos(self.eat_kw("VERIFY"))
        q1 = self.parse_query()
        q2 = self.parse_query()
        return VerifyStmt(q1, q2, pos)

    _STATEMENTS = {"SCHEMA": parse_schema, "TABLE": parse_table, "KEY": parse_key,
                   "FOREIGN": parse_fk, "VIEW": parse_view, "INDEX": parse_index,
                   "VERIFY": parse_verify}

    # -- queries ----------------------------------------------------------------

    def parse_query(self):
        """query := primary (UNION ALL primary | EXCEPT primary)*.  Open
        queries are frames on ``stack``: ``[_QUERY, left, op]`` joins its
        next operand to ``left`` by ``op`` (None before the first), and
        ``[_PAREN]``, ``[_DISTINCT]`` and ``[_SOURCE, sel, tok]`` (a derived
        table of the SELECT ``sel``) wait for theirs."""
        toks = self.toks
        stack: list[list] = [[_QUERY, None, None]]
        while True:
            # descend to the next primary query
            t = toks[self.i]
            kind, value = t[0], t[1]
            if kind == "KW" and value == "SELECT":
                q = self._select(stack)
                if q is None:
                    continue
            elif kind == "KW" and value == "DISTINCT":
                self.i += 1
                stack.append([_DISTINCT])
                continue
            elif kind == "PUNCT" and value == "(":
                self.i += 1
                stack += ([_PAREN], [_QUERY, None, None])
                continue
            elif kind == "IDENT":
                if value not in self.relations:
                    raise ParseError(f"undeclared relation {value}", t[2], t[3])
                self.i += 1
                q = TableRef(value, _pos(t))
            else:
                raise ParseError("expected a query", t[2], t[3])
            # hand the finished primary up to the frame that takes it
            while True:
                frame = stack[-1]
                if frame[0] == _DISTINCT:
                    stack.pop()
                    q = Distinct(q)
                    continue
                left, op = frame[1], frame[2]
                if op is None:
                    left = q
                elif op == "UNION":
                    # + is associative: the operand joins the union on its left
                    left = UnionAll((left.branches if isinstance(left, UnionAll)
                                     else (left,)) + (q,))
                else:
                    left = ExceptQ(left, q)
                t = toks[self.i]
                if t[0] == "KW" and (t[1] == "UNION" or t[1] == "EXCEPT"):
                    self.i += 1
                    if t[1] == "UNION":
                        self.eat_kw("ALL")
                    frame[1], frame[2] = left, t[1]
                    break
                stack.pop()
                if not stack:
                    return left
                frame = stack.pop()
                self.eat_punct(")")
                if frame[0] == _PAREN:
                    q = left
                    continue
                sel, tok = frame[1], frame[2]
                sel[3].append(Source(left, self.eat_ident("source alias")[1], _pos(tok)))
                q = self._select(stack, sel)
                if q is None:
                    break

    def _select(self, stack: list[list], sel: list | None = None):
        """A SELECT; or, given ``sel`` (``[pos, distinct, items, sources]``),
        its rest after a derived table.  None when it opens another."""
        more = sel is None or self.at_punct(",")
        if sel is None:
            pos = _pos(self.eat_kw("SELECT"))
            distinct = self.at_kw("DISTINCT")
            if distinct:
                self.i += 1
            items = [self.parse_proj_item()]
            while self.at_punct(","):
                self.i += 1
                items.append(self.parse_proj_item())
            self.eat_kw("FROM")
            sel = [pos, distinct, items, []]
        elif more:
            self.i += 1
        while more:
            t = self.toks[self.i]
            if t[1] == "(" and t[0] == "PUNCT":
                self.i += 1
                stack += ([_SOURCE, sel, t], [_QUERY, None, None])
                return None
            name = self.eat_ident("relation name")
            if name[1] not in self.relations:
                raise ParseError(f"undeclared relation {name[1]}", name[2], name[3])
            alias = name[1]
            if self.toks[self.i][0] == "IDENT":
                alias = self.toks[self.i][1]
                self.i += 1
            sel[3].append(Source(TableRef(name[1], _pos(name)), alias, _pos(name)))
            more = self.at_punct(",")
            if more:
                self.i += 1
        where = group_by = None
        if self.at_kw("WHERE"):
            self.i += 1
            where = self.parse_pred()
        if self.at_kw("GROUP"):
            self.i += 1
            self.eat_kw("BY")
            cols = []
            while True:
                a = self.eat_ident("alias")
                self.eat_punct(".")
                cols.append(ColRef(a[1], self.eat_ident("attribute")[1], _pos(a)))
                if not self.at_punct(","):
                    break
                self.i += 1
            group_by = tuple(cols)
        pos, distinct, items, sources = sel
        q = Select(tuple(items), tuple(sources), where, group_by, pos)
        return Distinct(q) if distinct else q

    def parse_proj_item(self):
        toks, i = self.toks, self.i
        t = toks[i]
        if t[1] == "*" and t[0] == "OP":
            self.i += 1
            return Star(_pos(t))
        if (t[0] == "IDENT" and toks[i + 1][1] == "." and toks[i + 1][0] == "PUNCT"
                and toks[i + 2][1] == "*" and toks[i + 2][0] == "OP"):
            self.i += 3
            return AliasStar(t[1], _pos(t))
        e = self.parse_expr()
        if self.at_kw("AS"):
            self.i += 1
            return ExprItem(e, self.eat_ident("output attribute")[1], _pos(t))
        if isinstance(e, ColRef):
            return ExprItem(e, e.attr, _pos(t))
        raise ParseError("projection expression needs AS <name>", t[2], t[3])

    # -- predicates ----------------------------------------------------------------

    def parse_pred(self):
        """pred := conj (OR conj)*, conj := neg (AND neg)*, neg := NOT* atom."""
        toks = self.toks
        disj = []
        while True:
            conj = []
            while True:
                depth, t = self.depth, toks[self.i]
                while t[1] == "NOT" and t[0] == "KW":
                    self._enter(t)
                    self.i += 1
                    t = toks[self.i]
                nots = self.depth - depth
                kind, value = t[0], t[1]
                p = None
                if kind == "KW" and (value == "TRUE" or value == "FALSE"):
                    self.i += 1
                    p = BoolLit(value == "TRUE")
                elif kind == "KW" and value == "EXISTS":
                    self._enter(t)
                    self.i += 1
                    self.eat_punct("(")
                    p = Exists(self.parse_query())
                    self.eat_punct(")")
                elif kind == "PUNCT" and value == "(":
                    # a parenthesized predicate, or else an expression
                    save = self.i, self.depth
                    try:
                        self._enter(t)
                        self.i += 1
                        p = self.parse_pred()
                        self.eat_punct(")")
                        if toks[self.i][0] == "OP" and toks[self.i][1] in _CMP_OPS:
                            raise ParseError("expression context", t[2], t[3])
                    except _TooDeep:
                        raise
                    except ParseError:
                        p = None
                        self.i, self.depth = save
                if p is None:
                    lhs = self.parse_expr()
                    op = toks[self.i]
                    if op[0] != "OP" or op[1] not in _CMP_OPS:
                        raise ParseError("expected a comparison operator", op[2], op[3])
                    self.i += 1
                    p = Cmp(op[1], lhs, self.parse_expr(), _pos(t))
                for _ in range(nots):
                    p = NotP(p)
                self.depth = depth
                conj.append(p)
                if toks[self.i][1] != "AND" or toks[self.i][0] != "KW":
                    break
                self.i += 1
            disj.append(conj[0] if len(conj) == 1 else AndP(tuple(conj)))
            if toks[self.i][1] != "OR" or toks[self.i][0] != "KW":
                return disj[0] if len(disj) == 1 else OrP(tuple(disj))
            self.i += 1

    # -- scalar expressions -----------------------------------------------------------

    def parse_expr(self):
        """expr := term ((+|-) term)*, term := atom ((*|/) atom)*."""
        toks = self.toks
        total = add = None
        while True:
            term = mul = None
            while True:
                t = toks[self.i]
                kind = t[0]
                if kind == "INT" or kind == "STRING":
                    self.i += 1
                    e = Lit(int(t[1]) if kind == "INT" else t[1], kind.lower(), _pos(t))
                elif kind == "IDENT" and toks[self.i + 1][0] == "PUNCT" \
                        and toks[self.i + 1][1] == ".":
                    self.i += 2
                    e = ColRef(t[1], self.eat_ident("attribute")[1], _pos(t))
                elif kind == "IDENT" and toks[self.i + 1][0] == "PUNCT" \
                        and toks[self.i + 1][1] == "(":
                    # an aggregate over a query, or else a call
                    depth = self._enter(t)
                    self.i += 2
                    save = self.i
                    try:
                        q = self.parse_query()
                        self.eat_punct(")")
                    except _TooDeep:
                        raise
                    except ParseError:
                        q = None
                        self.i, self.depth = save, depth + 1
                    if q is not None:
                        e = AggQuery(t[1], q, _pos(t))
                    else:
                        args = [self.parse_expr()]
                        while self.at_punct(","):
                            self.i += 1
                            args.append(self.parse_expr())
                        self.eat_punct(")")
                        e = App(t[1], tuple(args), _pos(t))
                    self.depth = depth
                elif kind == "IDENT":
                    raise ParseError(f"bare identifier {t[1]}; attribute references "
                                     "must be alias-qualified", t[2], t[3])
                elif kind == "PUNCT" and t[1] == "(":
                    depth = self._enter(t)
                    self.i += 1
                    e = self.parse_expr()
                    self.eat_punct(")")
                    self.depth = depth
                else:
                    raise ParseError("expected an expression", t[2], t[3])
                term = e if mul is None else App(mul, (term, e))
                t = toks[self.i]
                if t[0] != "OP" or t[1] not in "*/":
                    break
                mul, self.i = t[1], self.i + 1
            total = term if add is None else App(add, (total, term))
            t = toks[self.i]
            if t[0] != "OP" or t[1] not in "+-":
                return total
            add, self.i = t[1], self.i + 1


def parse(source: str) -> Program:
    """Parse a program; raises ParseError with position on bad input."""
    return Parser(source).parse_program()
