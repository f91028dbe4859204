"""Pipeline query language: lexer, AST, recursive-descent parser, printer.

A query is a table name followed by pipe-separated operator steps:

    books | ijoin catalog on catalog | select catalog.catalog = "001" | project title

Statements also cover table management and row changes:

    create table books pk ISBN fields ISBN, title, "first author";
    insert books { ISBN: 9780596159818, title: "Beautiful testing" };
    delete books key 9780596159818;
    drop table books;
    show tables;

Bare identifiers may contain letters, digits, ``_`` and ``.``; anything else
(spaces, quotes, keywords used as names) must be quoted.  ``#`` starts a
comment running to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from sgdb.errors import LexError, ParseError
from sgdb.ops import STAR, Condition

KEYWORDS = frozenset(
    "select project rename ijoin ljoin rjoin ojoin cross njoin on as "
    "create table pk fields drop insert delete key show tables".split()
)

JOIN_KINDS = {"ijoin": "inner", "ljoin": "left", "rjoin": "right", "ojoin": "outer"}

_IDENT_RE = re.compile(r"[A-Za-z0-9_.]+")
_PUNCT = {
    "|": "PIPE",
    ",": "COMMA",
    "=": "EQUALS",
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ";": "SEMI",
    "*": "STAR",
}
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Longest-match scan; positions are 1-based line:col."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and text[i : i + 2] == "->":
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "'\"":
            start_line, start_col = line, col
            quote = ch
            i += 1
            col += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise LexError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise LexError("unterminated string", start_line, start_col)
                    nxt = text[i + 1]
                    parts.append(_ESCAPES.get(nxt, nxt))
                    i += 2
                    col += 2
                    continue
                if c == quote:
                    i += 1
                    col += 1
                    break
                parts.append(c)
                i += 1
                col += 1
            tokens.append(Token("STRING", "".join(parts), start_line, start_col))
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, col))
            i = m.end()
            col += len(word)
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    return tokens


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class SelectStep:
    condition: Condition


@dataclass(frozen=True)
class ProjectStep:
    columns: tuple[str, ...] | str  # a column tuple, or the STAR sentinel


@dataclass(frozen=True)
class RenameStep:
    old: str
    new: str


@dataclass(frozen=True)
class JoinStep:
    kind: str  # inner | left | right | outer
    table: str
    key: str


@dataclass(frozen=True)
class CrossStep:
    table: str
    nest_field: str


@dataclass(frozen=True)
class NaturalJoinStep:
    table: str


Step = SelectStep | ProjectStep | RenameStep | JoinStep | CrossStep | NaturalJoinStep


@dataclass(frozen=True)
class Query:
    source: str
    steps: tuple[Step, ...] = ()


@dataclass(frozen=True)
class CreateTable:
    name: str
    primary_key: str
    fields: tuple[str, ...]


@dataclass(frozen=True)
class DropTable:
    name: str


@dataclass(frozen=True)
class Insert:
    table: str
    record: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Delete:
    table: str
    key: str


@dataclass(frozen=True)
class ShowTables:
    pass


Statement = Query | CreateTable | DropTable | Insert | Delete | ShowTables


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], end_line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line
        self.end_col = end_col

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected: set[str]) -> ParseError:
        tok = self._peek()
        what = f"unexpected {tok.kind} {tok.text!r}" if tok else "unexpected end of input"
        line = tok.line if tok else self.end_line
        col = tok.col if tok else self.end_col
        wanted = ", ".join(sorted(expected))
        return ParseError(f"{what}, expected {wanted}", line, col, frozenset(expected))

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _take(self, kind: str, text: str | None = None) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            glyphs = {v: k for k, v in _PUNCT.items()} | {"ARROW": "->"}
            raise self._fail({text if text is not None else glyphs.get(kind, kind.lower())})
        return self._advance()

    def _name(self, what: str = "identifier") -> str:
        """A name or literal position: a bare identifier or any quoted string."""
        tok = self._peek()
        if tok is None or tok.kind not in ("IDENT", "STRING"):
            raise self._fail({what})
        return self._advance().text

    def _names(self, what: str) -> list[str]:
        """One or more names, separated by commas."""
        names = [self._name(what)]
        while self._peek() is not None and self._peek().kind == "COMMA":
            self._advance()
            names.append(self._name(what))
        return names

    def _at_keyword(self, *words: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "KEYWORD" and tok.text in words

    def parse_script(self) -> list[Statement]:
        statements = [self.parse_statement()]
        while self._peek() is not None:
            self._take("SEMI")
            if self._peek() is None:
                break
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        if self._at_keyword("create"):
            return self._create()
        if self._at_keyword("drop"):
            return self._drop()
        if self._at_keyword("insert"):
            return self._insert()
        if self._at_keyword("delete"):
            return self._delete()
        if self._at_keyword("show"):
            self._advance()
            self._take("KEYWORD", "tables")
            return ShowTables()
        return self._query()

    def _query(self) -> Query:
        tok = self._peek()
        if tok is None or tok.kind not in ("IDENT", "STRING"):
            raise self._fail({"table name", "create", "drop", "insert", "delete", "show"})
        source = self._advance().text
        steps: list[Step] = []
        while self._peek() is not None and self._peek().kind == "PIPE":
            self._advance()
            steps.append(self._step())
        return Query(source, tuple(steps))

    def _step(self) -> Step:
        step_words = {"select", "project", "rename", "cross", "njoin"} | set(JOIN_KINDS)
        tok = self._peek()
        if tok is None or tok.kind != "KEYWORD" or tok.text not in step_words:
            raise self._fail(step_words)
        word = self._advance().text
        if word == "select":
            fieldname = self._name("field name")
            self._take("EQUALS", "=")
            return SelectStep(Condition(fieldname, self._name("literal")))
        if word == "project":
            if self._peek() is not None and self._peek().kind == "STAR":
                self._advance()
                return ProjectStep(STAR)
            return ProjectStep(tuple(self._names("column")))
        if word == "rename":
            old = self._name("field name")
            self._take("ARROW", "->")
            return RenameStep(old, self._name("field name"))
        if word in JOIN_KINDS:
            table = self._name("table name")
            self._take("KEYWORD", "on")
            return JoinStep(JOIN_KINDS[word], table, self._name("joining field"))
        if word == "cross":
            table = self._name("table name")
            self._take("KEYWORD", "as")
            return CrossStep(table, self._name("nesting field"))
        return NaturalJoinStep(self._name("table name"))

    def _create(self) -> CreateTable:
        self._advance()
        self._take("KEYWORD", "table")
        name = self._name("table name")
        self._take("KEYWORD", "pk")
        pk = self._name("field name")
        self._take("KEYWORD", "fields")
        return CreateTable(name, pk, tuple(self._names("field name")))

    def _drop(self) -> DropTable:
        self._advance()
        self._take("KEYWORD", "table")
        return DropTable(self._name("table name"))

    def _insert(self) -> Insert:
        self._advance()
        table = self._name("table name")
        self._take("LBRACE", "{")
        pairs: list[tuple[str, str]] = []
        while True:
            fieldname = self._name("field name")
            self._take("COLON", ":")
            pairs.append((fieldname, self._name("literal")))
            if self._peek() is not None and self._peek().kind == "COMMA":
                self._advance()
                continue
            break
        self._take("RBRACE", "}")
        return Insert(table, tuple(pairs))

    def _delete(self) -> Delete:
        self._advance()
        table = self._name("table name")
        self._take("KEYWORD", "key")
        return Delete(table, self._name("literal"))


def _end_position(text: str) -> tuple[int, int]:
    lines = text.split("\n")
    return len(lines), len(lines[-1]) + 1


def parse(text: str) -> Statement:
    """Parse a single statement (an optional trailing ``;`` is allowed)."""
    parser = _Parser(tokenize(text), *_end_position(text))
    stmt = parser.parse_statement()
    if parser._peek() is not None and parser._peek().kind == "SEMI":
        parser._advance()
    if parser._peek() is not None:
        raise parser._fail({"end of statement"})
    return stmt


def parse_script(text: str) -> list[Statement]:
    """Parse ``;``-separated statements; an empty script parses to []."""
    tokens = tokenize(text)
    if not tokens:
        return []
    return _Parser(tokens, *_end_position(text)).parse_script()


# --- pretty printer --------------------------------------------------------

_BARE_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


def _quote(name: str) -> str:
    if _BARE_RE.match(name) and name not in KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def render_statement(stmt: Statement) -> str:
    """Canonical text for a statement; parsing it back yields an equal AST."""
    match stmt:
        case Query(source, steps):
            parts = [_quote(source)]
            for step in steps:
                parts.append(_render_step(step))
            return " | ".join(parts)
        case CreateTable(name, pk, fields):
            cols = ", ".join(_quote(f) for f in fields)
            return f"create table {_quote(name)} pk {_quote(pk)} fields {cols}"
        case DropTable(name):
            return f"drop table {_quote(name)}"
        case Insert(table, record):
            body = ", ".join(f"{_quote(f)}: {_quote(v)}" for f, v in record)
            return f"insert {_quote(table)} {{ {body} }}"
        case Delete(table, key):
            return f"delete {_quote(table)} key {_quote(key)}"
        case ShowTables():
            return "show tables"
    raise TypeError(f"not a statement: {stmt!r}")


def _render_step(step: Step) -> str:
    match step:
        case SelectStep(cond):
            return f"select {_quote(cond.field)} = {_quote(cond.value)}"
        case ProjectStep(columns):
            if columns == STAR:
                return "project *"
            return "project " + ", ".join(_quote(c) for c in columns)
        case RenameStep(old, new):
            return f"rename {_quote(old)} -> {_quote(new)}"
        case JoinStep(kind, table, key):
            word = {v: k for k, v in JOIN_KINDS.items()}[kind]
            return f"{word} {_quote(table)} on {_quote(key)}"
        case CrossStep(table, nest_field):
            return f"cross {_quote(table)} as {_quote(nest_field)}"
        case NaturalJoinStep(table):
            return f"njoin {_quote(table)}"
    raise TypeError(f"not a step: {step!r}")
