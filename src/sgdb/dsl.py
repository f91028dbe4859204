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
(spaces, quotes, keywords used as names) must be quoted.  A string is quoted
with either ``"`` or ``'``.  Inside it a backslash escapes any character, the
other quote needs no escape, and ``\\n`` and ``\\t`` mean line feed and tab; a
raw line feed inside a string is an error.  ``#`` starts a comment running to
the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from sgdb.errors import LexError, ParseError
from sgdb.ops import STAR, Condition

KEYWORDS = frozenset(
    "select project rename ijoin ljoin rjoin ojoin cross njoin on as "
    "create table pk fields drop insert delete key show tables".split()
)

JOIN_KINDS = {"ijoin": "inner", "ljoin": "left", "rjoin": "right", "ojoin": "outer",
              "cross": "cross", "njoin": "natural"}
_JOIN_WORDS = {kind: word for word, kind in JOIN_KINDS.items()}
_STEP_WORDS = ("select", "project", "rename", *JOIN_KINDS)

_WORD_RE = re.compile(r"[A-Za-z0-9_.]+")
_PUNCT = {
    "|": "PIPE",
    ",": "COMMA",
    "=": "EQUALS",
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ";": "SEMI",
    "*": "STAR",
    "->": "ARROW",
}
# Alternatives are tried in order.  SKIP spans line feeds; STRING may hold
# escaped ones; OTHER takes any character the others do not start with,
# such as a quote that opens no complete string.
_TOKEN_RE = re.compile(
    rf"(?P<WORD>{_WORD_RE.pattern})"
    r"|(?P<SKIP>\s+|#[^\n]*)"
    rf"|(?P<PUNCT>{'|'.join(map(re.escape, _PUNCT))})"
    r"""|(?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*"|'[^'\\\n]*(?:\\.[^'\\\n]*)*')"""
    r"|(?P<OTHER>.)",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}
_T = TypeVar("_T")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, in order; positions are 1-based line:col."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset just past the last line feed
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind != "SKIP":
            col = m.start() - line_start + 1
            if kind == "WORD":
                tokens.append(Token("KEYWORD" if word in KEYWORDS else "IDENT", word, line, col))
            elif kind == "PUNCT":
                tokens.append(Token(_PUNCT[word], word, line, col))
            elif kind == "STRING":
                body = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), word[1:-1])
                tokens.append(Token("STRING", body, line, col))
            elif word in "'\"":
                raise LexError("unterminated string", line, col)
            else:
                raise LexError(f"unexpected character {word!r}", line, col)
        if "\n" in word:
            line += word.count("\n")
            line_start = m.start() + word.rindex("\n") + 1
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
    """A step that combines each row with the rows of ``table``.

    ``kind`` is ``inner``, ``left``, ``right``, ``outer`` (``ijoin`` ...
    ``ojoin T on key``), ``cross`` (``cross T as key``) or ``natural``
    (``njoin T``).  ``key`` is the joining field, the field a cross nests
    each right row under, or None for a natural join.
    """

    kind: str
    table: str
    key: str | None = None


Step = SelectStep | ProjectStep | RenameStep | JoinStep


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
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        lines = text.split("\n")
        self.end_line, self.end_col = len(lines), len(lines[-1]) + 1

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

    def _at(self, *texts: str) -> bool:
        """Whether the next token is one of the keywords or punctuation marks ``texts``."""
        tok = self._peek()
        return tok is not None and tok.text in texts and tok.kind == _PUNCT.get(tok.text, "KEYWORD")

    def _take(self, text: str) -> Token:
        if not self._at(text):
            raise self._fail({text})
        return self._advance()

    def _name(self, *what: str) -> str:
        """A name or literal position: a bare identifier or any quoted string."""
        tok = self._peek()
        if tok is None or tok.kind not in ("IDENT", "STRING"):
            raise self._fail(set(what))
        return self._advance().text

    def _commas(self, item: Callable[[], _T]) -> list[_T]:
        """One or more ``item()`` results, separated by commas."""
        items = [item()]
        while self._at(","):
            self._advance()
            items.append(item())
        return items

    def parse_script(self) -> list[Statement]:
        statements = [self.parse_statement()]
        while self._peek() is not None:
            self._take(";")
            if self._peek() is None:
                break
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        if self._at("create"):
            return self._create()
        if self._at("drop"):
            return self._drop()
        if self._at("insert"):
            return self._insert()
        if self._at("delete"):
            return self._delete()
        if self._at("show"):
            self._advance()
            self._take("tables")
            return ShowTables()
        return self._query()

    def _query(self) -> Query:
        source = self._name("table name", "create", "drop", "insert", "delete", "show")
        steps: list[Step] = []
        while self._at("|"):
            self._advance()
            steps.append(self._step())
        return Query(source, tuple(steps))

    def _step(self) -> Step:
        if not self._at(*_STEP_WORDS):
            raise self._fail(set(_STEP_WORDS))
        word = self._advance().text
        if word == "select":
            fieldname = self._name("field name")
            self._take("=")
            return SelectStep(Condition(fieldname, self._name("literal")))
        if word == "project":
            if self._at("*"):
                self._advance()
                return ProjectStep(STAR)
            return ProjectStep(tuple(self._commas(lambda: self._name("column"))))
        if word == "rename":
            old = self._name("field name")
            self._take("->")
            return RenameStep(old, self._name("field name"))
        table = self._name("table name")
        if word == "njoin":
            return JoinStep("natural", table)
        if word == "cross":
            self._take("as")
            return JoinStep("cross", table, self._name("nesting field"))
        self._take("on")
        return JoinStep(JOIN_KINDS[word], table, self._name("joining field"))

    def _create(self) -> CreateTable:
        self._advance()
        self._take("table")
        name = self._name("table name")
        self._take("pk")
        pk = self._name("field name")
        self._take("fields")
        return CreateTable(name, pk, tuple(self._commas(lambda: self._name("field name"))))

    def _drop(self) -> DropTable:
        self._advance()
        self._take("table")
        return DropTable(self._name("table name"))

    def _insert(self) -> Insert:
        self._advance()
        table = self._name("table name")
        self._take("{")
        pairs = self._commas(self._pair)
        self._take("}")
        return Insert(table, tuple(pairs))

    def _pair(self) -> tuple[str, str]:
        fieldname = self._name("field name")
        self._take(":")
        return fieldname, self._name("literal")

    def _delete(self) -> Delete:
        self._advance()
        table = self._name("table name")
        self._take("key")
        return Delete(table, self._name("literal"))


def parse(text: str) -> Statement:
    """Parse a single statement (an optional trailing ``;`` is allowed)."""
    parser = _Parser(text)
    stmt = parser.parse_statement()
    if parser._at(";"):
        parser._advance()
    if parser._peek() is not None:
        raise parser._fail({"end of statement"})
    return stmt


def parse_script(text: str) -> list[Statement]:
    """Parse ``;``-separated statements; an empty script parses to []."""
    parser = _Parser(text)
    return parser.parse_script() if parser.tokens else []


# --- pretty printer --------------------------------------------------------


def _quote(name: str) -> str:
    if _WORD_RE.fullmatch(name) and name not in KEYWORDS:
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
        case JoinStep("natural", table):
            return f"njoin {_quote(table)}"
        case JoinStep(kind, table, key):
            joiner = "as" if kind == "cross" else "on"
            return f"{_JOIN_WORDS[kind]} {_quote(table)} {joiner} {_quote(key)}"
    raise TypeError(f"not a step: {step!r}")
