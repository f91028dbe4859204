import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd

from sgdb.dsl import (
    KEYWORDS,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    JoinStep,
    ProjectStep,
    Query,
    RenameStep,
    SelectStep,
    ShowTables,
    parse,
    parse_script,
    render_statement,
    tokenize,
)
from sgdb.errors import LexError, ParseError, UnknownTableError
from sgdb.evaluator import Status, evaluate
from sgdb.model import relation_equal, relation_from_mapping
from sgdb.ops import STAR, Condition


# --- lexer ---------------------------------------------------------------


def test_tokenize_pipeline():
    kinds = [(t.kind, t.text) for t in tokenize("books | select publisher = \"O'Reilly\"")]
    assert kinds == [
        ("IDENT", "books"),
        ("PIPE", "|"),
        ("KEYWORD", "select"),
        ("IDENT", "publisher"),
        ("EQUALS", "="),
        ("STRING", "O'Reilly"),
    ]


def test_tokenize_quoted_name_with_space():
    kinds = [(t.kind, t.text) for t in tokenize('project title, "first author"')]
    assert kinds == [
        ("KEYWORD", "project"),
        ("IDENT", "title"),
        ("COMMA", ","),
        ("STRING", "first author"),
    ]


def test_tokenize_positions_are_one_based():
    tokens = tokenize("books |\n  select a = b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[2].line, tokens[2].col) == (2, 3)


def test_tokenize_unterminated_string_points_at_open_quote():
    with pytest.raises(LexError) as err:
        tokenize('select x = "unterminated')
    assert (err.value.line, err.value.col) == (1, 12)


def test_tokenize_escapes_and_comments():
    tokens = tokenize('insert t { a: "q\\"uote" } # trailing note')
    assert tokens[-1].kind == "RBRACE"
    assert tokens[5].text == 'q"uote'


def test_tokenize_rejects_stray_characters():
    with pytest.raises(LexError):
        tokenize("books ? select")


def test_tokenize_counts_an_escaped_line_feed_as_a_line_break():
    tokens = tokenize('"a\\\nb" c')
    assert tokens[0] == ("STRING", "a\nb", 1, 1)
    assert tokens[1] == ("IDENT", "c", 2, 4)
    with pytest.raises(LexError, match="unexpected character '\\?'") as err:
        tokenize('"a\\\nb" c ?')
    assert (err.value.line, err.value.col) == (2, 6)


@pytest.mark.parametrize("text", ['x = "ab\\', "x = 'ab\\"])
def test_tokenize_backslash_at_the_end_is_an_unterminated_string(text):
    with pytest.raises(LexError, match="unterminated string") as err:
        tokenize(text)
    assert (err.value.line, err.value.col) == (1, 5)


PUNCTUATION = {"|": "PIPE", ",": "COMMA", "=": "EQUALS", "{": "LBRACE", "}": "RBRACE",
               ":": "COLON", ";": "SEMI", "*": "STAR", "->": "ARROW"}
# (source text, decoded text) of each piece a string body is built from.
STRING_PIECES = [("a", "a"), (" ", " "), ("#", "#"), ("|", "|"), ("\\n", "\n"), ("\\t", "\t"),
                 ("\\\\", "\\"), ("\\\"", '"'), ("\\'", "'"), ("\\\n", "\n"), ("\\q", "q")]
SEPARATORS = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "# note\n", "#\n"]), min_size=1, max_size=3).map("".join)


@st.composite
def _lexeme(draw):
    """One token as (source text, kind, token text)."""
    choice = draw(st.integers(0, 3))
    if choice == 0:
        word = draw(st.text(alphabet=string.ascii_letters + string.digits + "_.", min_size=1, max_size=6))
        return word, "KEYWORD" if word in KEYWORDS else "IDENT", word
    if choice == 1:
        word = draw(st.sampled_from(sorted(KEYWORDS)))
        return word, "KEYWORD", word
    if choice == 2:
        glyph = draw(st.sampled_from(sorted(PUNCTUATION)))
        return glyph, PUNCTUATION[glyph], glyph
    quote, other = draw(st.sampled_from(["'\"", "\"'"]))
    pieces = draw(st.lists(st.sampled_from([*STRING_PIECES, (other, other)]), max_size=5))
    return quote + "".join(p[0] for p in pieces) + quote, "STRING", "".join(p[1] for p in pieces)


@settings(derandomize=True, database=None, max_examples=300)
@given(
    lexemes=st.lists(_lexeme(), max_size=8),
    separators=st.lists(SEPARATORS, min_size=9, max_size=9),
    lead=st.booleans(),
)
def test_tokenize_positions_come_from_offsets(lexemes, separators, lead):
    text = separators[0] if lead else ""
    expected = []
    for (source, kind, token_text), sep in zip(lexemes, separators[1:]):
        start = len(text)
        line = text.count("\n") + 1
        col = start - (text.rfind("\n") + 1) + 1
        expected.append((kind, token_text, line, col))
        text += source + sep
    assert [tuple(t) for t in tokenize(text)] == expected


# --- parser --------------------------------------------------------------


def test_parse_full_pipeline():
    stmt = parse(
        'books | ijoin catalog on catalog | select "catalog.catalog" = "001"'
        ' | project title, "catalog.description"'
    )
    assert stmt == Query(
        "books",
        (
            JoinStep("inner", "catalog", "catalog"),
            SelectStep(Condition("catalog.catalog", "001")),
            ProjectStep(("title", "catalog.description")),
        ),
    )


def test_parse_natural_join():
    assert parse("books | njoin catalog") == Query("books", (JoinStep("natural", "catalog"),))


def test_parse_bare_table_scan():
    assert parse("books") == Query("books", ())
    assert parse("books;") == Query("books", ())


def test_parse_project_star_and_rename():
    assert parse("books | project *") == Query("books", (ProjectStep(STAR),))
    assert parse("catalog | rename description -> category") == Query(
        "catalog", (RenameStep("description", "category"),)
    )


def test_parse_join_variants_and_cross():
    assert parse("b | ljoin c on k").steps == (JoinStep("left", "c", "k"),)
    assert parse("b | rjoin c on k").steps == (JoinStep("right", "c", "k"),)
    assert parse("b | ojoin c on k").steps == (JoinStep("outer", "c", "k"),)
    assert parse("b | cross c as k").steps == (JoinStep("cross", "c", "k"),)


def test_parse_dangling_pipe_is_an_error_with_expectations():
    with pytest.raises(ParseError) as err:
        parse("books |")
    assert err.value.expected  # non-empty expected set
    assert "select" in err.value.expected


def test_parse_statements():
    assert parse("create table books pk ISBN fields ISBN, title, \"first author\"") == CreateTable(
        "books", "ISBN", ("ISBN", "title", "first author")
    )
    assert parse("drop table books") == DropTable("books")
    assert parse("insert books { ISBN: 9780596159818, title: \"Beautiful testing\" }") == Insert(
        "books", (("ISBN", "9780596159818"), ("title", "Beautiful testing"))
    )
    assert parse("delete books key 9780596159818") == Delete("books", "9780596159818")
    assert parse("show tables") == ShowTables()


def test_parse_script_splits_on_semicolons():
    script = "show tables;\n# a comment\nbooks | project *;\n"
    statements = parse_script(script)
    assert statements == [ShowTables(), Query("books", (ProjectStep(STAR),))]
    assert parse_script("  \n# only a comment\n") == []


def test_parse_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("show tables books")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("books | rename description category")
    assert err.value.line == 1
    assert err.value.col == 28
    assert "->" in err.value.expected


_STEP_WORDS = {"select", "project", "rename", "ijoin", "ljoin", "rjoin", "ojoin", "cross", "njoin"}


@pytest.mark.parametrize(
    "text, message, col, expected",
    [
        ("b | ijoin", "unexpected end of input, expected table name", 10, {"table name"}),
        ("b | ljoin c", "unexpected end of input, expected on", 12, {"on"}),
        ("b | rjoin c as k", "unexpected KEYWORD 'as', expected on", 13, {"on"}),
        ("b | ojoin c on", "unexpected end of input, expected joining field", 15, {"joining field"}),
        ("b | cross c on k", "unexpected KEYWORD 'on', expected as", 13, {"as"}),
        ("b | cross c as", "unexpected end of input, expected nesting field", 15, {"nesting field"}),
        ("b | njoin", "unexpected end of input, expected table name", 10, {"table name"}),
        ("b | njoin c on k", "unexpected KEYWORD 'on', expected end of statement", 13, {"end of statement"}),
        # One trailing ";" ends the statement; a second is left over.
        ("t;;", "unexpected SEMI ';', expected end of statement", 3, {"end of statement"}),
        (
            "b | bogus",
            "unexpected IDENT 'bogus', expected cross, ijoin, ljoin, njoin, ojoin, project, rename, rjoin, select",
            5,
            _STEP_WORDS,
        ),
    ],
)
def test_parse_error_of_each_join_word(text, message, col, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line 1, col {col})"
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.expected == frozenset(expected)


# --- pretty printer -------------------------------------------------------


ROUND_TRIP_STATEMENTS = [
    "books",
    "books | project *",
    'books | select publisher = "O\'Reilly" | project title, "first author"',
    "books | ijoin catalog on catalog | select catalog.catalog = \"001\"",
    "b | ljoin c on k | rjoin d on k | ojoin e on k | cross f as k | njoin g",
    'catalog | rename description -> category',
    'create table books pk ISBN fields ISBN, title, "first author"',
    "drop table books",
    'insert books { ISBN: 9780596159818, title: "Beautiful testing", note: "with \\"quotes\\"" }',
    "delete books key 9780596159818",
    "show tables",
    'books | select note = ""',
    'books | select "weird name" = "va|ue;"',
]


@pytest.mark.parametrize("text", ROUND_TRIP_STATEMENTS)
def test_printer_round_trip(text):
    ast = parse(text)
    rendered = render_statement(ast)
    assert parse(rendered) == ast
    assert render_statement(parse(rendered)) == rendered


# Keywords, and text mixing characters that a bare name cannot hold, that a
# quoted one must escape, or that mean something to the lexer outside a string.
NAMES = st.sampled_from(sorted(KEYWORDS)) | st.text(alphabet="ab_.9é \"'\\|;#*\n\t\r", max_size=4)
NAME_LISTS = st.lists(NAMES, min_size=1, max_size=3).map(tuple)
KEYED_JOIN_KINDS = ("inner", "left", "right", "outer", "cross")
STEPS = st.one_of(
    st.builds(lambda f, v: SelectStep(Condition(f, v)), NAMES, NAMES),
    st.builds(ProjectStep, st.just(STAR) | NAME_LISTS),
    st.builds(RenameStep, NAMES, NAMES),
    st.builds(JoinStep, st.sampled_from(KEYED_JOIN_KINDS), NAMES, NAMES),
    st.builds(JoinStep, st.just("natural"), NAMES),
)
STATEMENTS = st.one_of(
    st.builds(Query, NAMES, st.lists(STEPS, max_size=4).map(tuple)),
    st.builds(CreateTable, NAMES, NAMES, NAME_LISTS),
    st.builds(Insert, NAMES, st.lists(st.tuples(NAMES, NAMES), min_size=1, max_size=3).map(tuple)),
    st.builds(Delete, NAMES, NAMES),
    st.builds(DropTable, NAMES),
    st.just(ShowTables()),
)


@settings(derandomize=True, database=None, max_examples=500)
@given(stmt=STATEMENTS)
def test_printed_statement_parses_back_to_itself(stmt):
    text = render_statement(stmt)
    assert parse(text) == stmt
    assert render_statement(parse(text)) == text


# --- evaluation ------------------------------------------------------------


def test_evaluate_pipeline_matches_direct_composition(db):
    stmt = parse(
        'books | ijoin catalog on catalog | select catalog.catalog = "001"'
        " | project title, catalog.description"
    )
    result = evaluate(stmt, db)
    assert result.rows == gd.PIPELINE_COMPUTING_TITLES


def test_evaluate_rename_pipeline(db):
    result = evaluate(parse("catalog | rename description -> category"), db)
    assert result.rows == gd.RENAME_CATEGORY


def test_evaluate_unknown_table(db):
    with pytest.raises(UnknownTableError):
        evaluate(parse('nosuch | select a = "b"'), db)


def test_evaluate_ddl_dml_cycle(tmp_path):
    from sgdb.storage import Database

    db = Database(tmp_path / "db")
    status = evaluate(parse("create table pets pk name fields name, kind"), db)
    assert isinstance(status, Status)
    status = evaluate(parse('insert pets { name: rex, kind: dog }'), db)
    assert status.message == "inserted 1 row into pets"
    assert evaluate(parse("pets"), db).rows == {"rex": {"name": "rex", "kind": "dog"}}
    assert evaluate(parse("delete pets key rex"), db).message == "deleted 1 row from pets"
    assert evaluate(parse("delete pets key rex"), db).message == "deleted 0 row from pets"
    listing = evaluate(parse("show tables"), db)
    assert listing.message == "pets"
    evaluate(parse("drop table pets"), db)
    assert evaluate(parse("show tables"), db).message == "(no tables)"


def test_dsl_results_match_api_for_goldens(db, books, catalog):
    from sgdb import ops

    cases = {
        "books | select publisher = \"O'Reilly\"": ops.select(
            books, Condition("publisher", "O'Reilly")
        ),
        "books | njoin catalog": ops.natural_join(books, catalog),
        "books | cross catalog as catalog": ops.cartesian(books, catalog, "catalog"),
        "books | project *": ops.project(books, STAR),
    }
    for text, expected in cases.items():
        assert relation_equal(evaluate(parse(text), db), expected), text
