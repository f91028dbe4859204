import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import load_fixture_db

import sgdb
from sgdb import dsl, evaluator, ops, storage
from sgdb.cli import main, run_repl
from sgdb.csvio import export_csv, import_csv
from sgdb.difftest import _pick_pipeline, differential_check, generate_database
from sgdb.dsl import JoinStep, ProjectStep, RenameStep
from sgdb.errors import DuplicateKeyError, MissingColumnError, SgdbError, UnknownTableError
from sgdb.model import Relation, Schema, relation_equal, relation_from_mapping
from sgdb.ops import Condition
from sgdb.render import RenderSpec, columns_of, render
from sgdb.storage import Database


@pytest.fixture
def dbdir(tmp_path):
    load_fixture_db(tmp_path / "db")
    return str(tmp_path / "db")


def run_python(args, stdin=b"", **env):
    """Run ``python args`` with this ``sgdb`` importable and ``env`` set; return the finished process."""
    path = os.pathsep.join(filter(None, [str(Path(sgdb.__file__).parent.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


# --- render ---------------------------------------------------------------


def test_render_table_catalog(catalog):
    text = render(catalog, RenderSpec())
    lines = text.splitlines()
    assert lines[0].split() == ["catalog", "description"]
    assert len(lines) == 2 + 3 + 1  # header, rule, three rows, row count
    assert lines[2].startswith("001")
    assert "computing" in lines[2]


def test_render_empty_relation_csv():
    rel = Relation(Schema("catalog", gd.CATALOG_FIELDS), {})
    assert render(rel, RenderSpec(format="csv")) == "catalog,description\n"


def test_render_csv_quotes_awkward_cells():
    rel = Relation(
        Schema("k", ("k", "v")),
        {"1": {"k": "1", "v": 'com,ma "q"'}},
    )
    assert render(rel, RenderSpec(format="csv")) == 'k,v\n1,"com,ma ""q"""\n'


def test_render_heterogeneous_rows_pads_missing_columns(books, catalog):
    from sgdb.ops import left_join

    extra = {
        "ISBN": "9780596159819",
        "title": "New book",
        "publisher": "Amani",
        "first author": "Valeriy",
        "catalog": "009",
    }
    bigger = relation_from_mapping({**books.rows, extra["ISBN"]: extra}, "ISBN", books.schema.fields)
    result = left_join(bigger, catalog, "catalog")
    # the scalar catalog field only exists on the unmatched row, so it sorts
    # in after the schema columns
    assert columns_of(result)[-1] == "catalog"
    lines = render(result, RenderSpec(format="csv")).splitlines()
    assert lines[0].endswith("catalog.catalog,catalog.description,catalog")
    matched = next(line for line in lines if line.startswith("9780596159818"))
    assert matched.endswith("001,computing,")
    unmatched = next(line for line in lines if line.startswith("9780596159819"))
    assert unmatched.endswith(",,009")


def test_render_null_text_in_table_and_null_in_json():
    rel = Relation(Schema("k", ("k", "v")), {"1": {"k": "1", "v": None}})
    assert "NULL" in render(rel, RenderSpec())
    assert json.loads(render(rel, RenderSpec(format="json"))) == {"k": "1", "v": None}


def test_render_table_escapes_line_breaks_in_cells():
    rel = Relation(
        Schema("k", ("k", "v")),
        {"1": {"k": "1", "v": "two\nlines"}, "2": {"k": "2", "v": "cr\r"}, "3": {"k": "3", "v": "x"}},
    )
    assert render(rel, RenderSpec()) == (
        "k  v\n"
        "-  ----------\n"
        "1  two\\nlines\n"
        "2  cr\\r\n"
        "3  x\n"
        "(3 rows)\n"
    )
    # A line break at the end of the last column is escaped too, not stripped with the padding.
    for end, shown in (("\n", "\\n"), ("\r", "\\r")):
        rel_end = Relation(Schema("k", ("k", "v")), {"1": {"k": "1", "v": "end" + end}})
        assert render(rel_end, RenderSpec()) == f"k  v\n-  -----\n1  end{shown}\n(1 row)\n"
    # CSV and JSON keep the characters themselves; CSV quotes a cell holding either.
    assert render(rel, RenderSpec(format="csv")) == 'k,v\n1,"two\nlines"\n2,"cr\r"\n3,x\n'
    assert render(rel, RenderSpec(format="json")) == (
        '{"k":"1","v":"two\\nlines"}\n{"k":"2","v":"cr\\r"}\n{"k":"3","v":"x"}\n'
    )


def test_render_sorts_rows_by_key(books):
    out = render(books, RenderSpec(format="csv"))
    keys = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert keys == sorted(gd.BOOKS)


def test_render_is_deterministic(books):
    for fmt in ("table", "csv", "json"):
        spec = RenderSpec(format=fmt)
        assert render(books, spec) == render(books, spec)


def _row_major_render(rel, fmt):
    """The table or CSV text of ``rel``, built one row at a time: the reference
    for ``render``, which builds its output one column at a time."""
    cols = list(rel.schema.fields)
    cols += sorted({f for row in rel.rows.values() for f in row if f not in cols})
    null = "" if fmt == "csv" else "NULL"
    grid = []
    for key in sorted(rel.rows):
        cells = []
        for c in cols:
            value = rel.rows[key].get(c, "")
            cells.append(null if value is None else value)
        grid.append(cells)
    if fmt == "csv":
        # A row holding "\r" is written with "\r\n" line ends, so that the csv
        # module quotes each cell holding "\r" as it quotes one holding "\n".
        out = io.StringIO()
        for cells in [cols, *grid]:
            end = "\r\n" if any("\r" in cell for cell in cells) else "\n"
            line = io.StringIO()
            csv.writer(line, lineterminator=end).writerow(cells)
            out.write(line.getvalue().removesuffix(end) + "\n")
        return out.getvalue()
    lines = [cols, *grid]
    if any("\n" in cell or "\r" in cell for cells in lines for cell in cells):
        lines = [[cell.replace("\n", "\\n").replace("\r", "\\r") for cell in cells] for cells in lines]
    widths = [0] * len(cols)
    for cells in lines:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    text = []
    for cells in lines:
        text.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip(" "))
    text.insert(1, "  ".join("-" * w for w in widths))
    text.append(f"({len(grid)} row{'' if len(grid) == 1 else 's'})")
    return "\n".join(text) + "\n"


# Names and cells with line breaks, commas, quotes, spaces and a wide letter.
RENDER_NAMES = st.text(alphabet="ab \n\r", min_size=1, max_size=3)
RENDER_CELLS = st.none() | st.text(alphabet='ab \n\r,"é', max_size=5)


@st.composite
def _render_relations(draw):
    fields = draw(st.lists(RENDER_NAMES, min_size=1, max_size=4, unique=True))
    # Row fields come from the schema and from extra names, so rows lack some
    # schema fields and carry others.
    names = list(dict.fromkeys(fields + draw(st.lists(RENDER_NAMES, max_size=3))))
    row = st.dictionaries(st.sampled_from(names), RENDER_CELLS)
    rows = draw(st.dictionaries(st.text(alphabet="0123", max_size=3), row, max_size=6))
    return Relation(Schema(fields[0], tuple(fields)), rows)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(rel=_render_relations())
@example(rel=Relation(Schema("k", ("k", "v")), {}))
@example(rel=Relation(Schema("k", ("k", "v")), {"2": {"k": "2", "v": None}, "1": {"k": "1", "v": None}}))
@example(rel=Relation(Schema("k", ("k",)), {"1": {"k": "1", "v": None, "w": None}}))
# ``project(rel, [])`` keeps every row and no field.
@example(rel=Relation(Schema("k", ()), {"1": {}, "2": {}}))
# A last-column cell ending in spaces loses them with the padding; one in a
# middle column keeps them.
@example(rel=Relation(Schema("k", ("k", "v", "w")), {
    "1": {"k": "1", "v": "a  ", "w": "b  "},
    "2": {"k": "2", "v": "ab", "w": " "},
}))
# An all-empty last column: every body line ends at the column before it.
@example(rel=Relation(Schema("k", ("k", "v")), {"1": {"k": "1", "v": ""}, "2": {"k": "22"}}))
# Headers wider than every cell, in the middle and at the end.
@example(rel=Relation(Schema("k", ("k", "middle", "last")), {"1": {"k": "1", "middle": "a", "last": "b"}}))
# A one-column table whose cells end in spaces, one of them empty: the lone
# column is the last, so it is not padded.
@example(rel=Relation(Schema("v", ("v",)), {"1": {"v": "a  "}, "2": {"v": ""}, "3": {"v": " "}, "4": {"v": "bb"}}))
# A last column wider than its header next to one narrower than its header.
@example(rel=Relation(Schema("k", ("k", "middle", "w")), {
    "1": {"k": "1", "middle": "a", "w": "a long cell"},
    "2": {"k": "2", "middle": "bb", "w": "c"},
}))
def test_render_equals_a_row_major_reference(rel):
    for fmt in ("table", "csv"):
        assert render(rel, RenderSpec(fmt)) == _row_major_render(rel, fmt), fmt


# --- CSV import/export ------------------------------------------------------


def write_books_csv(path):
    import csv as csvmod

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(gd.BOOKS_FIELDS)
        for key in gd.BOOKS:
            writer.writerow([gd.BOOKS[key][f] for f in gd.BOOKS_FIELDS])


def test_import_books_csv(tmp_path, books):
    csv_path = tmp_path / "books.csv"
    write_books_csv(csv_path)
    db = Database(tmp_path / "db")
    assert import_csv(db, "books", csv_path, pk="ISBN") == 5
    assert relation_equal(db.scan("books"), books)


def test_import_with_code_header(tmp_path):
    csv_path = tmp_path / "catalog.csv"
    csv_path.write_text("Code,Description\n001,computing\n002,academic skills\n003,biology\n")
    db = Database(tmp_path / "db")
    assert import_csv(db, "catalog", csv_path, pk="Code") == 3
    rel = db.scan("catalog")
    assert len(rel) == 3
    assert rel.rows["002"] == {"Code": "002", "Description": "academic skills"}


@pytest.mark.parametrize("header", ["id,name", "name,id"])
def test_import_ignores_a_utf8_byte_order_mark(tmp_path, header):
    csv_path = tmp_path / "bom.csv"
    csv_path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n1,a\n".encode())
    db = Database(tmp_path / "db")
    assert import_csv(db, "t", csv_path, pk="id") == 1
    assert db.scan("t").schema.fields == tuple(header.split(","))


def test_import_duplicate_pk(tmp_path):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("k,v\n1,a\n1,b\n")
    with pytest.raises(DuplicateKeyError):
        import_csv(Database(tmp_path / "db"), "t", csv_path, pk="k")


def test_import_missing_pk_column(tmp_path):
    csv_path = tmp_path / "nopk.csv"
    csv_path.write_text("a,b\n1,2\n")
    with pytest.raises(MissingColumnError):
        import_csv(Database(tmp_path / "db"), "t", csv_path, pk="k")


def test_import_failing_part_way_leaves_no_table(tmp_path, monkeypatch):
    csv_path = tmp_path / "books.csv"
    write_books_csv(csv_path)
    db = Database(tmp_path / "db")

    def failing_link(src, dst):
        assert db.list_tables() == []
        assert [p.name for p in db.root.iterdir()] == [src.name]
        raise OSError("disk full")

    monkeypatch.setattr(storage.os, "link", failing_link)
    with pytest.raises(OSError, match="disk full"):
        import_csv(db, "books", csv_path, pk="ISBN")
    assert db.list_tables() == []
    assert list(db.root.iterdir()) == []


def test_export_roundtrip(tmp_path, dbdir, books):
    db = Database(dbdir)
    out = tmp_path / "out.csv"
    assert export_csv(db, "books", out) == 5
    assert len(out.read_text().splitlines()) == 6
    assert import_csv(db, "books2", out, pk="ISBN") == 5
    assert relation_equal(db.scan("books2"), db.scan("books"))
    assert relation_equal(db.scan("books2"), books)


def test_export_then_import_keeps_carriage_returns(tmp_path):
    db = Database(tmp_path / "db")
    values = {"1": "cr\r", "2": "\r\nboth", "3": "a\rb", "4": "plain"}
    db.load("t", Schema("k", ("k", "v")), [{"k": k, "v": v} for k, v in values.items()])
    out = tmp_path / "t.csv"
    assert export_csv(db, "t", out) == 4
    assert out.read_bytes() == b'k,v\n1,"cr\r"\n2,"\r\nboth"\n3,"a\rb"\n4,plain\n'
    assert import_csv(db, "back", out, pk="k") == 4
    assert db.scan("back").rows == db.scan("t").rows


def test_export_writes_the_csv_that_exec_prints(tmp_path, capsys):
    db = Database(tmp_path / "db")
    db.load("t", Schema("k", ("k", "v")), [{"k": "1", "v": None}, {"k": "2", "v": "cr\r"}, {"k": "3", "v": ""}])
    out = tmp_path / "t.csv"
    assert main(["--db", str(db.root), "export", "t", str(out)]) == 0
    capsys.readouterr()
    assert main(["--db", str(db.root), "exec", "--format", "csv", "-e", "t"]) == 0
    printed = capsys.readouterr().out
    assert out.read_bytes() == printed.encode("utf-8") == b'k,v\n1,\n2,"cr\r"\n3,\n'


def test_export_empty_table(tmp_path):
    db = Database(tmp_path / "db")
    db.create("empty", Schema("k", ("k", "v"))).close()
    out = tmp_path / "empty.csv"
    assert export_csv(db, "empty", out) == 0
    assert out.read_text() == "k,v\n"


def test_export_unknown_table(tmp_path):
    with pytest.raises(UnknownTableError):
        export_csv(Database(tmp_path / "db"), "nope", tmp_path / "x.csv")


# --- CLI ---------------------------------------------------------------------


def test_exec_select_json(dbdir, capsys):
    code = main(["--db", dbdir, "exec", "-e", "books | select publisher = \"O'Reilly\"", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [gd.SELECT_OREILLY["9780596159818"], gd.SELECT_OREILLY["9780596516499"]]


def test_exec_primary_key_select(dbdir, capsys):
    query = "books | select ISBN = {} | project ISBN, title"
    assert main(["--db", dbdir, "exec", "-e", query.format("9780596159818"), "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"ISBN":"9780596159818","title":"Beautiful testing"}\n'
    assert main(["--db", dbdir, "exec", "-e", query.format("0000000000000")]) == 0
    assert capsys.readouterr().out == "ISBN  title\n----  -----\n(0 rows)\n"


def test_exec_cross_csv_has_sixteen_lines(dbdir, capsys):
    code = main(["--db", dbdir, "exec", "-e", "books | cross catalog as catalog", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 16


def test_exec_parse_error_exit_2(dbdir, capsys):
    assert main(["--db", dbdir, "exec", "-e", "bad ~ syntax"]) == 2
    assert "error" in capsys.readouterr().err


def test_exec_eval_error_exit_3(dbdir, capsys):
    assert main(["--db", dbdir, "exec", "-e", 'nosuch | select a = "b"']) == 3
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema",
    [
        {"primary_key": "id", "fields": ["id", 7]},
        {"primary_key": "i", "fields": "id"},
        {"primary_key": "k", "fields": ["id", "a"]},
        {"primary_key": "id", "fields": ["id", "id"]},
        {"primary_key": "id", "fields": ["id", "a.b"]},
        {"primary_key": "id", "fields": []},
    ],
    ids=["int field", "string fields", "key not a field", "duplicate field", "dotted field", "no fields"],
)
def test_exec_on_a_table_whose_schema_record_create_relation_refuses_exit_3(tmp_path, capsys, schema):
    payload = storage.CANONICAL_JSON.encode(schema).encode("utf-8")
    (tmp_path / "t.sgt").write_bytes(storage._HEADER + storage._encode(storage.OP_META, storage.META_KEY, payload))
    assert main(["--db", str(tmp_path), "exec", "-e", "t"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "unreadable schema record" in captured.err
    assert captured.err.count("\n") == 1


def test_exec_chained_join_collision_exit_3(dbdir, capsys):
    # The join turns books' catalog field into catalog.catalog and
    # catalog.description, so nesting catalog at catalog again collides.
    code = main(["--db", dbdir, "exec", "-e", "books | ijoin catalog on catalog | cross catalog as catalog"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: flattening produced key 'catalog.catalog' twice\n"


# Tables for the select-after-cross/ijoin cases: t's key "a_b" and u's keys
# "b_c" and "c" give the pair key "a_b_c" twice; s joins u and w on n; v has no g.
GUARD_TABLES = """
create table t pk k fields k; insert t { k: a }; insert t { k: a_b };
create table u pk k fields k, g; insert u { k: b_c, g: x }; insert u { k: c, g: y };
create table s pk k fields k, n; insert s { k: a, n: c }; insert s { k: b, n: b_c };
create table w pk wk fields wk, g; insert w { wk: c, g: x }; insert w { wk: b_c, g: y };
create table v pk k fields k, h; insert v { k: p, h: 1 };
"""


@pytest.fixture
def guard_db(tmp_path, capsys):
    root = str(tmp_path / "db")
    assert main(["--db", root, "exec", "-e", GUARD_TABLES]) == 0
    capsys.readouterr()
    return root


def exec_csv(root, capsys, query):
    code = main(["--db", root, "exec", "-e", query, "--format", "csv"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exec_cross_pair_key_collision_in_a_pair_the_select_drops_exit_3(guard_db, capsys):
    # (a_b, c) repeats the key of (a, b_c); u's row c fails the select.
    assert exec_csv(guard_db, capsys, "t | cross u as n | select n.g = x") == (
        3, "", "error: pair key 'a_b_c' produced twice\n"
    )


@pytest.mark.parametrize("query", [
    "s | cross u as n | cross u as n | select n.g = none",
    "s | ijoin u on n | cross u as n | select n.g = none",
])
def test_exec_flatten_collision_in_pairs_the_select_drops_exit_3(guard_db, capsys, query):
    # The left rows already hold n.g and n.k, so every pair collides, though no u row has g = none.
    assert exec_csv(guard_db, capsys, query) == (3, "", "error: flattening produced key 'n.g' twice\n")


def test_exec_select_after_cross_sees_a_left_field_of_the_same_name(guard_db, capsys):
    # n.g comes from w through the left rows; v has no g at all.
    assert exec_csv(guard_db, capsys, "s | ijoin w on n | cross v as n | select n.g = x") == (
        0, "k,n.wk,n.g,n.k,n.h\na,c,x,p,1\n", ""
    )


@pytest.mark.parametrize("key, rows", [("c", "a,c,y\n"), ("b_c", "b,b_c,x\n"), ("zz", "")])
def test_exec_select_on_the_joined_key_after_ijoin(guard_db, capsys, key, rows):
    expected = (0, "k,n.k,n.g\n" + rows, "")
    assert exec_csv(guard_db, capsys, f"s | ijoin u on n | select n.k = {key}") == expected
    # With a step in between, the select runs after the join.
    assert exec_csv(guard_db, capsys, f"s | ijoin u on n | project * | select n.k = {key}") == expected


def test_exec_insert_naming_a_field_twice_is_an_error_and_changes_nothing(dbdir, capsys):
    assert main(["--db", dbdir, "exec", "-e", "books", "--format", "csv"]) == 0
    before = capsys.readouterr().out
    assert main(["--db", dbdir, "exec", "-e", "insert books { ISBN: 1, title: x, title: y }"]) == 3
    assert "'title'" in capsys.readouterr().err
    assert main(["--db", dbdir, "exec", "-e", "books", "--format", "csv"]) == 0
    assert capsys.readouterr().out == before


@pytest.mark.parametrize("fmt, expected", [
    ("table", (
        "title              ISBN\n"
        "-----------------  -------------\n"
        "Beautiful testing  9780596159818\n"
        "(1 row)\n"
    )),
    ("csv", "title,ISBN\nBeautiful testing,9780596159818\n"),
], ids=["table", "csv"])
def test_exec_project_naming_a_column_twice_renders_it_once(dbdir, capsys, fmt, expected):
    query = "books | select ISBN = 9780596159818 | project title, title, ISBN"
    assert main(["--db", dbdir, "exec", "-e", query, "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("query, expected", [
    ("t | rename c -> b", "a  b\n-  -\nk  1\n(1 row)\n"),
    ("t | rename c -> b | ljoin u on b", "a  b.id  b.x\n-  ----  ---\nk  1     y\n(1 row)\n"),
], ids=["rename", "ljoin"])
def test_exec_rename_onto_a_field_no_row_holds_shows_it_once(tmp_path, capsys, query, expected):
    root = str(tmp_path / "db")
    tables = (
        "create table t pk a fields a, b, c; insert t { a: k, c: 1 };"
        "create table u pk id fields id, x; insert u { id: 1, x: y };"
    )
    assert main(["--db", root, "exec", "-e", tables]) == 0
    capsys.readouterr()
    assert main(["--db", root, "exec", "-e", query]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("query, expected", [
    ("l | ljoin t on k | ljoin t on k", "id  a  k.x  k.y\n--  -  ---  ---\n1      r    v\n(1 row)\n"),
    ("l | rename a -> k.x | ijoin t on k", "id  k.x  k.y\n--  ---  ---\n1   r    v\n(1 row)\n"),
], ids=["ljoin twice", "rename then ijoin"])
def test_exec_join_whose_schema_meets_a_dotted_field_again_shows_it_once(tmp_path, capsys, query, expected):
    # The second ljoin finds no k and appends k.x and k.y, which the schema
    # already names; the rename puts k.x in the schema, though no row holds a.
    root = str(tmp_path / "db")
    tables = (
        "create table l pk id fields id, a, k; insert l { id: 1, k: r };"
        "create table t pk x fields x, y; insert t { x: r, y: v };"
    )
    assert main(["--db", root, "exec", "-e", tables]) == 0
    capsys.readouterr()
    assert main(["--db", root, "exec", "-e", query]) == 0
    assert capsys.readouterr().out == expected


def test_exec_is_byte_deterministic(dbdir, capsys):
    args = ["--db", dbdir, "exec", "-e", "books | njoin catalog", "--format", "table"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_env_var_supplies_db(dbdir, capsys, monkeypatch):
    monkeypatch.setenv("SGDB_DB", dbdir)
    assert main(["exec", "-e", "show tables"]) == 0
    assert capsys.readouterr().out == "books\ncatalog\n"


def test_missing_db_is_an_error(capsys, monkeypatch):
    monkeypatch.delenv("SGDB_DB", raising=False)
    assert main(["exec", "-e", "show tables"]) == 2


def test_run_script(dbdir, tmp_path, capsys):
    script = tmp_path / "pipeline.sgq"
    script.write_text(
        "# list tables then run the pipeline\n"
        "show tables;\n"
        'books | ijoin catalog on catalog | select catalog.catalog = "001"'
        " | project title, catalog.description;\n"
    )
    code = main(["--db", dbdir, "run", str(script), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("books\ncatalog\n")
    assert len(out.splitlines()) == 2 + 4  # listing + header + three rows


def test_run_script_saved_with_a_byte_order_mark(dbdir, tmp_path, capsys):
    script = tmp_path / "bom.sgq"
    script.write_text("show tables;\n", encoding="utf-8-sig")
    assert main(["--db", dbdir, "run", str(script)]) == 0
    assert capsys.readouterr().out == "books\ncatalog\n"


def test_run_script_that_is_not_utf8_is_an_error(dbdir, tmp_path, capsys):
    script = tmp_path / "latin1.sgq"
    script.write_bytes("show tables; # café\n".encode("latin-1"))
    assert main(["--db", dbdir, "run", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'utf-8' codec can't decode byte 0xe9 in position 18: invalid continuation byte\n"


def test_exec_statement_that_is_not_utf8_is_an_error(dbdir):
    before = Database(dbdir).scan("books")
    done = run_python(["-m", "sgdb.cli", "--db", dbdir, "exec", "-e", b'insert books { ISBN: 1, title: "\xff" }'])
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr == b"error: 'utf-8' codec can't decode byte 0xff in position 32: invalid start byte\n"
    assert relation_equal(Database(dbdir).scan("books"), before)


def test_run_script_stops_on_eval_error(dbdir, tmp_path, capsys):
    script = tmp_path / "bad.sgq"
    script.write_text("show tables;\nnosuch | project *;\nshow tables;\n")
    assert main(["--db", dbdir, "run", str(script)]) == 3
    out = capsys.readouterr().out
    assert out.count("books") == 1  # the statement after the failure never ran


def test_cli_import_export(dbdir, tmp_path, capsys):
    out_csv = tmp_path / "books.csv"
    assert main(["--db", dbdir, "export", "books", str(out_csv)]) == 0
    assert main(["--db", dbdir, "import", "copy", str(out_csv), "--pk", "ISBN"]) == 0
    text = capsys.readouterr().out
    assert "exported 5 rows" in text and "imported 5 rows" in text
    db = Database(dbdir)
    assert relation_equal(db.scan("copy"), db.scan("books"))


def test_cli_import_of_a_csv_that_is_not_utf8_is_an_error(dbdir, tmp_path, capsys):
    source = tmp_path / "latin1.csv"
    source.write_bytes("id,name\n1,café\n".encode("latin-1"))
    assert main(["--db", dbdir, "import", "people", str(source), "--pk", "id"]) == 3
    assert capsys.readouterr().err == "error: 'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte\n"
    assert "people" not in Database(dbdir).list_tables()


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "empty.csv: empty file, expected a header row"),
    ("ragged.csv", "id,name\n1,a\n2\n", "ragged.csv:3: row has 1 cells, header has 2"),
    ("emptypk.csv", "id,name\n1,a\n,b\n", "emptypk.csv:3: empty primary-key value"),
    ("cut.csv", 'id,name\n1,"unterminated\n', "cut.csv:2: unexpected end of data"),
    ("after.csv", 'id,name\n1,"ab"c\n', "after.csv:2: ',' expected after '\"'"),
    ("wide.csv", "id,name\n1,a\n2," + "x" * 131_073 + "\n", "wide.csv:3: field larger than field limit (131072)"),
    # A quoted line feed: every message names the physical line, as csv.Error's do.
    ("r.csv", 'id,name\n1,"a\nb"\n2\n', "r.csv:4: row has 1 cells, header has 2"),
    ("dup.csv", 'id,name\n1,"a\nb"\n1,c\n', "dup.csv:4: duplicate primary key '1'"),
], ids=["empty file", "short row", "empty key", "cut in a quoted cell", "text after a closing quote", "cell over the limit",
        "short row after a quoted line feed", "duplicate key after a quoted line feed"])
def test_cli_import_of_a_malformed_csv_is_an_error_and_leaves_no_table(tmp_path, monkeypatch, capsys, name, text, message):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(text)
    assert main(["--db", "db", "import", "t", name, "--pk", "id"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["--db", "db", "exec", "-e", "show tables"]) == 0
    assert capsys.readouterr().out == "(no tables)\n"


def test_cli_difftest_small(dbdir, capsys):
    assert main(["--db", dbdir, "difftest", "--seeds", "1000"]) == 0
    assert "0 divergences" in capsys.readouterr().out
    assert main(["--db", dbdir, "difftest", "--seeds", "5", "--ops", "select,bogus"]) == 2


def test_difftest_pipeline_finds_a_cross_rewrite_that_skips_its_checks(monkeypatch):
    def unchecked(left, key, cond, pairs):
        if pairs and cond.field.startswith(key + "."):
            return Condition(cond.field[len(key) + 1:], cond.value)
        return None

    monkeypatch.setattr(ops, "right_condition", unchecked)
    reports = differential_check(range(200), ("pipeline",))
    assert reports
    assert {report.operator for report in reports} == {"pipeline through storage"}


def test_difftest_pipelines_draw_the_flatten_collision_of_a_keyed_join():
    # A left row whose joining field matches a right key and which holds a field dotted under
    # that field is where a keyed join's flattening meets a field twice (``ops._join``'s check).
    met = []
    for seed in range(200):
        left, right = generate_database(seed)
        rel = left
        for step in _pick_pipeline(seed, left, right).steps:
            if isinstance(step, JoinStep) and step.kind in ("inner", "left", "right", "outer"):
                dotted = [f"{step.key}.{f}" for f in right.schema.fields]
                if any(row.get(step.key) in right.rows and any(f in row for f in dotted) for row in rel.rows.values()):
                    met.append(seed)
            try:
                rel = evaluator._apply(step, rel, right if isinstance(step, JoinStep) else None)
            except SgdbError:
                break
    assert met


def test_difftest_pipelines_draw_a_column_project_after_a_join_over_a_left_dotted_under_its_key():
    # An ijoin or cross given a project's columns over a left row that holds a field dotted
    # under the joining field builds the plain join and projects it (``ops._nests_cleanly``).
    met = []
    for seed in range(200):
        left, right = generate_database(seed)
        rel = left
        steps = _pick_pipeline(seed, left, right).steps
        for step, after in zip(steps, steps[1:] + (None,)):
            if (isinstance(step, JoinStep) and step.kind in ("inner", "cross")
                    and isinstance(after, ProjectStep) and after.columns != ops.STAR
                    and any(f.startswith(f"{step.key}.") for row in rel.rows.values() for f in row)):
                met.append(seed)
            try:
                rel = evaluator._apply(step, rel, right if isinstance(step, JoinStep) else None)
            except SgdbError:
                break
    assert met


@pytest.mark.parametrize("args", [["--seeds", "-3"], ["--seeds", "0"], ["--seeds", "5", "--ops", ","]],
                         ids=["negative seeds", "no seeds", "no operators"])
def test_difftest_that_would_check_nothing_is_an_error(dbdir, args, capsys):
    assert main(["--db", dbdir, "difftest", *args]) == 2
    assert "0 divergences" not in capsys.readouterr().out


def test_difftest_refuses_an_unknown_operator(capsys):
    assert main(["difftest", "--seeds", "1", "--ops", "select,flatten"]) == 2
    assert "unknown operators ['flatten']" in capsys.readouterr().err


def test_difftest_needs_no_database(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SGDB_DB", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["difftest", "--seeds", "3", "--ops", "select,project"]) == 0
    assert main(["--db", str(tmp_path / "db"), "difftest", "--seeds", "3", "--ops", "select"]) == 0
    assert capsys.readouterr().out.count("0 divergences") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("op, printed_wrong", [
    ("rename", lambda step: RenameStep(step.new, step.old) if isinstance(step, RenameStep) else step),
    ("natural_join", lambda step: JoinStep("natural", "left") if step == JoinStep("natural", "right") else step),
], ids=["rename", "natural_join"])
def test_difftest_checks_each_operator_as_the_dsl_prints_it(monkeypatch, op, printed_wrong):
    render_step = dsl._render_step
    monkeypatch.setattr(dsl, "_render_step", lambda step: render_step(printed_wrong(step)))
    reports = differential_check(range(100), (op,))
    assert reports
    assert {report.operator for report in reports} == {f"{op} through storage"}


def test_difftest_prints_each_divergence_it_finds(monkeypatch, capsys):
    rename = ops.rename

    def lossy(rel, old, new):
        renamed = rename(rel, old, new)
        return Relation(renamed.schema, dict(list(renamed.rows.items())[1:]))

    monkeypatch.setattr(ops, "rename", lossy)
    assert main(["difftest", "--seeds", "5", "--ops", "rename"]) == 1
    summary, *lines = capsys.readouterr().out.splitlines()
    found = int(re.fullmatch(r"difftest: 5 seeds x 1 operators, (\d+) divergences", summary).group(1))
    assert found > 0 and len(lines) == 4 * found
    for first, inputs, engine, oracle in zip(*[iter(lines)] * 4):
        assert re.fullmatch(r"seed [0-4], operator rename through storage: row '.+' only in oracle output", first)
        assert inputs.startswith("  inputs: ")
        assert engine.startswith("  engine: ")
        assert oracle.startswith("  oracle: ")


# --- REPL ---------------------------------------------------------------------


def repl_session(dbdir, text):
    out = io.StringIO()
    run_repl(Database(dbdir), stdin=io.StringIO(text), out=out)
    return out.getvalue()


def test_repl_show_tables(dbdir):
    assert repl_session(dbdir, "show tables;\n") == "books\ncatalog\n"


def test_repl_multiline_statement(dbdir):
    out = repl_session(
        dbdir,
        "books\n | ijoin catalog on catalog\n | select catalog.catalog = \"001\"\n"
        " | project title, catalog.description;\n",
    )
    assert "Beautiful testing" in out
    assert "(3 rows)" in out


def test_repl_error_keeps_session_alive(dbdir):
    out = repl_session(dbdir, "garbage | ;\nshow tables;\n")
    assert "error" in out
    assert "^" in out  # caret under the offending position
    assert "books" in out  # the next statement still ran


def test_repl_os_error_keeps_session_alive(dbdir, tmp_path):
    (tmp_path / "db" / "t.sgt").mkdir()  # opening this table raises IsADirectoryError
    out = repl_session(dbdir, "t;\nshow tables;\n")
    assert out.startswith("error: ")
    assert "books\ncatalog\n" in out  # the next statement still ran
    assert main(["--db", dbdir, "exec", "-e", "t"]) == 3


def test_repl_statement_without_trailing_semicolon(dbdir):
    assert "catalog" in repl_session(dbdir, "show tables")


def test_repl_a_semicolon_inside_a_string_does_not_end_the_statement(dbdir):
    out = repl_session(
        dbdir,
        'insert books { ISBN: 1, title: "a;b" };\n'
        'books | select title = "a;b"\n'
        "  | project ISBN;\n",
    )
    assert out.endswith("ISBN\n----\n1\n(1 row)\n")
    assert "error" not in out


def test_repl_reads_on_only_while_a_string_can_still_close(dbdir):
    out = repl_session(
        dbdir,
        'books | select title = "x;\\\n'  # an escaped line feed: the string goes on
        'y" | project ISBN;\n'
        'books | select title = "x;\n'  # a raw line feed: the string can never close
        "show tables;\n",
    )
    assert out.startswith("ISBN\n----\n(0 rows)\nerror: unterminated string (line 1, col 24)\n")
    assert out.endswith("books\ncatalog\n")


@pytest.mark.parametrize("line_end", [
    "\\\\\n",  # an escaped backslash, then a raw line feed
    "\\\r\n",  # an escaped carriage return, then a raw line feed
])
def test_repl_reports_a_string_that_can_never_close_at_once(dbdir, line_end):
    out = repl_session(dbdir, 'books | select title = "x' + line_end + "show tables;\n")
    assert out.startswith("error: unterminated string (line 1, col 24)\n")
    assert out.endswith("books\ncatalog\n")


@pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
def test_repl_reports_a_line_that_is_not_utf8_and_goes_on(dbdir, errors):
    # The undecodable line ends the statement typed so far ("books |"), which is dropped.
    done = run_python(
        ["-m", "sgdb.cli", "--db", dbdir, "repl"],
        b"show tables;\nbooks |\n\xff;\nshow tables;\n",
        PYTHONIOENCODING=f"utf-8:{errors}",
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode("utf-8") == (
        "books\ncatalog\n"
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        "books\ncatalog\n"
    )


def test_importing_the_cli_leaves_difftest_and_uuid_unimported():
    done = run_python(["-c", "import sys, sgdb.cli; print(sorted({'sgdb.difftest', 'uuid'} & set(sys.modules)))"])
    assert (done.returncode, done.stdout.strip()) == (0, b"[]")
