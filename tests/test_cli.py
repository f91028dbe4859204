import io
import json

import pytest

import golden_data as gd
from conftest import load_fixture_db

from sgdb.cli import main, run_repl
from sgdb.csvio import export_csv, import_csv
from sgdb.errors import DuplicateKeyError, MissingColumnError, UnknownTableError
from sgdb.model import Relation, Schema, relation_equal, relation_from_mapping
from sgdb.render import RenderSpec, columns_of, render
from sgdb.storage import Database


@pytest.fixture
def dbdir(tmp_path):
    load_fixture_db(tmp_path / "db")
    return str(tmp_path / "db")


# --- render ---------------------------------------------------------------


def test_render_table_catalog(catalog):
    text = render(catalog, RenderSpec())
    lines = text.splitlines()
    assert lines[0].split() == ["catalog", "description"]
    assert len(lines) == 2 + 3 + 1  # header, rule, three rows, row count
    assert lines[2].startswith("001")
    assert "computing" in lines[2]


def test_render_empty_relation_csv():
    rel = Relation(Schema("catalog", gd.CATALOG_FIELDS))
    assert render(rel, RenderSpec(format="csv")) == "catalog,description\n"


def test_render_csv_quotes_awkward_cells():
    rel = Relation(
        Schema("k", ("k", "v")),
        {"1": {"k": "1", "v": 'com,ma "q"'}},
    )
    assert render(rel, RenderSpec(format="csv")) == 'k,v\n1,"com,ma ""q"""\n'


def test_render_heterogeneous_rows_pads_missing_columns(books, catalog):
    from sgdb.model import insert_tuple
    from sgdb.ops import left_join

    extra = {
        "ISBN": "9780596159819",
        "title": "New book",
        "publisher": "Amani",
        "first author": "Valeriy",
        "catalog": "009",
    }
    result = left_join(insert_tuple(books, extra), catalog, "catalog")
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
    assert "absent" in render(rel, RenderSpec(null_text="absent"))
    assert json.loads(render(rel, RenderSpec(format="json"))) == {"k": "1", "v": None}


def test_render_sorts_rows_by_key(books):
    out = render(books, RenderSpec(format="csv"))
    keys = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert keys == sorted(gd.BOOKS)


def test_render_is_deterministic(books):
    for fmt in ("table", "csv", "json"):
        spec = RenderSpec(format=fmt)
        assert render(books, spec) == render(books, spec)


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


def test_export_roundtrip(tmp_path, dbdir, books):
    db = Database(dbdir)
    out = tmp_path / "out.csv"
    assert export_csv(db, "books", out) == 5
    assert len(out.read_text().splitlines()) == 6
    assert import_csv(db, "books2", out, pk="ISBN") == 5
    assert relation_equal(db.scan("books2"), db.scan("books"))
    assert relation_equal(db.scan("books2"), books)


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


def test_cli_difftest_small(dbdir, capsys):
    assert main(["--db", dbdir, "difftest", "--seeds", "25"]) == 0
    assert "0 divergences" in capsys.readouterr().out
    assert main(["--db", dbdir, "difftest", "--seeds", "5", "--ops", "select,bogus"]) == 2


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
