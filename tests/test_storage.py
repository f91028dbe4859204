import json
import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd

from sgdb import storage
from sgdb.errors import (
    CorruptFileError,
    SchemaError,
    SchemaMismatchError,
    TableExistsError,
    TableLockedError,
    UnknownTableError,
    UseAfterCloseError,
)
from sgdb.model import Schema, create_relation, insert_tuple, relation_equal
from sgdb.storage import (
    Database,
    TableFile,
    canonical_record_bytes,
    open_table,
)

BOOKS_SCHEMA = Schema("ISBN", gd.BOOKS_FIELDS)
B818 = gd.BOOKS["9780596159818"]


@pytest.fixture
def path(tmp_path):
    return tmp_path / "books.sgt"


def fill(table, records):
    for record in records:
        table.put_record(record)


def test_create_then_reopen_roundtrip(path, books):
    table = open_table(path, BOOKS_SCHEMA)
    fill(table, gd.BOOKS.values())
    table.close()
    reopened = open_table(path)
    assert reopened.schema == BOOKS_SCHEMA
    assert relation_equal(reopened.scan_all(), books)
    reopened.close()


def test_fresh_table_is_empty(path):
    with open_table(path, BOOKS_SCHEMA) as table:
        assert len(table.scan_all()) == 0


def test_create_requires_schema(path):
    with pytest.raises(SchemaError):
        open_table(path)


def test_schema_mismatch_on_open(path):
    open_table(path, BOOKS_SCHEMA).close()
    with pytest.raises(SchemaMismatchError):
        open_table(path, Schema("ISBN", ("ISBN", "title")))


def test_put_replaces_prior_version(path):
    with open_table(path, BOOKS_SCHEMA) as table:
        table.put_record(B818)
        table.put_record({**B818, "title": "Retitled"})
        rel = table.scan_all()
    assert len(rel) == 1
    assert rel.rows["9780596159818"]["title"] == "Retitled"


def test_put_validates_schema(path):
    with open_table(path, BOOKS_SCHEMA) as table:
        with pytest.raises(SchemaError):
            table.put_record({"title": "missing pk"})
        with pytest.raises(SchemaError):
            table.put_record({"ISBN": "1", "bogus": "x"})


def test_delete_and_replay(path):
    table = open_table(path, BOOKS_SCHEMA)
    table.put_record(B818)
    table.delete_record("9780596159818")
    assert len(table.scan_all()) == 0
    table.delete_record("never-there")  # tolerated, still logged
    table.close()
    with open_table(path) as reopened:
        assert len(reopened.scan_all()) == 0


def test_close_is_idempotent_and_guards_use(path):
    table = open_table(path, BOOKS_SCHEMA)
    table.close()
    table.close()
    with pytest.raises(UseAfterCloseError):
        table.put_record(B818)
    with pytest.raises(UseAfterCloseError):
        table.scan_all()


def test_single_writer_lock(path):
    table = open_table(path, BOOKS_SCHEMA)
    with pytest.raises(TableLockedError):
        open_table(path)
    table.close()
    open_table(path).close()


def test_compact_single_live_key(path):
    with open_table(path, BOOKS_SCHEMA, sync=False) as table:
        for i in range(100):
            table.put_record({**B818, "title": f"v{i}"})
        table.compact()
        rel = table.scan_all()
        assert len(table.live_index) == 1
    assert rel.rows["9780596159818"]["title"] == "v99"


def test_compact_fresh_table_is_meta_only(path):
    with open_table(path, BOOKS_SCHEMA) as table:
        table.compact()
        size_after = path.stat().st_size
        assert len(table.scan_all()) == 0
    # magic+version plus a single schema record
    meta = _encode(0x00, b"\x00", _schema_payload())
    assert size_after == 5 + len(meta)


def test_compact_preserves_contents_and_shrinks(path):
    rng = random.Random(5)
    with open_table(path, BOOKS_SCHEMA, sync=False) as table:
        keys = [f"97805{i:08d}" for i in range(10)]
        for _ in range(200):
            key = rng.choice(keys)
            if rng.random() < 0.3:
                table.delete_record(key)
            else:
                table.put_record({"ISBN": key, "title": rng.choice("abc")})
        before = table.scan_all()
        size_before = path.stat().st_size
        table.compact()
        after = table.scan_all()
        assert relation_equal(before, after)
        assert path.stat().st_size <= size_before


def _schema_payload() -> bytes:
    return json.dumps(
        {"fields": list(gd.BOOKS_FIELDS), "primary_key": "ISBN"},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode()


def _encode(op: int, key: bytes, value: bytes | None) -> bytes:
    buf = bytes([op]) + struct.pack("<I", len(key)) + key
    if value is not None:
        buf += struct.pack("<I", len(value)) + value
    return buf + struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)


def test_file_format_is_bit_exact(path):
    with open_table(path, BOOKS_SCHEMA) as table:
        table.put_record(B818)
        table.delete_record("zz")
    expected = b"SGDB\x01"
    expected += _encode(0x00, b"\x00", _schema_payload())
    expected += _encode(0x01, b"9780596159818", canonical_record_bytes(B818))
    expected += _encode(0x02, b"zz", None)
    assert path.read_bytes() == expected


def test_canonical_serialization_sorts_keys_and_keeps_utf8():
    record = {"b": "2", "a": "é", "c": None}
    raw = canonical_record_bytes(record)
    assert raw == '{"a":"é","b":"2","c":null}'.encode("utf-8")
    assert raw == canonical_record_bytes(dict(reversed(record.items())))


def test_truncated_tail_is_dropped_cleanly(path):
    table = open_table(path, BOOKS_SCHEMA)
    boundaries = []
    for record in gd.BOOKS.values():
        table.put_record(record)
        boundaries.append(path.stat().st_size)
    table.close()
    # chop one byte off the final record: replay keeps the first four rows
    data = path.read_bytes()
    path.write_bytes(data[: boundaries[-1] - 1])
    with open_table(path) as reopened:
        rel = reopened.scan_all()
    assert len(rel) == 4
    assert "9780751404624" not in rel.rows


def test_truncation_at_any_offset_recovers_record_prefix(tmp_path):
    source = tmp_path / "full.sgt"
    table = open_table(source, BOOKS_SCHEMA)
    boundaries = [source.stat().st_size]  # after magic+META
    keys = []
    for record in gd.BOOKS.values():
        table.put_record(record)
        boundaries.append(source.stat().st_size)
        keys.append(record["ISBN"])
    table.close()
    data = source.read_bytes()
    meta_end = boundaries[0]
    for cut in range(meta_end, len(data) + 1):
        target = tmp_path / "cut.sgt"
        target.write_bytes(data[:cut])
        complete = sum(1 for b in boundaries[1:] if b <= cut)
        with open_table(target) as reopened:
            rel = reopened.scan_all()
        assert sorted(rel.rows) == sorted(keys[:complete])
        target.unlink()


def test_mid_file_corruption_is_reported(path):
    table = open_table(path, BOOKS_SCHEMA)
    fill(table, gd.BOOKS.values())
    table.close()
    data = bytearray(path.read_bytes())
    # flip one payload byte well inside the file
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFileError):
        open_table(path)


def test_bad_magic_is_reported(path):
    path.write_bytes(b"NOPE\x01")
    with pytest.raises(CorruptFileError):
        open_table(path)


def test_scan_matches_inserted_fixture(path, books):
    with open_table(path, BOOKS_SCHEMA, sync=False) as table:
        fill(table, gd.BOOKS.values())
        assert relation_equal(table.scan_all(), books)


def test_randomized_roundtrip_and_compaction(tmp_path):
    rng = random.Random(99)
    for case in range(25):
        path = tmp_path / f"case{case}.sgt"
        schema = Schema("k", ("k", "v"))
        table = open_table(path, schema, sync=False)
        shadow = create_relation("k", ["k", "v"])
        for _ in range(rng.randint(0, 40)):
            key = rng.choice("abcdefgh")
            if rng.random() < 0.3 and key in shadow.rows:
                table.delete_record(key)
                from sgdb.model import delete_tuple

                shadow = delete_tuple(shadow, key)
            else:
                record = {"k": key, "v": rng.choice("xyz")}
                table.put_record(record)
                shadow = insert_tuple(shadow, record)
        before = table.scan_all()
        table.close()
        reopened = open_table(path)
        assert relation_equal(reopened.scan_all(), before)
        assert relation_equal(reopened.scan_all(), shadow)
        reopened.compact()
        assert relation_equal(reopened.scan_all(), shadow)
        reopened.close()


def append_record(path, op, key, value):
    with open(path, "ab") as fh:
        fh.write(storage._encode(op, key, value))


def test_non_utf8_key_is_reported_as_corruption(path):
    open_table(path, BOOKS_SCHEMA).close()
    append_record(path, storage.OP_PUT, b"\xff\xfe", canonical_record_bytes({"ISBN": "x"}))
    with pytest.raises(CorruptFileError):
        open_table(path)


@pytest.mark.parametrize(
    "payload",
    [
        b'{"ISBN":"k"',  # not JSON
        b'{"ISBN":"k"}{}',  # JSON followed by more bytes
        b'\xff{"ISBN":"k"}',  # not UTF-8
        b'["k"]',  # not an object
        b'{"ISBN":1}',  # a value that is not a string or null
    ],
)
def test_malformed_payload_is_reported_as_corruption(path, payload):
    open_table(path, BOOKS_SCHEMA).close()
    append_record(path, storage.OP_PUT, b"k", payload)
    with open_table(path) as table:
        with pytest.raises(CorruptFileError):
            table.scan_all()


# A history of puts (key, value) and deletes (key, None) over a few colliding keys.
HISTORIES = st.lists(
    st.tuples(
        st.text(alphabet="ab\u00e9\u65e5", min_size=1, max_size=2),
        st.none() | st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    ),
    max_size=30,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(history=HISTORIES, draw=st.data())
def test_log_matches_a_dict_model_and_any_cut_reopens_to_its_record_prefix(history, draw):
    schema = Schema("k", ("k", "v"))
    with tempfile.TemporaryDirectory() as tmp:
        # One Database scans after every step, so reused and fresh parses interleave.
        db = Database(tmp)
        source, target = Path(tmp) / "full.sgt", Path(tmp) / "cut.sgt"
        model: dict[str, dict] = {}
        db.create("full", schema).close()
        prefixes = [(source.stat().st_size, {})]  # (file size, live rows) after META and after each record
        for key, value in history:
            with db.open("full", sync=False) as table:
                if value is None:
                    table.delete_record(key)
                    model.pop(key, None)
                else:
                    table.put_record({"k": key, "v": value})
                    model[key] = {"k": key, "v": value}
                assert table.scan_all().rows == model
            prefixes.append((source.stat().st_size, dict(model)))
            for _ in range(draw.draw(st.integers(1, 2), label="scans")):
                assert db.scan("full").rows == model
        log = source.read_bytes()
        with open_table(source) as reopened:
            assert reopened.scan_all().rows == model
            reopened.compact()
            assert reopened.scan_all().rows == model
        assert db.scan("full").rows == model

        cut = draw.draw(st.integers(prefixes[0][0], len(log)), label="cut")
        size, rows = [prefix for prefix in prefixes if prefix[0] <= cut][-1]
        # The same cut twice: reopened by a plain handle, and scanned twice through the Database.
        plain = Path(tmp) / "plain_cut.sgt"
        plain.write_bytes(log[:cut])
        with open_table(plain) as reopened:
            assert reopened.scan_all().rows == rows
        assert plain.read_bytes() == log[:size]
        target.write_bytes(log[:cut])
        assert db.scan("cut").rows == rows
        assert target.read_bytes() == log[:size]
        assert db.scan("cut").rows == rows


# --- database directory --------------------------------------------------


def test_database_listing_and_lifecycle(tmp_path):
    db = Database(tmp_path / "db")
    assert db.list_tables() == []
    db.create("books", BOOKS_SCHEMA).close()
    db.create("catalog", Schema("catalog", gd.CATALOG_FIELDS)).close()
    assert db.list_tables() == ["books", "catalog"]
    with pytest.raises(TableExistsError):
        db.create("books", BOOKS_SCHEMA)
    db.drop("books")
    assert db.list_tables() == ["catalog"]
    with pytest.raises(UnknownTableError):
        db.open("books")
    with pytest.raises(UnknownTableError):
        db.drop("books")
    with pytest.raises(SchemaError):
        db.create("../evil", BOOKS_SCHEMA)


# --- the parse Database.scan keeps between scans ---------------------------


# Each case scans the books table of the conftest ``db`` twice through one Database.


def test_an_unchanged_log_is_not_parsed_again(db, books, monkeypatch):
    assert relation_equal(db.scan("books"), books)
    parsed = []
    monkeypatch.setattr(TableFile, "_parse", lambda *args: parsed.append(args))
    monkeypatch.setattr(storage, "_decode_row", lambda payload: parsed.append(payload))
    assert relation_equal(db.scan("books"), books)
    assert parsed == []


@pytest.mark.parametrize("change", ["put", "delete"])
def test_a_write_from_another_handle_between_scans_is_seen(db, change):
    before = db.scan("books")
    with db.open("books") as table:
        if change == "put":
            table.put_record({**B818, "title": "Retitled"})
        else:
            table.delete_record("9780596159818")
    after = db.scan("books")
    if change == "put":
        assert after.rows["9780596159818"]["title"] == "Retitled"
        assert before.rows["9780596159818"]["title"] != "Retitled"
    else:
        assert "9780596159818" not in after.rows and "9780596159818" in before.rows
    assert set(after.rows) - {"9780596159818"} == set(before.rows) - {"9780596159818"}


def test_a_compaction_between_scans_is_seen(db, books):
    with db.open("books") as table:
        table.put_record({**B818, "title": "Retitled"})
    db.scan("books")
    with db.open("books") as table:
        table.delete_record("9780596159818")
        table.compact()
    path = db.root / "books.sgt"
    rel = db.scan("books")
    assert sorted(rel.rows) == sorted(k for k in books.rows if k != "9780596159818")
    assert db._parses["books"].data == path.read_bytes()


def test_a_same_size_byte_flip_between_scans_is_corruption(db, books):
    path = db.root / "books.sgt"
    assert relation_equal(db.scan("books"), books)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFileError):
        db.scan("books")
    with pytest.raises(CorruptFileError):
        db.scan("books")


def test_a_torn_tail_cut_between_scans_is_repaired(db, books):
    path = db.root / "books.sgt"
    assert len(db.scan("books")) == 5
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    rel = db.scan("books")
    assert set(rel.rows) == set(books.rows) - {"9780751404624"}
    assert len(path.read_bytes()) < len(data) - 1
    assert db._parses["books"].data == path.read_bytes()
    assert relation_equal(db.scan("books"), rel)


def test_a_scan_while_another_handle_holds_the_lock_fails(db, books):
    assert relation_equal(db.scan("books"), books)
    with db.open("books"):
        with pytest.raises(TableLockedError):
            db.scan("books")
    assert relation_equal(db.scan("books"), books)


def test_mutating_a_scanned_relation_does_not_change_the_next_scan(db, books):
    rel = db.scan("books")
    rel.rows["9780596159818"]["title"] = "Scribbled"
    del rel.rows["9780751404624"]
    rel.rows["extra"] = {"ISBN": "extra"}
    assert relation_equal(db.scan("books"), books)


def test_drop_and_recreate_between_scans_returns_the_new_rows(db, books):
    assert relation_equal(db.scan("books"), books)
    db.drop("books")
    assert "books" not in db._parses
    with db.create("books", BOOKS_SCHEMA) as table:
        table.put_record({"ISBN": "1", "title": "New"})
    assert db.scan("books").rows == {"1": {"ISBN": "1", "title": "New"}}
