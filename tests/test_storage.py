import io
import json
import os
import random
import re
import stat
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_data as gd

from sgdb import evaluator, ops, storage
from sgdb.difftest import _exact, _fold_plainly
from sgdb.dsl import ProjectStep, Query, SelectStep, parse, render_statement
from sgdb.errors import (
    CorruptFileError,
    DuplicateKeyError,
    MissingJoinKeyError,
    SchemaError,
    SgdbError,
    TableExistsError,
    TableLockedError,
    UnknownTableError,
    UseAfterCloseError,
)
from sgdb.evaluator import evaluate
from sgdb.model import Relation, Schema, create_relation, relation_equal
from sgdb.ops import Condition
from sgdb.render import RenderSpec, columns_of, render
from sgdb.storage import Database, TableFile, canonical_record_bytes

BOOKS_SCHEMA = Schema("ISBN", gd.BOOKS_FIELDS)
B818 = gd.BOOKS["9780596159818"]


@pytest.fixture
def path(tmp_path):
    return tmp_path / "books.sgt"


def fill(table, records):
    for record in records:
        table.put_record(record)


def test_create_then_reopen_roundtrip(path, books):
    table = TableFile(path, BOOKS_SCHEMA)
    fill(table, gd.BOOKS.values())
    table.close()
    reopened = TableFile(path)
    assert reopened.schema == BOOKS_SCHEMA
    assert relation_equal(reopened.scan_all(), books)
    reopened.close()


def test_fresh_table_is_empty(path):
    with TableFile(path, BOOKS_SCHEMA) as table:
        assert len(table.scan_all()) == 0


def test_create_requires_schema(path):
    # Without a schema a handle only opens, and there is nothing to open.
    with pytest.raises(UnknownTableError, match="no table named 'books'"):
        TableFile(path)
    assert not path.exists()


@pytest.mark.parametrize("schema", [BOOKS_SCHEMA, Schema("ISBN", ("ISBN", "title"))], ids=["same", "other"])
def test_creating_a_table_file_that_exists_is_table_exists(path, schema):
    with TableFile(path, BOOKS_SCHEMA) as table:
        table.put_record(B818)
    log = path.read_bytes()
    with pytest.raises(TableExistsError, match="'books' already exists"):
        TableFile(path, schema)
    assert path.read_bytes() == log
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_put_replaces_prior_version(path):
    with TableFile(path, BOOKS_SCHEMA) as table:
        table.put_record(B818)
        table.put_record({**B818, "title": "Retitled"})
        rel = table.scan_all()
    assert len(rel) == 1
    assert rel.rows["9780596159818"]["title"] == "Retitled"


def test_put_validates_schema(path):
    with TableFile(path, BOOKS_SCHEMA) as table:
        with pytest.raises(SchemaError):
            table.put_record({"title": "missing pk"})
        with pytest.raises(SchemaError):
            table.put_record({"ISBN": "1", "bogus": "x"})
        with pytest.raises(SchemaError, match="row key None must be a non-empty string"):
            table.put_record({"ISBN": None, "title": "null key"})


def test_delete_and_replay(path):
    with TableFile(path, BOOKS_SCHEMA) as table:
        table.put_record(B818)
        assert table.delete_record("9780596159818") is True
        assert len(table.scan_all()) == 0
        assert table.delete_record("never-there") is False  # tolerated, still logged
    with TableFile(path) as reopened:
        assert len(reopened.scan_all()) == 0


def test_close_is_idempotent_and_guards_use(path):
    table = TableFile(path, BOOKS_SCHEMA)
    table.close()
    table.close()
    with pytest.raises(UseAfterCloseError):
        table.put_record(B818)
    with pytest.raises(UseAfterCloseError):
        table.scan_all()


def test_single_writer_lock(path):
    table = TableFile(path, BOOKS_SCHEMA)
    with pytest.raises(TableLockedError):
        TableFile(path)
    table.close()
    TableFile(path).close()


def test_compact_single_live_key(path):
    with TableFile(path, BOOKS_SCHEMA, sync=False) as table:
        for i in range(100):
            table.put_record({**B818, "title": f"v{i}"})
        table.compact()
        rel = table.scan_all()
        assert len(table.live_index) == 1
    assert rel.rows["9780596159818"]["title"] == "v99"


def test_compact_fresh_table_is_meta_only(path):
    with TableFile(path, BOOKS_SCHEMA) as table:
        table.compact()
        size_after = path.stat().st_size
        assert len(table.scan_all()) == 0
    # magic+version plus a single schema record
    meta = _encode(0x00, b"\x00", _schema_payload())
    assert size_after == 5 + len(meta)


def test_compact_preserves_contents_and_shrinks(path):
    rng = random.Random(5)
    with TableFile(path, BOOKS_SCHEMA, sync=False) as table:
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


def test_no_other_handle_can_lock_the_table_while_compact_renames_it(path, monkeypatch):
    refused = []
    replace = os.replace

    def replace_then_intrude(src, dst):
        replace(src, dst)
        with pytest.raises(TableLockedError):
            TableFile(path).close()
        refused.append(dst)

    with TableFile(path, BOOKS_SCHEMA) as table:
        fill(table, gd.BOOKS.values())
        monkeypatch.setattr(storage.os, "replace", replace_then_intrude)
        table.compact()
        monkeypatch.undo()
        assert refused == [path]
        table.put_record({**B818, "title": "After"})
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    with TableFile(path) as reopened:
        assert reopened.scan_all().rows["9780596159818"]["title"] == "After"


def test_a_failed_compact_removes_its_temporary_file_and_keeps_the_table(path, monkeypatch, books):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    with TableFile(path, BOOKS_SCHEMA) as table:
        fill(table, gd.BOOKS.values())
        monkeypatch.setattr(storage.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            table.compact()
        monkeypatch.undo()
        assert relation_equal(table.scan_all(), books)
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_opening_and_scanning_a_table_reads_its_log_once(path, monkeypatch, books):
    with TableFile(path, BOOKS_SCHEMA) as table:
        fill(table, gd.BOOKS.values())
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            reads.append(n)
            return n

    def counting_open(file, mode):
        return io.BufferedRandom(CountingFile(file, mode.replace("b", "")))

    monkeypatch.setattr(storage, "open", counting_open, raising=False)
    size = path.stat().st_size
    with TableFile(path) as table:
        assert relation_equal(table.scan_all(), books)
        assert relation_equal(table.scan_all(), books)
        table.put_record({**B818, "title": "Retitled"})
        table.delete_record("9780751404624")
        assert table.scan_all().rows["9780596159818"]["title"] == "Retitled"
        table.compact()
        assert len(table.scan_all()) == len(books) - 1
    assert sum(reads) == size


@pytest.fixture
def checked(monkeypatch):
    """Each record the storage layer checks from now on: a CRC taken over a whole record,
    its stored CRC included, is the residue (``storage._CRC_RESIDUE``)."""
    records = []

    class CountingZlib:
        @staticmethod
        def crc32(data, *args):
            value = zlib.crc32(data, *args)
            if value == storage._CRC_RESIDUE:
                records.append(bytes(data))
            return value

    monkeypatch.setattr(storage, "zlib", CountingZlib)
    return records


@pytest.mark.parametrize("change", ["put", "delete"])
def test_each_log_record_is_parsed_once(db, books, checked, change):
    assert relation_equal(db.scan("books"), books)
    assert len(checked) == 1 + len(books)  # the META record and one PUT per book
    with db.open("books") as table:
        if change == "put":
            table.put_record({**B818, "title": "Retitled"})
        else:
            table.delete_record("9780596159818")
        checked.clear()
        live = len(table.scan_all())
        assert checked == []
        table.compact()
        # Only the new log is parsed: its META record and one PUT per live row.
        assert len(checked) == 1 + live
        checked.clear()
        assert len(table.scan_all()) == live
        assert checked == []


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
    with TableFile(path, BOOKS_SCHEMA) as table:
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


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# Records of text and nulls; each one's first field is its primary key.
RECORDS = [
    {"ISBN": "9780596159818", "title": "Beautiful testing", "publisher": None},
    {"z": "日本語 é \u2028", "a": "tab\tquote\"back\\slash", "m": "\x00\x1f"},
    {'quote"d': "1", "back\\slash": None, "line\nfeed": "", "é": "x", "\u2028": "y"},
]


@pytest.mark.parametrize("record", RECORDS)
def test_one_shared_encoder_writes_what_json_dumps_wrote(record):
    schema = Schema(next(iter(record)), tuple(record))
    for ordered in (record, dict(reversed(record.items()))):
        assert canonical_record_bytes(ordered) == _dumps(record).encode("utf-8")
        assert render(Relation(schema, {"k": ordered}), RenderSpec("json")) == _dumps(record) + "\n"
    payload = {"primary_key": schema.primary_key, "fields": list(schema.fields)}
    assert storage._schema_bytes(schema) == _dumps(payload).encode("utf-8")


@pytest.mark.parametrize("record", RECORDS)
def test_a_null_in_a_non_key_field_survives_put_load_compact_and_scan(tmp_path, record):
    schema = Schema(next(iter(record)), tuple(record))
    key = record[schema.primary_key]
    db = Database(tmp_path / "db")
    db.load("loaded", schema, [record])
    with db.create("put", schema) as table:
        table.put_record(record)
        assert table.scan_all().rows == {key: record}
    for name in ("loaded", "put"):
        assert _dumps(record).encode("utf-8") in (db.root / f"{name}.sgt").read_bytes()
        assert db.scan(name).rows == {key: record}
        with db.open(name) as table:
            table.compact()
            assert table.scan_all().rows == {key: record}
        assert db.scan(name).rows == {key: record}
        assert db.read(name, Condition(schema.primary_key, key)).rows == {key: record}


def test_truncated_tail_is_dropped_cleanly(path):
    table = TableFile(path, BOOKS_SCHEMA)
    boundaries = []
    for record in gd.BOOKS.values():
        table.put_record(record)
        boundaries.append(path.stat().st_size)
    table.close()
    # chop one byte off the final record: replay keeps the first four rows
    data = path.read_bytes()
    path.write_bytes(data[: boundaries[-1] - 1])
    with TableFile(path) as reopened:
        rel = reopened.scan_all()
    assert len(rel) == 4
    assert "9780751404624" not in rel.rows


def test_truncation_at_any_offset_recovers_record_prefix(tmp_path):
    source = tmp_path / "full.sgt"
    table = TableFile(source, BOOKS_SCHEMA)
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
        with TableFile(target) as reopened:
            rel = reopened.scan_all()
        assert sorted(rel.rows) == sorted(keys[:complete])
        target.unlink()


def test_mid_file_corruption_is_reported(path):
    table = TableFile(path, BOOKS_SCHEMA)
    fill(table, gd.BOOKS.values())
    table.close()
    data = bytearray(path.read_bytes())
    # flip one payload byte well inside the file
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFileError):
        TableFile(path)


@pytest.mark.parametrize("where", ["at the end", "mid-log"])
def test_an_unknown_record_tag_is_reported_and_not_cut_off(path, where):
    table = TableFile(path, BOOKS_SCHEMA)
    boundaries = []
    for record in gd.BOOKS.values():
        table.put_record(record)
        boundaries.append(path.stat().st_size)
    table.close()
    data = bytearray(path.read_bytes())
    if where == "at the end":
        data.append(0x07)
    else:
        data[boundaries[1]] = 0x07
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFileError, match="invalid record tag 0x07"):
        TableFile(path)
    assert path.read_bytes() == data


def test_bad_magic_is_reported(path):
    path.write_bytes(b"NOPE\x01")
    with pytest.raises(CorruptFileError):
        TableFile(path)


def test_scan_matches_inserted_fixture(path, books):
    with TableFile(path, BOOKS_SCHEMA, sync=False) as table:
        fill(table, gd.BOOKS.values())
        assert relation_equal(table.scan_all(), books)


def test_randomized_roundtrip_and_compaction(tmp_path):
    rng = random.Random(99)
    for case in range(25):
        path = tmp_path / f"case{case}.sgt"
        schema = Schema("k", ("k", "v"))
        table = TableFile(path, schema, sync=False)
        model: dict[str, dict] = {}
        for _ in range(rng.randint(0, 40)):
            key = rng.choice("abcdefgh")
            if rng.random() < 0.3 and key in model:
                table.delete_record(key)
                del model[key]
            else:
                model[key] = {"k": key, "v": rng.choice(["x", "y", "z", None])}
                table.put_record(model[key])
        before = table.scan_all()
        table.close()
        reopened = TableFile(path)
        assert relation_equal(reopened.scan_all(), before)
        assert reopened.scan_all().rows == model
        reopened.compact()
        assert reopened.scan_all().rows == model
        reopened.close()


def append_record(path, op, key, value):
    with open(path, "ab") as fh:
        fh.write(storage._encode(op, key, value))


def test_non_utf8_key_is_reported_as_corruption(path):
    TableFile(path, BOOKS_SCHEMA).close()
    append_record(path, storage.OP_PUT, b"\xff\xfe", canonical_record_bytes({"ISBN": "x"}))
    with pytest.raises(CorruptFileError):
        TableFile(path)


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
    TableFile(path, BOOKS_SCHEMA).close()
    append_record(path, storage.OP_PUT, b"k", payload)
    with TableFile(path) as table:
        with pytest.raises(CorruptFileError):
            table.scan_all()


@pytest.mark.parametrize(
    "payload",
    [
        {"ISBN": "zz", "title": "Misfiled"},  # another key's value
        {"title": "Keyless"},  # no primary-key field
        {"ISBN": None},  # null in the primary-key field
    ],
)
def test_a_row_whose_primary_key_differs_from_its_record_key_is_corruption(db, payload):
    path = db.root / "books.sgt"
    db.scan("books")
    append_record(path, storage.OP_PUT, b"b", canonical_record_bytes(payload))
    with pytest.raises(CorruptFileError):
        db.scan("books")
    with pytest.raises(CorruptFileError):
        db.read("books", Condition("ISBN", "b"))
    with TableFile(path) as table:
        with pytest.raises(CorruptFileError):
            table.scan_all()


# A record for an (id, a) table that now and then breaks the rule ``put_record`` writes by:
# an extra field, a missing, empty or null key, or a value that is not text or null.
RULE_RECORDS = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["1", "é", "", None]) | st.integers(),
    "a": st.none() | st.text(max_size=3) | st.integers() | st.booleans() | st.lists(st.text(max_size=1), max_size=1),
    "zzz": st.text(max_size=2),
})


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(record=RULE_RECORDS)
@example(record={"id": "2", "zzz": "y"})
@example(record={"id": ""})
def test_a_stored_record_reads_back_exactly_when_put_record_would_write_it(record):
    schema = Schema("id", ("id", "a"))
    key = record["id"] if type(record.get("id")) is str else "k"
    with tempfile.TemporaryDirectory() as tmp:
        db = Database(tmp)
        with db.create("written", schema) as table:
            try:
                table.put_record(record)
                written = True
            except SchemaError:
                written = False
        db.create("raw", schema).close()
        append_record(Path(tmp) / "raw.sgt", storage.OP_PUT, key.encode("utf-8"), canonical_record_bytes(record))
        try:
            rows = db.scan("raw").rows
        except CorruptFileError:
            rows = None
        assert written == (rows is not None)
        if rows is not None:
            assert rows == db.scan("written").rows == {key: record}
            with db.open("raw") as table:
                table.compact()
            assert db.scan("raw").rows == rows


def write_log(path, *records):
    """A log file holding the header and then ``records``, each (op, key, value)."""
    path.write_bytes(storage._HEADER + b"".join(storage._encode(*record) for record in records))


def meta(payload):
    return storage.OP_META, storage.META_KEY, storage.CANONICAL_JSON.encode(payload).encode("utf-8")


# A META payload that now and then breaks the schema rule: a field that is not text, is empty
# or holds a reserved character, a field named twice, no fields, a primary key not among them,
# fields given as a string, a missing part, or no JSON object at all.
FIELD_LISTS = st.builds(
    lambda names, odd: names + odd,
    st.lists(st.sampled_from(["id", "a", "b"]), max_size=3, unique=True),
    st.lists(st.sampled_from(["", "a.b", "x,y", "id"]) | st.integers() | st.none(), max_size=1),
)
META_PAYLOADS = (
    st.fixed_dictionaries({
        "primary_key": st.sampled_from(["id", "a"]) | st.integers() | st.lists(st.just("id"), max_size=1),
        "fields": FIELD_LISTS | st.sampled_from(["id", "ida"]),
    })
    | st.fixed_dictionaries({}, optional={"primary_key": st.just("id"), "fields": FIELD_LISTS})
    | st.sampled_from([["id"], "id", None])
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(payload=META_PAYLOADS)
@example(payload={"primary_key": "id", "fields": ["id", 7]})
@example(payload={"primary_key": "i", "fields": "id"})
@example(payload={"primary_key": "k", "fields": ["id", "a"]})
@example(payload={"primary_key": "id", "fields": ["id", "id"]})
@example(payload={"primary_key": "id", "fields": ["id", "a.b"]})
@example(payload={"primary_key": "id", "fields": []})
def test_a_schema_record_opens_exactly_when_create_relation_accepts_it(payload):
    try:
        accepted = create_relation(payload["primary_key"], payload["fields"]).schema
    except (SchemaError, KeyError, TypeError):
        accepted = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sgt"
        write_log(path, meta(payload))
        if accepted is None:
            with pytest.raises(CorruptFileError, match="unreadable schema record"):
                TableFile(path)
        else:
            with TableFile(path) as table:
                assert table.schema == accepted
                assert table.scan_all().rows == {}


SCHEMA_ID_A = {"primary_key": "id", "fields": ["id", "a"]}
PUT_1 = (storage.OP_PUT, b"1", canonical_record_bytes({"id": "1", "a": "x"}))


@pytest.mark.parametrize(
    "records, message",
    [
        ([PUT_1, meta(SCHEMA_ID_A)], "does not start with a schema record"),
        ([(storage.OP_DEL, b"1", None), meta(SCHEMA_ID_A)], "does not start with a schema record"),
        ([meta(SCHEMA_ID_A), PUT_1, meta({"primary_key": "a", "fields": ["a"]})], "a second schema record"),
        ([meta(SCHEMA_ID_A), meta(SCHEMA_ID_A)], "a second schema record"),
        ([], "does not start with a schema record"),
    ],
    ids=["put before the schema", "del before the schema", "second schema", "same schema twice", "header only"],
)
def test_a_log_opens_only_with_one_schema_record_first(tmp_path, records, message):
    path = tmp_path / "t.sgt"
    write_log(path, *records)
    with pytest.raises(CorruptFileError, match=message):
        TableFile(path)
    with pytest.raises(CorruptFileError, match=message):
        Database(tmp_path).scan("t")


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
            with TableFile(source, sync=False) as table:
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
        with TableFile(source) as reopened:
            assert reopened.scan_all().rows == model
            reopened.compact()
            assert reopened.scan_all().rows == model
        assert db.scan("full").rows == model

        cut = draw.draw(st.integers(prefixes[0][0], len(log)), label="cut")
        size, rows = [prefix for prefix in prefixes if prefix[0] <= cut][-1]
        # The same cut twice: reopened by a plain handle, and scanned twice through the Database.
        plain = Path(tmp) / "plain_cut.sgt"
        plain.write_bytes(log[:cut])
        with TableFile(plain) as reopened:
            assert reopened.scan_all().rows == rows
        assert plain.read_bytes() == log[:size]
        target.write_bytes(log[:cut])
        assert db.scan("cut").rows == rows
        assert target.read_bytes() == log[:size]
        assert db.scan("cut").rows == rows


def _reference_replay(data: bytes) -> tuple[dict[str, dict], int] | str:
    """The live rows of a (k, v) log and the offset just past its last complete record,
    or the ``CorruptFileError`` message without its path.

    The log is read record by record from the layout in the ``storage`` module
    docstring, and each stored CRC is compared with the CRC of the bytes before it.
    """
    if data[:5] != b"SGDB\x01":
        return "bad magic"
    rows: dict[str, dict] = {}
    pos, schema_read = 5, False
    while pos < len(data):
        tag = data[pos]
        if tag not in (0x00, 0x01, 0x02):
            return f"invalid record tag 0x{tag:02x}"
        fields, at = [], pos + 1
        for _ in range(1 if tag == 0x02 else 2):  # the key, then the value of a META or PUT
            length = int.from_bytes(data[at:at + 4], "little")
            fields.append(data[at + 4:at + 4 + length])
            at += 4 + length
        if at + 4 > len(data):  # runs past the end (a short length field too): a torn tail
            break
        if int.from_bytes(data[at:at + 4], "little") != zlib.crc32(data[pos:at]):
            return "checksum mismatch"
        try:
            key = fields[0].decode("utf-8")
        except UnicodeDecodeError:
            return f"record key at offset {pos} is not UTF-8"
        if not schema_read:
            if tag != 0x00:
                return "the log does not start with a schema record"
            # No damage below yields a META record that checks but holds another schema.
            assert json.loads(fields[1]) == {"fields": ["k", "v"], "primary_key": "k"}
            schema_read = True
        elif tag == 0x00:
            return f"a second schema record at offset {pos}"
        elif tag == 0x01:
            rows[key] = json.loads(fields[1])
        else:
            rows.pop(key, None)
        pos = at + 4
    if not schema_read:
        return "the log does not start with a schema record"
    return rows, pos


# One damage to a log: flip a byte, cut at an offset, append zero or random bytes, or set the
# tag of a record after the META one.  An offset is drawn as a fraction of the log's size.
FRACTIONS = st.floats(0, 1, exclude_max=True)
DAMAGES = (
    st.tuples(st.just("flip"), FRACTIONS, st.integers(1, 255))
    | st.tuples(st.just("cut"), FRACTIONS)
    | st.tuples(st.just("append"), st.integers(1, 64).map(bytes) | st.binary(min_size=1, max_size=64))
    | st.tuples(st.just("tag"), st.integers(0, 63), st.sampled_from([0x00, 0x03]))
)


def _damaged(log: bytes, starts: list[int], damage) -> bytes:
    kind, *args = damage
    data = bytearray(log)
    if kind == "flip":
        data[int(args[0] * len(data))] ^= args[1]
    elif kind == "cut":
        del data[int(args[0] * (len(data) + 1)):]
    elif kind == "append":
        data += args[0]
    elif starts:  # a tag, when the log holds a record after the META one
        data[starts[args[0] % len(starts)]] = args[1]
    return bytes(data)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(history=HISTORIES, damage=DAMAGES)
@example(history=[("a", "x")], damage=("append", b"\x07"))  # an unknown tag in a tail under 5 bytes
@example(history=[("a", "x")], damage=("append", bytes(4)))  # a torn tail of zeros
@example(history=[("a", "x")], damage=("append", bytes(16)))  # zeros holding a complete record
@example(history=[("a", "x"), ("a", None)], damage=("tag", 1, 0x00))  # a DEL read as a META
@example(history=[], damage=("cut", 0.1))  # the header only
def test_a_damaged_log_opens_as_a_record_by_record_reading_says(history, damage):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sgt"
        starts = []
        with TableFile(path, Schema("k", ("k", "v")), sync=False) as table:
            for key, value in history:
                starts.append(path.stat().st_size)
                if value is None:
                    table.delete_record(key)
                else:
                    table.put_record({"k": key, "v": value})
        data = _damaged(path.read_bytes(), starts, damage)
        path.write_bytes(data)
        expected = _reference_replay(data)
        if isinstance(expected, str):
            expected = (f"{path}: {expected}", data)
        else:
            expected = (expected[0], data[:expected[1]])
        try:
            with TableFile(path) as table:
                got = table.scan_all().rows
        except CorruptFileError as exc:
            got = str(exc)
        assert (got, path.read_bytes()) == expected


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


def test_a_load_holding_a_key_twice_fails_and_leaves_no_table(tmp_path):
    db = Database(tmp_path / "db")
    records = [{"id": "1", "a": "x"}, {"id": "2", "a": "x"}, {"id": "1", "a": "y"}]
    with pytest.raises(DuplicateKeyError, match="duplicate primary key '1'"):
        db.load("t", Schema("id", ("id", "a")), records)
    assert db.list_tables() == []
    assert list(db.root.iterdir()) == []


def test_the_listing_leaves_out_files_no_statement_can_name(tmp_path):
    db = Database(tmp_path / "db")
    db.create("t", BOOKS_SCHEMA).close()
    for name in ["my-t", "my t", "t.old", "\u00e9t\u00e9"]:
        (db.root / f"{name}.sgt").write_bytes((db.root / "t.sgt").read_bytes())
    assert db.list_tables() == ["t"]
    assert evaluate(parse("show tables"), db).message == "t"


def test_a_load_never_replaces_a_table_created_while_it_runs(tmp_path):
    db = Database(tmp_path / "db")
    other = Database(tmp_path / "db")
    catalog_schema = Schema("catalog", gd.CATALOG_FIELDS)

    def records():
        yield B818
        with other.create("books", catalog_schema) as table:
            table.put_record(gd.CATALOG["001"])
        yield gd.BOOKS["9780596516499"]

    with pytest.raises(TableExistsError):
        db.load("books", BOOKS_SCHEMA, records())
    kept = other.scan("books")
    assert kept.schema == catalog_schema
    assert kept.rows == {"001": gd.CATALOG["001"]}
    assert [p.name for p in db.root.iterdir()] == ["books.sgt"]


def test_a_create_whose_write_fails_leaves_no_file_and_no_open_handle(tmp_path, monkeypatch):
    db = Database(tmp_path / "db")
    opened = []

    class FullDisk(io.BufferedRandom):
        def write(self, data):
            raise OSError("disk full")

    def opening(file, mode):
        assert "x" in mode
        opened.append(FullDisk(io.FileIO(file, mode.replace("b", ""))))
        return opened[-1]

    monkeypatch.setattr(storage, "open", opening, raising=False)
    with pytest.raises(OSError, match="disk full"):
        db.create("t", BOOKS_SCHEMA)
    monkeypatch.undo()
    assert opened and all(fh.closed for fh in opened)
    assert db.list_tables() == []
    assert list(db.root.iterdir()) == []


def test_a_scan_during_a_create_never_reads_a_partial_table(tmp_path, monkeypatch):
    db, other = Database(tmp_path / "db"), Database(tmp_path / "db")
    flock = storage._flock
    intruding = False
    outcomes = []

    def scan_from_the_other_database():
        try:
            other.scan("t")
        except SgdbError as exc:
            outcomes.append(type(exc).__name__)

    def flock_around_a_scan(fh, path):
        nonlocal intruding
        if intruding:  # the other database's own open
            return flock(fh, path)
        intruding = True
        scan_from_the_other_database()
        flock(fh, path)
        scan_from_the_other_database()
        intruding = False

    monkeypatch.setattr(storage, "_flock", flock_around_a_scan)
    table = db.create("t", BOOKS_SCHEMA)
    monkeypatch.undo()
    scan_from_the_other_database()
    table.close()
    assert len(outcomes) == 3
    assert set(outcomes) <= {"UnknownTableError", "TableLockedError"}
    assert outcomes[-1] == "TableLockedError"
    assert other.scan("t").rows == {}


def test_a_create_that_loses_a_race_to_another_create_is_table_exists(tmp_path, monkeypatch):
    db, other = Database(tmp_path / "db"), Database(tmp_path / "db")
    flock = storage._flock
    other_schema = Schema("catalog", gd.CATALOG_FIELDS)

    def flock_after_another_create(fh, path):
        monkeypatch.setattr(storage, "_flock", flock)
        other.create("books", other_schema).close()
        flock(fh, path)

    monkeypatch.setattr(storage, "_flock", flock_after_another_create)
    with pytest.raises(TableExistsError, match="'books' already exists"):
        db.create("books", BOOKS_SCHEMA)
    assert [p.name for p in db.root.iterdir()] == ["books.sgt"]
    assert other.scan("books").schema == other_schema


def test_a_create_that_finds_a_table_made_after_it_was_called_is_table_exists(tmp_path, monkeypatch):
    db, other = Database(tmp_path / "db"), Database(tmp_path / "db")

    class LoadedFirst(TableFile):
        """A handle whose table is made by another Database just before the handle creates it."""

        def __init__(self, *args, **kwargs):
            other.load("books", BOOKS_SCHEMA, [B818])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(storage, "TableFile", LoadedFirst)
    with pytest.raises(TableExistsError, match="'books' already exists"):
        db.create("books", BOOKS_SCHEMA)
    monkeypatch.undo()
    assert [p.name for p in db.root.iterdir()] == ["books.sgt"]
    assert other.scan("books").rows == {B818["ISBN"]: B818}


@pytest.mark.parametrize("make", [
    lambda db: db.create("books", BOOKS_SCHEMA).close(),
    lambda db: db.load("books", BOOKS_SCHEMA, gd.BOOKS.values()),
], ids=["create", "load"])
def test_no_other_handle_can_lock_a_new_table_once_it_is_linked(tmp_path, monkeypatch, make):
    db = Database(tmp_path / "db")
    refused = []
    link = os.link

    def link_then_intrude(src, dst):
        link(src, dst)
        with pytest.raises(TableLockedError):
            TableFile(dst).close()
        refused.append(dst)

    monkeypatch.setattr(storage.os, "link", link_then_intrude)
    make(db)
    monkeypatch.undo()
    assert refused == [db.root / "books.sgt"]
    assert [p.name for p in db.root.iterdir()] == ["books.sgt"]


@pytest.mark.parametrize("sync", [True, False])
def test_a_create_fsyncs_its_log_before_it_links_it(tmp_path, monkeypatch, sync):
    db = Database(tmp_path / "db")
    events = []
    fsync, link = os.fsync, os.link

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        fsync(fd)

    def recording_link(src, dst):
        events.append(("link", os.stat(src)))
        link(src, dst)

    monkeypatch.setattr(storage.os, "fsync", recording_fsync)
    monkeypatch.setattr(storage.os, "link", recording_link)
    db.create("books", BOOKS_SCHEMA, sync=sync).close()
    monkeypatch.undo()
    (at, (_, linked)), = [(i, e) for i, e in enumerate(events) if e[0] == "link"]
    assert any(what == "fsync" and os.path.samestat(st, linked) for what, st in events[:at])


def test_create_drop_and_compact_fsync_the_directory(tmp_path, monkeypatch):
    root = tmp_path / "db"
    db = Database(root)
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append(stat.S_ISDIR(st.st_mode) and os.path.samestat(st, os.stat(root)))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)

    def syncs_the_directory(action):
        synced.clear()
        action()
        return any(synced)

    assert syncs_the_directory(lambda: db.create("books", BOOKS_SCHEMA).close())
    with db.open("books") as table:
        fill(table, gd.BOOKS.values())
        table.delete_record("9780596159818")
        assert syncs_the_directory(table.compact)
        assert not syncs_the_directory(lambda: table.put_record(B818))
    assert syncs_the_directory(lambda: db.drop("books"))
    assert syncs_the_directory(lambda: db.load("books", BOOKS_SCHEMA, gd.BOOKS.values()))


def test_a_create_table_statement_installs_its_log_with_two_fsyncs(tmp_path, monkeypatch):
    db = Database(tmp_path / "db")
    synced, built = [], []
    fsync, init = os.fsync, TableFile.__init__
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
    monkeypatch.setattr(TableFile, "__init__", lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    assert evaluate(parse("create table pets pk name fields name, kind"), db).message == "created table pets"
    assert (len(synced), built) == (2, [])
    monkeypatch.undo()
    pets = db.scan("pets")
    assert (pets.schema, pets.rows) == (Schema("name", ("name", "kind")), {})


@pytest.mark.parametrize("text, error, message", [
    ('create table "no-table" pk x fields a', SchemaError, "invalid table name 'no-table'"),
    ("create table books pk x fields a", SchemaError, "primary key 'x' is not among the fields"),
    ("create table books pk a fields a", TableExistsError, "table 'books' already exists"),
])
def test_a_create_table_statement_checks_the_name_then_the_schema_then_the_table(db, text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        evaluate(parse(text), db)
    assert db.list_tables() == ["books", "catalog"]
    assert [p.name for p in db.root.iterdir() if p.suffix == ".tmp"] == []


@pytest.mark.parametrize("call", ["open", "scan", "drop"])
def test_a_table_dropped_just_before_it_is_opened_is_unknown(db, monkeypatch, call):
    other = Database(db.root)

    def open_after_another_drop(file, mode):
        monkeypatch.undo()
        other.drop("books")
        return open(file, mode)

    monkeypatch.setattr(storage, "open", open_after_another_drop, raising=False)
    with pytest.raises(UnknownTableError, match="no table named 'books'"):
        getattr(db, call)("books")
    assert db.list_tables() == ["catalog"]


def _before_the_next_lock(monkeypatch, action) -> None:
    """Patch ``_flock`` so that ``action`` runs between the next open of a table file and its lock."""
    flock = storage._flock

    def flock_after_the_action(fh, path):
        monkeypatch.setattr(storage, "_flock", flock)
        action()
        flock(fh, path)

    monkeypatch.setattr(storage, "_flock", flock_after_the_action)


def _compact(db):
    with db.open("books") as table:
        table.compact()


@pytest.mark.parametrize("replace", [
    lambda other: (other.drop("books"), other.create("books", BOOKS_SCHEMA).close()),
    _compact,
], ids=["drop and recreate", "compact"])
def test_an_open_that_races_a_replacement_of_the_file_writes_to_the_new_one(db, monkeypatch, replace):
    changed = dict(B818, title="changed")
    _before_the_next_lock(monkeypatch, lambda: replace(Database(db.root)))
    with db.open("books") as table:
        table.put_record(changed)
    assert db.scan("books").rows.get(B818["ISBN"]) == changed


@pytest.mark.parametrize("call", ["open", "scan", "drop"])
def test_a_table_dropped_between_its_open_and_its_lock_is_unknown(db, monkeypatch, call):
    _before_the_next_lock(monkeypatch, lambda: Database(db.root).drop("books"))
    with pytest.raises(UnknownTableError, match="no table named 'books'"):
        getattr(db, call)("books")
    assert db.list_tables() == ["catalog"]


def test_a_drop_that_races_a_drop_and_recreate_leaves_the_new_table_alone(db, monkeypatch):
    other, held = Database(db.root), []

    def drop_and_recreate_keeping_it_open():
        other.drop("books")
        held.append(other.create("books", BOOKS_SCHEMA))

    _before_the_next_lock(monkeypatch, drop_and_recreate_keeping_it_open)
    try:
        with pytest.raises(TableLockedError):
            db.drop("books")
        held[0].put_record(B818)
    finally:
        held[0].close()
    assert db.scan("books").rows == {B818["ISBN"]: B818}


def test_drop_is_refused_while_a_handle_is_open(db, books):
    db.scan("books")
    with db.open("books"):
        with pytest.raises(TableLockedError):
            db.drop("books")
    assert db.list_tables() == ["books", "catalog"]
    assert relation_equal(db.scan("books"), books)
    db.drop("books")
    assert db.list_tables() == ["catalog"]


# --- the parse Database.scan keeps between scans ---------------------------


# Each case scans the books table of the conftest ``db`` twice through one Database.


def test_an_unchanged_log_is_not_parsed_again(db, books, checked, monkeypatch):
    assert relation_equal(db.scan("books"), books)
    checked.clear()
    decoded = []
    monkeypatch.setattr(storage, "_decoded", lambda *args: decoded.append(args))
    assert relation_equal(db.scan("books"), books)
    assert checked == [] and decoded == []


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


def test_a_read_or_scan_is_bounded_and_renders_the_columns_its_rows_hold(db):
    with db.open("books") as table:
        table.put_record({"ISBN": "1", "title": "Short"})  # a row without most fields
    for name in db.list_tables():
        for rel in (db.read(name), db.scan(name), db.read(name, Condition("ISBN", "1"))):
            assert rel.bounded
            assert columns_of(rel) == columns_of(Relation(rel.schema, rel.rows)) == list(rel.schema.fields)


def test_drop_and_recreate_between_scans_returns_the_new_rows(db, books):
    assert relation_equal(db.scan("books"), books)
    db.drop("books")
    assert "books" not in db._parses
    with db.create("books", BOOKS_SCHEMA) as table:
        table.put_record({"ISBN": "1", "title": "New"})
    assert db.scan("books").rows == {"1": {"ISBN": "1", "title": "New"}}


# --- a select run inside a scan --------------------------------------------


def _scans(monkeypatch):
    """The relations ``Database.read`` returns from now on, in order."""
    returned = []
    read = Database.read
    monkeypatch.setattr(Database, "read", lambda *args: returned.append(read(*args)) or returned[-1])
    return returned


def _copies_of_kept_rows(db, name, rel):
    """True when every row of ``rel`` equals the row ``db`` keeps under its key but is not that row."""
    kept = db._parses[name].rows
    return all(row == kept[key] and row is not kept[key] for key, row in rel.rows.items())


def _kept_rows(db, name, rel):
    """True when every row of ``rel`` is the row ``db`` keeps under its key, and its row map is not the kept one."""
    kept = db._parses[name].rows
    return rel.rows is not kept and all(row is kept[key] for key, row in rel.rows.items())


def test_a_primary_key_select_is_one_lookup(db, books, monkeypatch):
    db.scan("books")
    monkeypatch.setattr(storage, "_value_index", lambda *args: pytest.fail("indexed a key select"))
    scanned = _scans(monkeypatch)
    rel = evaluate(parse("books | select ISBN = 9780596159818"), db)
    assert rel.rows == {"9780596159818": B818}
    assert [list(r.rows) for r in scanned] == [["9780596159818"]]
    assert _kept_rows(db, "books", scanned[0])
    assert _copies_of_kept_rows(db, "books", rel)
    assert evaluate(parse("books | select ISBN = absent"), db).rows == {}


def _failing(message):
    return lambda *args: pytest.fail(message)


def test_the_first_non_key_select_builds_the_index_and_later_ones_reuse_it(db, books):
    first = db.read("books", Condition("publisher", "O'Reilly"))
    assert list(first.rows) == list(gd.SELECT_OREILLY)
    assert db.read("books", Condition("ghost", "x")).rows == {}
    index = db._parses["books"].by_value["publisher"]
    assert db._parses["books"].by_value["ghost"] == {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(storage, "_value_index", _failing("built an index again"))
        assert db.read("books", Condition("publisher", "O'Reilly")).rows == first.rows
        assert db.read("books", Condition("publisher", "absent")).rows == {}
        assert db.read("books", Condition("ghost", "x")).rows == {}
    assert db._parses["books"].by_value["publisher"] is index
    with db.open("books") as table:
        table.delete_record(next(iter(gd.SELECT_OREILLY)))
    # A write is a new parse, whose first select on the field builds a new index.
    assert list(db.read("books", Condition("publisher", "O'Reilly")).rows) == list(gd.SELECT_OREILLY)[1:]
    assert db._parses["books"].by_value["publisher"] is not index


def test_a_non_key_select_copies_only_its_matches(db, books, monkeypatch):
    db.scan("books")
    scanned = _scans(monkeypatch)
    rel = evaluate(parse('books | select publisher = "O\'Reilly" | project title'), db)
    assert rel.rows == {k: {"title": r["title"]} for k, r in gd.SELECT_OREILLY.items()}
    assert [list(r.rows) for r in scanned] == [list(gd.SELECT_OREILLY)]
    assert _kept_rows(db, "books", scanned[0])
    rel = evaluate(parse('books | select publisher = "O\'Reilly"'), db)
    assert list(rel.rows) == list(gd.SELECT_OREILLY)
    assert _copies_of_kept_rows(db, "books", rel)


@pytest.mark.parametrize("query, pushed", [
    ('books | cross catalog as c | select c.catalog = "002"', Condition("catalog", "002")),
    ("books | ijoin catalog on catalog | select catalog.description = biology", Condition("description", "biology")),
    ("books | ljoin catalog on catalog | select catalog.description = biology", None),
    ("books | ijoin catalog on catalog | project * | select catalog.description = biology", None),
])
def test_a_select_on_the_joined_table_runs_inside_its_scan(db, monkeypatch, query, pushed):
    wheres = []
    read = Database.read
    monkeypatch.setattr(Database, "read", lambda self, name, where=None: wheres.append(where) or read(self, name, where))
    evaluated = _exact(evaluate, parse(query), db)
    assert wheres == [None, pushed]
    assert evaluated[0] == "ok" and evaluated[2]
    # Schema, rows in order and fields in order, as applying each step over full scans gives them.
    tables = {name: db.scan(name) for name in db.list_tables()}
    assert evaluated == _exact(_fold_plainly, tables, parse(query), [])


def _recording_joins(monkeypatch):
    """The calls ``evaluate`` makes through ``evaluator._JOINS``, each as its
    argument count (a cross given a project's columns has four), and to
    ``ops.inner_join_run``, each as ``("run", <steps it took>)``, or as
    ``("plain", <steps>)`` when it ran as the plain fold."""
    calls = []
    for kind, fn in list(evaluator._JOINS.items()):
        monkeypatch.setitem(evaluator._JOINS, kind, lambda *args, fn=fn: calls.append(len(args)) or fn(*args))
    run, fold, folds = ops.inner_join_run, ops._fold, []

    def recording_run(left, steps, fields):
        taken = []
        folds.clear()
        try:
            return run(left, (taken.append(step) or step for step in steps), fields)
        finally:
            calls.append(("plain" if folds else "run", len(taken)))

    monkeypatch.setattr(ops, "inner_join_run", recording_run)
    monkeypatch.setattr(ops, "_fold", lambda *args: folds.append(args) or fold(*args))
    return calls


@pytest.mark.parametrize("query, calls", [
    ("books | ijoin catalog on catalog | project title, catalog.description, catalog", [("run", 1)]),
    ('books | cross catalog as c | select c.catalog = "002" | project c.description, title, c.description', [4]),
    ("books | ijoin catalog on catalog | ijoin catalog on publisher | project title, publisher.description", [("run", 2)]),
    ("books | ijoin catalog on catalog | project *", [("plain", 1)]),
    ("books | ljoin catalog on catalog | project title", [3]),
    ("books | ijoin catalog on catalog | select title = x | project title", [3]),
    # The second cross meets the dotted left fields c.*: given the columns, it builds
    # every field and raises the flatten error the plain fold raises.
    ("books | cross catalog as c | cross catalog as c | project title, c.description", [3, 4]),
    # The second key is a field of the first step's right rows.
    ("books | ijoin catalog on catalog | ijoin catalog on catalog.catalog | project catalog.catalog.description, title",
     [("run", 2)]),
    # The first join takes its select into its scan and stays in the run.
    ("books | ijoin catalog on catalog | select catalog.description = computing | ijoin catalog on catalog.catalog"
     " | project title", [("run", 2)]),
    # The second key is the field the first step replaced with its catalog.* fields:
    # the run may raise there, so it is the plain fold.
    ("books | ijoin catalog on catalog | ijoin catalog on catalog | project title", [("plain", 2)]),
    # A select after the later join ends the run before it.
    ("books | ijoin catalog on catalog | ijoin catalog on publisher | select title = x | project title", [3, 3]),
])
def test_a_project_after_an_inner_join_or_cross_runs_inside_it(db, monkeypatch, query, calls):
    tables = {name: db.scan(name) for name in db.list_tables()}
    plain = _exact(_fold_plainly, tables, parse(query), [])
    made = _recording_joins(monkeypatch)
    assert _exact(evaluate, parse(query), db) == plain
    assert made == calls


def _scans_recorded(db, monkeypatch):
    """The table names ``db.read`` is called with, in order."""
    scanned, read = [], db.read
    monkeypatch.setattr(db, "read", lambda name, where=None: scanned.append(name) or read(name, where))
    return scanned


def test_a_run_with_an_empty_key_raises_before_a_later_table_is_scanned(db, monkeypatch):
    scanned = _scans_recorded(db, monkeypatch)
    with pytest.raises(MissingJoinKeyError):
        evaluate(parse('books | ijoin catalog on "" | ijoin nosuch on x | project title'), db)
    assert scanned == ["books", "catalog"]


def test_a_run_raises_the_plain_flatten_error_before_a_later_table_is_scanned(db, monkeypatch):
    # The first step joins cleanly; the second meets the left field
    # publisher.city again in its part, as the plain fold's second join does.
    db.load("pubs", Schema("publisher", ("publisher", "city")), [{"publisher": "CUP", "city": "Cambridge"}])
    query = (
        "books | rename title -> publisher.city | ijoin catalog on catalog | ijoin pubs on publisher"
        " | ijoin nosuch on x | project ISBN"
    )
    tables = {name: db.scan(name) for name in db.list_tables()}
    plain = _exact(_fold_plainly, tables, parse(query.replace(" | ijoin nosuch on x", "")), [])
    assert plain == ("error", "KeyCollisionError", "flattening produced key 'publisher.city' twice")
    scanned = _scans_recorded(db, monkeypatch)
    assert _exact(evaluate, parse(query), db) == plain
    assert scanned == ["books", "catalog", "pubs"]


def test_a_project_star_after_an_inner_join_copies_no_row_again(db, monkeypatch):
    projected = []
    project = ops.project
    monkeypatch.setattr(ops, "project", lambda *args: projected.append(args) or project(*args))
    made = _recording_joins(monkeypatch)
    evaluate(parse("books | ijoin catalog on catalog | project *"), db)
    assert (made, projected) == ([("plain", 1)], [])


def _write(db, step, model):
    key, value = step
    with TableFile(db.root / "t.sgt", sync=False) as table:
        if value is None:
            table.delete_record(key)
            model.pop(key, None)
        else:
            c, d = value
            model[key] = {"id": key, "c": c} if d is None else {"id": key, "c": c, "d": d}
            table.put_record(model[key])


def _select_query(db, cond, columns):
    """``t | select cond [| project columns]`` through the DSL and evaluator."""
    steps = (SelectStep(cond),) if columns is None else (SelectStep(cond), ProjectStep(tuple(columns)))
    return evaluate(parse(render_statement(Query("t", steps))), db)


def _select_after_scan(root, cond, columns):
    """The same query as ``ops`` calls on a full scan by a Database of its own."""
    rel = ops.select(Database(root).scan("t"), cond)
    return rel if columns is None else ops.project(rel, tuple(columns))


def _select_in_model(model, cond, columns):
    """The same query's rows computed from the dict model alone."""
    rows = {k: r for k, r in model.items() if cond.field in r and r[cond.field] == cond.value}
    return rows if columns is None else {k: {f: r[f] for f in columns if f in r} for k, r in rows.items()}


def _ordered(rel):
    return rel.schema, [(key, list(row.items())) for key, row in rel.rows.items()]


# Puts of ("id", "c", maybe "d") and deletes over three keys; "" is a value, never a key.
PUT_OR_DELETE = st.tuples(
    st.sampled_from(("a", "b", "c")),
    st.none() | st.tuples(st.sampled_from(("", "x", "y")), st.none() | st.sampled_from(("", "x"))),
)
# Keys that are live, deleted or never written, and "" on the primary key; present and
# absent values on "c" and "d" (which some rows lack), and a field outside the schema.
CONDITIONS = st.builds(
    Condition,
    st.sampled_from(("id", "c", "d", "ghost")),
    st.sampled_from(("a", "b", "c", "zz", "", "x", "y")),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    history=st.lists(PUT_OR_DELETE, max_size=12),
    checks=st.lists(
        st.tuples(
            CONDITIONS,
            st.none() | st.lists(st.sampled_from(("id", "c", "d", "ghost")), min_size=1, max_size=3, unique=True),
            PUT_OR_DELETE,
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_a_select_inside_the_scan_equals_a_select_after_it(history, checks):
    with tempfile.TemporaryDirectory() as tmp:
        Database(tmp).create("t", Schema("id", ("id", "c", "d"))).close()
        model: dict[str, dict] = {}
        for step in history:
            _write(Database(tmp), step, model)
        for cond, columns, write in checks:
            db = Database(tmp)
            for when in ("a fresh Database", "a kept parse", "a write"):
                if when == "a write":
                    _write(db, write, model)
                got = _select_query(db, cond, columns)
                assert _ordered(got) == _ordered(_select_after_scan(tmp, cond, columns)), when
                assert got.rows == _select_in_model(model, cond, columns), when
                full = _ordered(Database(tmp).scan("t"))
                for row in got.rows.values():
                    row["c"] = "scribbled"
                    row.pop("id", None)
                got.rows["new"] = {"id": "new"}
                assert _ordered(db.scan("t")) == full


# Queries over t (id, c, d) and u (id, e), whose rows x and y the values of c and d
# name: bare tables, selects that run inside the scan, joins, runs and crosses.
QUERY_SOURCES = st.sampled_from(("t", "u", "t | select id = a", "t | select c = x", "u | select e = 1"))
QUERY_STEPS = st.sampled_from((
    "select c = y", "select c.e = 1", "select n.id = x", "ijoin u on c", "ijoin u on d", "cross u as n",
    "ljoin u on d", "project id, c, c.e, d.e, n.e", "rename d -> z",
))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    history=st.lists(PUT_OR_DELETE, max_size=8),
    queries=st.lists(st.tuples(QUERY_SOURCES, st.lists(QUERY_STEPS, max_size=3)), min_size=1, max_size=3),
)
# The bare table, then a select inside its scan: no operator runs, so evaluate copies the read relation.
@example(history=[("a", ("x", None)), ("b", ("y", "x"))], queries=[("t", []), ("t | select c = x", [])])
# A run of two inner joins and the project after it, then a cross.
@example(history=[("a", ("x", "y"))], queries=[("t", ["ijoin u on c", "ijoin u on d", "project id, c, c.e, d.e, n.e"]),
                                             ("t", ["cross u as n"])])
def test_changing_a_query_result_does_not_change_the_next_query(history, queries):
    with tempfile.TemporaryDirectory() as tmp:
        Database(tmp).load("t", Schema("id", ("id", "c", "d")), [])
        Database(tmp).load("u", Schema("id", ("id", "e")), [{"id": "x", "e": "1"}, {"id": "y"}])
        for step in history:
            _write(Database(tmp), step, {})
        db = Database(tmp)
        for source, steps in queries:
            query = parse(" | ".join([source, *steps]))
            try:
                got = evaluate(query, db)
            except SgdbError:
                continue
            for row in got.rows.values():
                row["c"] = "scribbled"
                row.pop("id", None)
                row["ghost"] = "g"
            got.rows.pop(next(iter(got.rows), None), None)
            got.rows["new"] = {"id": "new"}
            for again in (query, parse("t"), parse("u")):
                assert _exact(evaluate, again, db) == _exact(evaluate, again, Database(tmp))


# Writes from a second handle, compactions, drop-and-recreate, and selects through the one Database.
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), PUT_OR_DELETE),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("recreate"), st.none()),
        st.tuples(st.just("select"), CONDITIONS),
    ),
    max_size=16,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(steps=STEPS)
def test_a_select_through_a_kept_parse_equals_a_select_over_a_fresh_scan(steps):
    schema = Schema("id", ("id", "c", "d"))
    with tempfile.TemporaryDirectory() as tmp:
        db = Database(tmp)
        db.create("t", schema).close()
        model: dict[str, dict] = {}
        # Last, every condition the strategy can draw, so a stale index left by any step shows.
        every = [Condition(f, v) for f in ("id", "c", "d", "ghost") for v in ("a", "b", "c", "zz", "", "x", "y")]
        for kind, arg in [*steps, *(("select", cond) for cond in every)]:
            if kind == "write":
                _write(db, arg, model)
            elif kind == "compact":
                with TableFile(db.root / "t.sgt", sync=False) as table:
                    table.compact()
            elif kind == "recreate":
                db.drop("t")
                db.create("t", schema).close()
                model.clear()
            else:
                got = db.read("t", arg)
                assert _ordered(got) == _ordered(ops.select(Database(tmp).scan("t"), arg))
                assert got.rows == _select_in_model(model, arg, None)


# Tables t (id, k, x) and u (id, y), whose rows may lack k, x or y.  A k of "zz"
# names no row of u.  Row keys holding "_" make cross pair keys collide:
# "t1" + "1_u1" and "t1_1" + "u1" are both "t1_1_u1".
T_ROWS = st.dictionaries(
    st.sampled_from(("t1", "t1_1", "t2")),
    st.fixed_dictionaries({}, optional={"k": st.sampled_from(("u1", "1_u1", "zz")), "x": st.sampled_from(("1", "2"))}),
    max_size=3,
)
U_ROWS = st.dictionaries(
    st.sampled_from(("u1", "1_u1")), st.fixed_dictionaries({}, optional={"y": st.sampled_from(("1", "2"))}), max_size=2
)
# Steps before the last join: joins and crosses that dot fields under k, n or
# a.b, so that the last one may meet dotted left fields and must build every field.
EARLIER_STEPS = st.sampled_from((
    "ijoin u on k", "ljoin u on k", "cross u as n", "cross u as k", "cross t as a.b", "select x = 1", "project id, k, n",
))
LAST_JOINS = st.sampled_from(("ijoin u on k", "ijoin u on n", "cross u as n", "cross u as k", "cross u as a.b"))
SELECTS_AFTER = st.sampled_from((None, "select n.y = 1", "select k.y = 1", "select a.b.y = 2"))
# The joining fields themselves, their dotted right fields, left fields and a field no row holds.
PROJECT_COLUMNS = st.sampled_from((
    "id", "k", "x", "y", "n", "n.id", "n.y", "k.id", "k.y", "a.b", "a.b.id", "a.b.k", "a.b.y", "ghost",
))


# Rows that match, a row whose k names no row of u, and a row without x; row keys without "_".
T_FULL = {"t1": {"k": "u1", "x": "1"}, "t2": {"k": "zz"}, "t3": {"k": "1_u1"}}
U_FULL = {"u1": {"y": "1"}, "1_u1": {}}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    t_rows=T_ROWS,
    u_rows=U_ROWS,
    earlier=st.lists(EARLIER_STEPS, max_size=2),
    join=LAST_JOINS,
    select=SELECTS_AFTER,
    columns=st.lists(PROJECT_COLUMNS, min_size=1, max_size=5),
)
# The joining field named as a column, next to its dotted right fields.
@example(t_rows=T_FULL, u_rows=U_FULL, earlier=[], join="ijoin u on k", select=None, columns=["k", "k.y", "id"])
# A column named twice, after a cross whose select runs inside the scan of u.
@example(t_rows=T_FULL, u_rows=U_FULL, earlier=[], join="cross u as n", select="select n.y = 1",
         columns=["n.y", "id", "n.y", "k"])
# "*", which is never taken into the join.
@example(t_rows=T_FULL, u_rows=U_FULL, earlier=[], join="ijoin u on k", select=None, columns=["*"])
# A cross after a join under the same name meets the dotted left fields k.*.
@example(t_rows=T_FULL, u_rows=U_FULL, earlier=["ijoin u on k"], join="cross u as k", select=None,
         columns=["k.y", "id", "k"])
# Dotted nesting fields: the second cross meets the left fields a.b.*.
@example(t_rows=T_FULL, u_rows=U_FULL, earlier=["cross t as a.b"], join="cross u as a.b", select=None,
         columns=["a.b.id", "a.b.k", "id"])
# Pair keys t1_1_u1 twice: the cross raises its duplicate pair-key error either way.
@example(t_rows={"t1": {}, "t1_1": {}}, u_rows=U_FULL, earlier=[], join="cross u as n", select=None,
         columns=["id"])
def test_a_project_after_a_join_gives_what_it_gives_after_the_join(t_rows, u_rows, earlier, join, select, columns):
    query = parse(" | ".join(["t", *earlier, join, *([select] if select else []), "project " + ", ".join(columns)]))
    with tempfile.TemporaryDirectory() as tmp:
        db = Database(tmp)
        db.load("t", Schema("id", ("id", "k", "x")), [{"id": key, **row} for key, row in t_rows.items()])
        db.load("u", Schema("id", ("id", "y")), [{"id": key, **row} for key, row in u_rows.items()])
        tables = {name: db.scan(name) for name in ("t", "u")}
        assert _exact(evaluate, query, db) == _exact(_fold_plainly, tables, query, [])
