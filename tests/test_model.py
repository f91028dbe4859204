import random

import pytest

import golden_data as gd

import sgdb
from sgdb.errors import SchemaError
from sgdb.model import Relation, Schema, create_relation, relation_equal, relation_from_mapping
from sgdb.storage import TableFile


def test_create_relation_schemas():
    books = create_relation("ISBN", list(gd.BOOKS_FIELDS))
    assert books.schema.primary_key == "ISBN"
    assert books.schema.fields == gd.BOOKS_FIELDS
    assert len(books) == 0
    catalog = create_relation("catalog", ["catalog", "description"])
    assert catalog.schema.fields == ("catalog", "description")


@pytest.mark.parametrize("value", [{"a": "x"}, 1, ["x"]])
def test_relation_rows_hold_only_text_and_null(value):
    assert relation_from_mapping({"1": {"k": "1", "v": None}}, "k", ["k", "v"]).rows["1"]["v"] is None
    with pytest.raises(SchemaError, match=f"field 'v' of row '1' must hold a string or null, not {type(value).__name__}"):
        relation_from_mapping({"1": {"k": "1", "v": value}}, "k", ["k", "v"])


@pytest.mark.parametrize("key", ["", None, 1])
def test_relation_row_keys_are_non_empty_text(key):
    with pytest.raises(SchemaError, match=f"row key {key!r} must be a non-empty string"):
        relation_from_mapping({key: {"k": key}}, "k", ["k"])


@pytest.mark.parametrize(
    "pk, fields",
    [
        ("k", ["k", "k"]),  # duplicate field
        ("missing", ["a", "b"]),  # pk not among fields
        ("a", []),  # no fields at all
        ("a", ["a", "b.c"]),  # '.' reserved in base relations
        ("a", ["a", "x,y"]),  # ',' reserved
        ("a", ["a", ""]),  # empty name
        ("a", "ab"),  # a string, not a list of names
    ],
)
def test_create_relation_rejects_bad_schemas(pk, fields):
    with pytest.raises(SchemaError):
        create_relation(pk, fields)


def test_insert_validates_against_schema():
    def build(record):
        return relation_from_mapping({"1": record}, "ISBN", gd.BOOKS_FIELDS)

    with pytest.raises(SchemaError, match="missing the primary-key field 'ISBN'"):
        build({"title": "no key"})
    with pytest.raises(SchemaError, match="unknown field 'bogus'"):
        build({"ISBN": "1", "bogus": "x"})
    for key in ("", None):
        with pytest.raises(SchemaError, match=f"row key {key!r} must be a non-empty string"):
            build({"ISBN": key})
    assert build({"ISBN": "1", "title": None}).rows == {"1": {"ISBN": "1", "title": None}}


def test_star_graph_with_no_leaves():
    # A row whose only field is the key: the star graph's center with no edges.
    rel = relation_from_mapping({"only": {"k": "only"}}, "k", ["k"])
    assert rel.rows == {"only": {"k": "only"}}
    assert relation_equal(rel, Relation(Schema("k", ("k",)), {"only": {"k": "only"}}))


def test_relation_equal(books):
    assert relation_equal(books, books)
    changed = {**gd.BOOKS, "9780751404624": {**gd.BOOKS["9780751404624"], "title": "e. coli"}}
    assert not relation_equal(relation_from_mapping(changed, "ISBN", gd.BOOKS_FIELDS), books)


def test_relation_equal_distinguishes_empty_and_null():
    schema = Schema("k", ("k", "v"))
    a = Relation(schema, {"x": {"k": "x", "v": ""}})
    b = Relation(schema, {"x": {"k": "x", "v": None}})
    assert not relation_equal(a, b)


def test_relation_from_mapping_rejects_key_mismatch():
    with pytest.raises(SchemaError, match="row keyed 'a' carries primary-key value 'b'"):
        relation_from_mapping({"a": {"k": "b"}}, "k", ["k"])


def test_relation_from_mapping_keeps_the_mapping_in_order_and_copies_it():
    rng = random.Random(500)
    fields = ["id", "a", "b", "c"]
    mapping = {}
    for i in range(500):
        key = f"r{i}"
        record = {f: rng.choice(["", "x", "y", "zz", None]) for f in fields[1:] if rng.random() < 0.7}
        mapping[key] = {"id": key, **record}
    built = relation_from_mapping(mapping, "id", fields)
    assert built.schema == Schema("id", tuple(fields))
    assert built.rows == mapping and list(built.rows) == list(mapping)
    # The relation holds copies, not the caller's records.
    before = dict(mapping["r0"])
    mapping["r0"]["a"] = "changed"
    assert built.rows["r0"] == before


@pytest.mark.parametrize(
    "record",
    [
        {"k": "x", "bogus": "1"},  # unknown field
        {"k": "x", "v": 1},  # value that is not a string
        {"k": "", "v": "1"},  # empty primary-key value
        {"k": None, "v": "1"},  # null primary-key value
    ],
)
def test_relation_from_mapping_raises_what_put_record_raises(tmp_path, record):
    with TableFile(tmp_path / "t.sgt", Schema("k", ("k", "v"))) as table:
        with pytest.raises(SchemaError) as stored:
            table.put_record(record)
    with pytest.raises(SchemaError) as built:
        relation_from_mapping({record["k"]: record}, "k", ["k", "v"])
    assert str(built.value) == str(stored.value)


def test_every_exported_name_resolves_and_no_deleted_name_is_exported():
    for name in sgdb.__all__:
        assert getattr(sgdb, name) is not None, name
    deleted = {
        "insert_tuple", "delete_tuple", "get_tuple", "as_star_graph", "StarGraphView",
        "KeyNotFoundError", "SchemaMismatchError", "open_table",
    }
    assert deleted.isdisjoint(sgdb.__all__)
    assert not [name for name in deleted if hasattr(sgdb, name)]
