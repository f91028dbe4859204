import random

import pytest

import golden_data as gd

from sgdb.errors import KeyNotFoundError, SchemaError
from sgdb.model import (
    Relation,
    Schema,
    as_star_graph,
    create_relation,
    delete_tuple,
    get_tuple,
    insert_tuple,
    relation_equal,
    relation_from_mapping,
)


def test_create_relation_schemas():
    books = create_relation("ISBN", list(gd.BOOKS_FIELDS))
    assert books.schema.primary_key == "ISBN"
    assert books.schema.fields == gd.BOOKS_FIELDS
    assert len(books) == 0
    catalog = create_relation("catalog", ["catalog", "description"])
    assert catalog.schema.fields == ("catalog", "description")


def test_derive_replaces_only_the_parts_it_is_given():
    schema = create_relation("ISBN", list(gd.BOOKS_FIELDS)).schema
    assert schema.derive(fields=("ISBN", "title")) == Schema("ISBN", ("ISBN", "title"))
    assert schema.derive(primary_key="title") == Schema("title", gd.BOOKS_FIELDS)


@pytest.mark.parametrize("value", [{"a": "x"}, 1, ["x"]])
def test_relation_rows_hold_only_text_and_null(value):
    schema = Schema("k", ("k", "v"))
    assert Relation(schema, {"1": {"k": "1", "v": None}}).rows["1"]["v"] is None
    with pytest.raises(SchemaError, match=f"field 'v' of row '1' must hold a string or null, not {type(value).__name__}"):
        Relation(schema, {"1": {"k": "1", "v": value}})


@pytest.mark.parametrize(
    "pk, fields",
    [
        ("k", ["k", "k"]),  # duplicate field
        ("missing", ["a", "b"]),  # pk not among fields
        ("a", []),  # no fields at all
        ("a", ["a", "b.c"]),  # '.' reserved in base relations
        ("a", ["a", "x,y"]),  # ',' reserved
        ("a", ["a", ""]),  # empty name
    ],
)
def test_create_relation_rejects_bad_schemas(pk, fields):
    with pytest.raises(SchemaError):
        create_relation(pk, fields)


def test_insert_new_key_grows_relation(books, catalog):
    extra = {
        "ISBN": "9780596159819",
        "title": "New book",
        "publisher": "Amani",
        "first author": "Valeriy",
        "catalog": "004",
    }
    grown = insert_tuple(books, extra)
    assert len(grown) == 6
    assert get_tuple(grown, "9780596159819") == extra
    assert len(insert_tuple(catalog, {"catalog": "005", "description": "News"})) == 4


def test_insert_existing_key_replaces(books):
    row = get_tuple(books, "9780596159818")
    again = insert_tuple(books, row)
    assert len(again) == 5
    assert relation_equal(again, books)


def test_insert_validates_against_schema(books):
    with pytest.raises(SchemaError):
        insert_tuple(books, {"title": "no key"})
    with pytest.raises(SchemaError):
        insert_tuple(books, {"ISBN": "1", "bogus": "x"})
    with pytest.raises(SchemaError):
        insert_tuple(books, {"ISBN": ""})
    with pytest.raises(SchemaError):
        insert_tuple(books, {"ISBN": "1", "title": None})


def test_delete_tuple(books):
    smaller = delete_tuple(books, "9780751404624")
    assert len(smaller) == 4
    assert "9780751404624" not in smaller
    with pytest.raises(KeyNotFoundError):
        delete_tuple(books, "999")


def test_delete_then_reinsert_is_identity(books):
    row = get_tuple(books, "9780596159818")
    assert relation_equal(insert_tuple(delete_tuple(books, "9780596159818"), row), books)


def test_get_tuple(books, catalog):
    assert get_tuple(books, "9780751404624") == {
        "ISBN": "9780751404624",
        "title": "E. coli",
        "publisher": "Blackie Academic",
        "first author": "Chris Bell",
        "catalog": "003",
    }
    assert get_tuple(catalog, "002") == {"catalog": "002", "description": "academic skills"}
    with pytest.raises(KeyNotFoundError):
        get_tuple(catalog, "zzz")


def test_get_tuple_returns_a_copy(books):
    get_tuple(books, "9780751404624")["title"] = "clobbered"
    assert books.rows["9780751404624"]["title"] == "E. coli"


def test_as_star_graph(books, catalog):
    view = as_star_graph(books, "9780751404624")
    assert view.center == "9780751404624"
    assert view.edges == (
        ("title", "E. coli"),
        ("publisher", "Blackie Academic"),
        ("first author", "Chris Bell"),
        ("catalog", "003"),
    )
    assert as_star_graph(catalog, "001").edges == (("description", "computing"),)
    with pytest.raises(KeyNotFoundError):
        as_star_graph(catalog, "zzz")


def test_star_graph_with_no_leaves():
    rel = insert_tuple(create_relation("k", ["k"]), {"k": "only"})
    assert as_star_graph(rel, "only").edges == ()


def test_star_graph_edge_count_matches_field_count(books):
    for key, row in books.rows.items():
        assert len(as_star_graph(books, key).edges) == len(row) - 1


def test_relation_equal(books):
    assert relation_equal(books, books)
    changed = insert_tuple(books, {**books.rows["9780751404624"], "title": "e. coli"})
    assert not relation_equal(changed, books)


def test_relation_equal_distinguishes_empty_and_null():
    from sgdb.model import Relation, Schema

    schema = Schema("k", ("k", "v"))
    a = Relation(schema, {"x": {"k": "x", "v": ""}})
    b = Relation(schema, {"x": {"k": "x", "v": None}})
    assert not relation_equal(a, b)


def test_relation_from_mapping_converts_inline_pk_entry(books):
    # The legacy literal form keeps a 'primary key' entry next to the rows;
    # conversion must not leave a phantom row behind.
    converted = relation_from_mapping({"primary key": "ISBN", **gd.BOOKS})
    assert relation_equal(converted, books)
    assert "primary key" not in converted.rows
    assert converted.schema.primary_key == "ISBN"


def test_relation_from_mapping_rejects_key_mismatch():
    with pytest.raises(SchemaError):
        relation_from_mapping({"a": {"k": "b"}}, primary_key="k")


def _insert_fold(mapping, primary_key, fields):
    rel = create_relation(primary_key, fields)
    for record in mapping.values():
        rel = insert_tuple(rel, record)
    return rel


def test_relation_from_mapping_equals_the_insert_tuple_fold():
    rng = random.Random(500)
    fields = ["id", "a", "b", "c"]
    mapping = {}
    for i in range(500):
        key = f"r{i}"
        record = {f: rng.choice(["", "x", "y", "zz"]) for f in fields[1:] if rng.random() < 0.7}
        mapping[key] = {"id": key, **record}
    built = relation_from_mapping(mapping, primary_key="id", fields=fields)
    folded = _insert_fold(mapping, "id", fields)
    assert built.schema == folded.schema
    assert built.rows == folded.rows and list(built.rows) == list(folded.rows)
    # The relation holds copies, not the caller's records.
    mapping["r0"]["a"] = "changed"
    assert built.rows["r0"] == folded.rows["r0"]


@pytest.mark.parametrize(
    "record",
    [
        {"k": "x", "bogus": "1"},  # unknown field
        {"k": "x", "v": 1},  # value that is not a string
        {"k": "", "v": "1"},  # empty primary-key value
    ],
)
def test_relation_from_mapping_raises_what_insert_tuple_raises(record):
    mapping = {record["k"]: record}
    with pytest.raises(SchemaError) as folded:
        _insert_fold(mapping, "k", ["k", "v"])
    with pytest.raises(SchemaError) as built:
        relation_from_mapping(mapping, primary_key="k", fields=["k", "v"])
    assert str(built.value) == str(folded.value)
