import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_data as gd

from sgdb import ops
from sgdb.errors import (
    FieldCollisionError,
    KeyCollisionError,
    MissingJoinKeyError,
    NoCommonFieldError,
    NotJoinableError,
    SgdbError,
)
from sgdb.model import Relation, Schema, create_relation, relation_equal, relation_from_mapping
from sgdb.ops import (
    STAR,
    Condition,
    cartesian,
    inner_join,
    inner_join_run,
    left_join,
    natural_join,
    outer_join,
    project,
    rename,
    right_condition,
    right_join,
    select,
)
from sgdb.difftest import _exact
from sgdb.dsl import SelectStep
from sgdb.oracle import flatten, oracle_eval
from sgdb.render import columns_of


def rows(rel):
    return rel.rows


def with_rows(rel, *records):
    """``rel`` with ``records`` added under their primary-key values."""
    pk = rel.schema.primary_key
    return relation_from_mapping({**rel.rows, **{r[pk]: r for r in records}}, pk, rel.schema.fields)


# --- select ------------------------------------------------------------


def test_select_single_condition(books):
    assert rows(select(books, Condition("publisher", "O'Reilly"))) == gd.SELECT_OREILLY


def test_select_chained(books):
    sel = select(select(books, Condition("publisher", "O'Reilly")), Condition("first author", "Steven Bird"))
    assert rows(sel) == gd.SELECT_OREILLY_BIRD


def test_select_unknown_field_skips_every_row(books):
    assert rows(select(books, Condition("nosuchfield", "x"))) == {}


def test_select_empty_string_value_matches():
    rel = relation_from_mapping({"1": {"k": "1", "v": ""}}, "k", ["k", "v"])
    assert rows(select(rel, Condition("v", ""))) == {"1": {"k": "1", "v": ""}}


@pytest.mark.parametrize("value, kept", [(" x", ["a"]), ("x", ["b"]), ("x ", [])])
def test_select_and_the_oracle_compare_the_exact_value(value, kept):
    rel = relation_from_mapping({"a": {"k": "a", "v": " x"}, "b": {"k": "b", "v": "x"}}, "k", ["k", "v"])
    assert list(rows(select(rel, Condition("v", value)))) == kept
    assert list(rows(oracle_eval(SelectStep(Condition("v", value)), rel))) == kept


# --- project -----------------------------------------------------------


def test_project_two_fields(books):
    sel = select(books, Condition("publisher", "O'Reilly"))
    assert rows(project(sel, ["title", "catalog"])) == gd.PROJECT_TITLE_CATALOG


def test_project_star_keeps_everything(books):
    sel = select(books, Condition("publisher", "O'Reilly"))
    assert rows(project(sel, STAR)) == gd.SELECT_OREILLY


def test_project_missing_field_leaves_empty_records(books):
    result = project(books, ["nosuchfield"])
    assert len(result) == 5
    assert all(record == {} for record in rows(result).values())


def test_project_preserves_row_keys_no_dedup(books):
    # Both O'Reilly titles project to catalog 001 but stay separate rows.
    result = project(books, ["catalog"])
    assert len(result) == 5


# --- rename ------------------------------------------------------------


def test_rename_description_to_category(catalog):
    assert rows(rename(catalog, "description", "category")) == gd.RENAME_CATEGORY


def test_rename_twice(catalog):
    result = rename(rename(catalog, "description", "category"), "catalog", "code")
    assert rows(result) == gd.RENAME_CATEGORY_CODE
    assert result.schema.primary_key == "code"
    assert result.schema.fields == ("code", "category")


def test_rename_collision_is_an_error(catalog):
    with pytest.raises(FieldCollisionError):
        rename(catalog, "description", "description")
    with pytest.raises(FieldCollisionError):
        rename(catalog, "description", "catalog")
    # The error names the first row, in row order, that holds the new name.
    rel = Relation(Schema("id", ("x", "y")), {"b": {"x": "1"}, "c": {"x": "2", "y": "3"}, "a": {"y": "4"}})
    with pytest.raises(FieldCollisionError, match="^field 'y' already present in row 'c'$"):
        rename(rel, "x", "y")


def test_rename_absent_field_changes_nothing(catalog):
    assert relation_equal(rename(catalog, "ghost", "fresh"), catalog)


def test_rename_onto_a_schema_field_no_row_holds_names_it_once():
    rel = Relation(Schema("a", ("a", "b", "c")), {"k": {"a": "k", "c": "1"}})
    result = rename(rel, "c", "b")
    assert result.schema.fields == ("a", "b")
    assert rows(result) == {"k": {"a": "k", "b": "1"}}
    right = Relation(Schema("id", ("id", "x")), {"1": {"id": "1", "x": "y"}})
    assert left_join(result, right, "b").schema.fields == ("a", "b.id", "b.x")


# --- flatten -----------------------------------------------------------


def test_flatten_nested_record():
    record = {"a": "1", "c": {"catalog": "001", "description": "computing"}}
    assert flatten(record) == {
        "a": "1",
        "c.catalog": "001",
        "c.description": "computing",
    }


def test_flatten_empty_nested_record_becomes_null():
    assert flatten({"a": {}}) == {"a": None}


def test_flatten_flat_record_is_identity():
    assert flatten({"a": "1"}) == {"a": "1"}


def test_flatten_path_collision_is_an_error():
    with pytest.raises(KeyCollisionError):
        flatten({"a.b": "1", "a": {"b": "2"}})


# --- joins -------------------------------------------------------------


def test_inner_join_matches_golden(books, catalog):
    result = inner_join(books, catalog, "catalog")
    assert rows(result) == gd.NATURAL_JOIN
    assert rows(result)["9780751404624"] == {
        "ISBN": "9780751404624",
        "title": "E. coli",
        "publisher": "Blackie Academic",
        "first author": "Chris Bell",
        "catalog.catalog": "003",
        "catalog.description": "biology",
    }


def test_inner_join_equals_natural_join(books, catalog):
    assert relation_equal(inner_join(books, catalog, "catalog"), natural_join(books, catalog))


def test_inner_join_empty_right(books):
    empty = create_relation("catalog", ["catalog", "description"])
    assert rows(inner_join(books, empty, "catalog")) == {}


def test_left_join_all_matched(books, catalog):
    assert rows(left_join(books, catalog, "catalog")) == gd.NATURAL_JOIN


def test_left_join_unmatched_row_keeps_scalar_field(books, catalog):
    extra = {
        "ISBN": "9780596159819",
        "title": "New book",
        "publisher": "Amani",
        "first author": "Valeriy",
        "catalog": "009",
    }
    result = left_join(with_rows(books, extra), catalog, "catalog")
    assert len(result) == 6
    assert rows(result)["9780596159819"] == extra
    assert rows(result)["9780596159818"]["catalog.catalog"] == "001"


def test_left_join_empty_left(catalog):
    empty = create_relation("ISBN", list(gd.BOOKS_FIELDS))
    assert rows(left_join(empty, catalog, "catalog")) == {}


def test_left_join_match_on_empty_right_tuple_flattens_to_null(books):
    hollow = Relation(
        create_relation("catalog", ["catalog", "description"]).schema,
        {"001": {}},
    )
    result = left_join(books, hollow, "catalog")
    # inner_join drops rows whose match is an empty tuple; left_join nests it
    # and flattening the empty record yields the explicit null.
    assert rows(result)["9780596159818"]["catalog"] is None
    assert rows(inner_join(books, hollow, "catalog")) == {}


def test_right_join_all_referenced(books, catalog):
    assert rows(right_join(books, catalog, "catalog")) == gd.NATURAL_JOIN


def test_right_join_synthesizes_unreferenced_right_rows(books, catalog):
    bigger = with_rows(catalog, {"catalog": "004", "description": "news"})
    result = right_join(books, bigger, "catalog")
    assert len(result) == 6
    assert rows(result)["004"] == {
        "ISBN": "",
        "title": "",
        "publisher": "",
        "first author": "",
        "catalog.catalog": "004",
        "catalog.description": "news",
    }


def test_right_join_empty_right(books):
    empty = create_relation("catalog", ["catalog", "description"])
    assert rows(right_join(books, empty, "catalog")) == {}


def test_outer_join_all_matched(books, catalog):
    assert rows(outer_join(books, catalog, "catalog")) == gd.NATURAL_JOIN


def test_outer_join_combines_passthrough_and_synthesis(books, catalog):
    extra_book = {
        "ISBN": "9780596159819",
        "title": "New book",
        "publisher": "Amani",
        "first author": "Valeriy",
        "catalog": "009",
    }
    bigger_books = with_rows(books, extra_book)
    bigger_catalog = with_rows(catalog, {"catalog": "004", "description": "news"})
    result = outer_join(bigger_books, bigger_catalog, "catalog")
    assert len(result) == 5 + 1 + 1
    assert rows(result)["9780596159819"] == extra_book
    assert rows(result)["004"]["catalog.description"] == "news"


def test_outer_join_both_empty():
    left = create_relation("a", ["a", "k"])
    right = create_relation("k", ["k", "v"])
    assert rows(outer_join(left, right, "k")) == {}


def test_joins_require_a_key(books, catalog):
    for op in (inner_join, left_join, right_join, outer_join, cartesian):
        with pytest.raises(MissingJoinKeyError):
            op(books, catalog, "")


def test_synthesized_key_collision_is_an_error():
    # Left row keyed "x" matches right "y"; right row "x" is unreferenced, so
    # its synthesized key collides with the existing result row "x".
    left = relation_from_mapping({"x": {"lid": "x", "ref": "y"}}, "lid", ["lid", "ref"])
    right = relation_from_mapping({"y": {"ref": "y", "v": "1"}, "x": {"ref": "x", "v": "2"}}, "ref", ["ref", "v"])
    with pytest.raises(KeyCollisionError):
        right_join(left, right, "ref")
    with pytest.raises(KeyCollisionError):
        outer_join(left, right, "ref")


# --- cartesian ---------------------------------------------------------


def test_cartesian_full(books, catalog):
    result = cartesian(books, catalog, "catalog")
    assert rows(result) == gd.CARTESIAN_FULL
    assert rows(result)["9780596516499_003"] == {
        "ISBN": "9780596516499",
        "title": "Natural language processing Python",
        "publisher": "O'Reilly",
        "first author": "Steven Bird",
        "catalog.catalog": "003",
        "catalog.description": "biology",
    }


def test_cartesian_key_shape(books, catalog):
    result = cartesian(books, catalog, "catalog")
    assert set(rows(result)) == {f"{b}_{c}" for b in gd.BOOKS for c in gd.CATALOG}


def test_cartesian_then_select(books, catalog):
    result = select(cartesian(books, catalog, "catalog"), Condition("first author", "Chris Bell"))
    assert rows(result) == gd.CARTESIAN_CHRIS_BELL


def test_cartesian_single_right_row(books, catalog):
    single = Relation(catalog.schema, {"001": catalog.rows["001"]})
    assert len(cartesian(books, single, "catalog")) == 5


def test_cartesian_every_row_is_flattened(books, catalog):
    for record in rows(cartesian(books, catalog, "catalog")).values():
        assert not any(isinstance(v, dict) for v in record.values())


# --- natural join ------------------------------------------------------


def test_natural_join_golden(books, catalog):
    assert rows(natural_join(books, catalog)) == gd.NATURAL_JOIN


def test_natural_join_requires_common_field(books):
    other = create_relation("x", ["x", "y"])
    with pytest.raises(NoCommonFieldError):
        natural_join(books, other)


def test_natural_join_requires_right_pk_shared(books):
    # Shares 'title' with books, but its own key field is 'code'.
    other = create_relation("code", ["code", "title"])
    with pytest.raises(NotJoinableError):
        natural_join(books, other)


# --- composition and purity ---------------------------------------------


def test_pipeline_inner_select_project(books, catalog):
    step = inner_join(books, catalog, "catalog")
    step = select(step, Condition("catalog.catalog", "001"))
    step = project(step, ["title", "catalog.description"])
    assert rows(step) == gd.PIPELINE_COMPUTING_TITLES


def test_operators_leave_inputs_untouched(books, catalog):
    books_before = copy.deepcopy(books.rows)
    catalog_before = copy.deepcopy(catalog.rows)
    select(books, Condition("publisher", "O'Reilly"))
    project(books, ["title"])
    rename(catalog, "description", "category")
    inner_join(books, catalog, "catalog")
    left_join(books, catalog, "catalog")
    right_join(books, catalog, "catalog")
    outer_join(books, catalog, "catalog")
    cartesian(books, catalog, "catalog")
    natural_join(books, catalog)
    assert books.rows == books_before
    assert catalog.rows == catalog_before


# --- joined rows against the nest-then-flatten formula --------------------
#
# The reference operators below build every joined row the way the paper
# defines it: nest the right tuple under the joining field of a copy of the
# left row, then flatten.  The operators build rows another way and must give
# the same rows, in the same field order, and the same errors.


def _ref_row(lrow, key, rrow):
    return flatten({**lrow, key: dict(rrow)})


def _ref_inner(left, right, key):
    rows = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        if v in right.rows and right.rows[v]:
            rows[k] = _ref_row(lrow, key, right.rows[v])
    return rows


def _ref_left(left, right, key):
    rows = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        rows[k] = _ref_row(lrow, key, right.rows[v]) if v in right.rows else flatten(lrow)
    return rows


def _ref_synthesized(left, right, key, rows):
    referenced = {lrow.get(key) for lrow in left.rows.values()}
    for rk, rrow in right.rows.items():
        if rk in referenced:
            continue
        synth = {f: dict(rrow) if f == key else "" for f in left.schema.fields}
        if rk in rows:
            raise KeyCollisionError(f"synthesized right row key {rk!r} collides with an existing result row")
        rows[rk] = flatten(synth)
    return rows


def _ref_cartesian(left, right, key):
    rows = {}
    for lk, lrow in left.rows.items():
        for rk, rrow in right.rows.items():
            pair_key = f"{lk}_{rk}"
            if pair_key in rows:
                raise KeyCollisionError(f"pair key {pair_key!r} produced twice")
            rows[pair_key] = _ref_row(lrow, key, rrow)
    return rows


REFERENCES = {
    inner_join: _ref_inner,
    left_join: _ref_left,
    right_join: lambda left, right, key: _ref_synthesized(left, right, key, _ref_inner(left, right, key)),
    outer_join: lambda left, right, key: _ref_synthesized(left, right, key, _ref_left(left, right, key)),
    cartesian: _ref_cartesian,
}

RIGHT_FIELDS = ["id", "a", "b", "k", "a.b"]
# Underscored row keys make cartesian pair keys collide ("1" + "2_x" and "1_2" + "x").
ROW_KEYS = st.sampled_from(["1", "2", "x", "1_2", "2_x"])
TEXT = st.none() | st.sampled_from(["1", "2", "x", "", "1_2"])
JOIN_FIELDS = st.sampled_from(["k", "n", "a"])


@st.composite
def _relation(draw, fields, key):
    """Up to four rows of fields drawn from ``fields`` in any order, so rows need
    not match the schema; about half of them carry ``key`` holding a row key."""
    rows = {}
    for row_key in draw(st.lists(ROW_KEYS, max_size=4, unique=True)):
        pairs = draw(st.lists(st.tuples(st.sampled_from(fields), TEXT), max_size=4))
        if draw(st.booleans()):
            pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(ROW_KEYS)))
        rows[row_key] = dict(pairs)
    schema_fields = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=4, unique=True))
    return Relation(Schema("id", tuple(schema_fields)), rows)


def _bounded(rel):
    """``rel``'s rows as a bounded relation whose schema names every field they
    hold after the fields ``rel``'s schema names, some of which no row may hold."""
    fields = dict.fromkeys(rel.schema.fields)
    for row in rel.rows.values():
        fields.update(dict.fromkeys(row))
    return Relation(Schema(rel.schema.primary_key, tuple(fields)), rel.rows, True)


@st.composite
def _maybe_bounded(draw, rel):
    """``rel``, or, half the time, ``_bounded(rel)``."""
    return _bounded(rel) if draw(st.booleans()) else rel


@st.composite
def _join_inputs(draw):
    key = draw(JOIN_FIELDS)
    # Dotted left fields collide with the part a right tuple flattens to at ``key``.
    left_fields = ["id", "a", "k", "n", f"{key}.a", f"{key}.b", f"{key}.a.b"]
    left = draw(_relation(left_fields, key))
    if draw(st.booleans()):
        # Chain: heterogeneous rows (a left join's output) with dotted fields.
        try:
            left = left_join(left, draw(_relation(RIGHT_FIELDS, key)), draw(JOIN_FIELDS))
        except Exception:
            pass
    return left, draw(_relation(RIGHT_FIELDS, key)), key


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    rows = result.rows if isinstance(result, Relation) else result
    return [(key, list(row.items())) for key, row in rows.items()]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(inputs=_join_inputs())
# outer_join: the right row keyed "1" collides with a result row key before its
# synthesized row (with "k.a" twice) is built, so the row-key error wins.
@example(inputs=(
    Relation(Schema("id", ("k", "k.a")), {"1": {"k": "x"}}),
    Relation(Schema("id", ("a",)), {"1": {"a": "v"}}),
    "k",
))
# The left field "k.a" comes before "k", so flattening meets it again in the
# right tuple's part.
@example(inputs=(
    Relation(Schema("id", ("k.a", "k")), {"1": {"k.a": "v", "k": "1"}}),
    Relation(Schema("id", ("a",)), {"1": {"a": "w"}}),
    "k",
))
# The left field "k.a" comes after "k", so flattening meets it again after the part.
@example(inputs=(
    Relation(Schema("id", ("k", "k.a")), {"1": {"k": "1", "k.a": "v"}}),
    Relation(Schema("id", ("a",)), {"1": {"a": "w"}}),
    "k",
))
# right_join: no left row references the right row "1", and its synthesized
# row nests "k.a" at "k" next to the blank left field "k.a".
@example(inputs=(
    Relation(Schema("id", ("k", "k.a")), {"2": {"k": "x"}}),
    Relation(Schema("id", ("a",)), {"1": {"a": "w"}}),
    "k",
))
# The left schema names "k.a", which no row holds, so nothing collides, and the
# joined schema names "k.a" once though the right schema dots "a" to it again.
@example(inputs=(
    Relation(Schema("id", ("id", "k", "k.a")), {"1": {"id": "1", "k": "r"}}),
    Relation(Schema("id", ("a",)), {"r": {"a": "v"}}),
    "k",
))
def test_joined_rows_equal_nest_then_flatten(inputs):
    left, right, key = inputs
    before = copy.deepcopy((left.rows, right.rows))
    for op, reference in REFERENCES.items():
        assert _outcome(op, left, right, key) == _outcome(reference, left, right, key), op.__name__
        try:
            fields = op(left, right, key).schema.fields
        except SgdbError:
            continue
        assert len(set(fields)) == len(fields), op.__name__
    assert (left.rows, right.rows) == before


@st.composite
def _join_inputs_and_columns(draw):
    """Join inputs whose right tuples may be empty, whose left rows hold fields
    under the joining field half the time, which the right fields ``a`` and
    ``id`` then collide with, and columns from both sides, the joining field,
    a field no row holds and repeats."""
    key = draw(JOIN_FIELDS)
    dotted = [f"{key}.a", f"{key}.id"] if draw(st.booleans()) else []
    left = draw(_relation(["id", "a", "k", "n", *dotted], key))
    right = draw(_relation(RIGHT_FIELDS, key))
    names = ["id", "a", "k", "n", "ghost", f"{key}.id", f"{key}.a", f"{key}.k", f"{key}.a.b"]
    return left, right, key, draw(st.lists(st.sampled_from(names), max_size=5))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(inputs=_join_inputs_and_columns())
# An empty right tuple: the pair holds the joining field as null, from the right.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "x"}}),
    Relation(Schema("id", ("a",)), {"x": {}}),
    "k",
    ["k", "id", "k"],
))
# No columns: every row is kept and holds no field.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "x"}}),
    Relation(Schema("id", ("a",)), {"x": {"a": "v"}}),
    "k",
    [],
))
# A left field under the joining field: the column "k.a" is the left row's, and
# flattening meets it twice, so the project of the join raises.
@example(inputs=(
    Relation(Schema("id", ("id", "k", "k.a")), {"1": {"id": "1", "k": "r", "k.a": "left"}}),
    Relation(Schema("id", ("a",)), {"r": {"a": "right"}}),
    "k",
    ["id", "k.a"],
))
# Columns that interleave the two sides: the row built left pick first is
# re-laid in column order.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}, "2": {"k": "r", "id": "2"}}),
    Relation(Schema("id", ("id", "a")), {"r": {"id": "r", "a": "v"}}),
    "k",
    ["k.a", "id", "k.id"],
))
# Left columns first, then right ones: no re-lay, the merge order is the column order.
@example(inputs=(
    Relation(Schema("id", ("id", "n", "k")), {"1": {"k": "r", "n": "m", "id": "1"}}),
    Relation(Schema("id", ("id", "a")), {"r": {"a": "v", "id": "r"}}),
    "k",
    ["id", "n", "k.a", "k.id"],
))
# A left row that lacks a requested left column omits it, and only it.
@example(inputs=(
    Relation(Schema("id", ("id", "n", "k")), {"1": {"id": "1", "k": "r"}, "2": {"n": "m", "k": "r"}}),
    Relation(Schema("id", ("a",)), {"r": {"a": "v"}}),
    "k",
    ["n", "id", "k.a"],
))
# A cross over an empty right tuple with the joining field between left
# columns: the null at "k" comes from the right and sits between them.
@example(inputs=(
    Relation(Schema("id", ("id", "k", "n")), {"1": {"id": "1", "k": "x", "n": "m"}}),
    Relation(Schema("id", ("a",)), {"x": {}}),
    "k",
    ["id", "k", "n"],
))
def test_a_join_given_columns_equals_the_project_of_the_join(inputs):
    left, right, key, columns = inputs
    assert _exact(inner_join_run, left, [(right, key)], columns) == _exact(
        lambda: project(inner_join(left, right, key), columns)
    )
    assert _exact(cartesian, left, right, key, columns) == _exact(
        lambda: project(cartesian(left, right, key), columns)
    )


@st.composite
def _join_inputs_and_condition(draw):
    """Join inputs and a condition ``<key>.<f> = v`` for a field and value some
    right row holds, when one does.  Half the time the left rows lose their
    fields under ``key``, which they hold in most draws."""
    left, right, key = draw(_join_inputs())
    if draw(st.booleans()):
        prefix = key + "."
        rows = {k: {f: v for f, v in row.items() if not f.startswith(prefix)} for k, row in left.rows.items()}
        left = Relation(left.schema, rows)
    left, right = draw(_maybe_bounded(left)), draw(_maybe_bounded(right))
    held = [(f, v) for row in right.rows.values() for f, v in row.items() if v is not None]
    field, value = draw(st.sampled_from(held or [("a", "x")]))
    return left, right, key, Condition(f"{key}.{field}", value)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(inputs=_join_inputs_and_condition())
# The full cross keys both "1" + "2_x" and "1_2" + "x" as "1_2_x"; the select
# keeps only the right row "x", so run first it would hide the duplicate.
@example(inputs=(
    Relation(Schema("id", ("id",)), {"1": {"id": "1"}, "1_2": {"id": "1_2"}}),
    Relation(Schema("id", ("a",)), {"2_x": {"a": "u"}, "x": {"a": "v"}}),
    "k",
    Condition("k.a", "v"),
))
def test_a_select_on_the_right_condition_first_equals_the_select_of_the_join(inputs):
    left, right, key, cond = inputs
    for op, pairs in ((inner_join, False), (cartesian, True)):
        right_cond = right_condition(left, key, cond, pairs)
        if right_cond is not None:
            assert _exact(op, left, select(right, right_cond), key) == _exact(
                lambda: select(op(left, right, key), cond)
            ), op.__name__


def test_project_given_a_string_other_than_star_is_a_type_error(books):
    with pytest.raises(TypeError, match="columns"):
        project(books, "title")
    assert relation_equal(project(books, STAR), books)


def test_a_cross_given_star_as_fields_is_the_plain_cross(books, catalog):
    plain = cartesian(books, catalog, "catalog")
    assert _exact(cartesian, books, catalog, "catalog", STAR) == _exact(lambda: plain)
    assert _exact(cartesian, books, catalog, "catalog", STAR) == _exact(lambda: project(plain, STAR))


def test_a_cross_given_a_string_other_than_star_as_fields_is_a_type_error(books, catalog):
    with pytest.raises(TypeError, match="fields"):
        cartesian(books, catalog, "catalog", "title")


def test_a_run_of_one_given_star_as_fields_is_the_plain_join(books, catalog):
    plain = inner_join(books, catalog, "catalog")
    assert _exact(inner_join_run, books, iter([(catalog, "catalog")]), STAR) == _exact(lambda: plain)
    assert _exact(inner_join_run, books, iter([(catalog, "catalog")]), STAR) == _exact(lambda: project(plain, STAR))


def test_a_run_given_a_string_other_than_star_as_fields_is_a_type_error_before_a_step_is_taken(books, catalog):
    steps = iter([(catalog, "catalog")])
    with pytest.raises(TypeError, match="fields"):
        inner_join_run(books, steps, "title")
    assert next(steps, None) is not None


def _fold_of_inner_joins(left, steps, columns):
    rel = left
    for right, key in steps:
        rel = inner_join(rel, right, key)
    return project(rel, columns)


@st.composite
def _run_inputs(draw):
    """A left relation, one to three inner-join steps and columns.  A later key
    is often an earlier step's dotted field (``k.k``, ``k.a``), which the right
    rows of that step may hold as ``k`` or ``a``; it may also repeat an earlier
    key, which that step replaced.  Left rows may hold fields under the first
    key, right rows may be empty or hold the dotted field ``a.b``, rows may
    lack their key, and columns come from every piece, repeat or name no field."""
    first = draw(JOIN_FIELDS)
    dotted = [f"{first}.a", f"{first}.a.b"] if draw(st.booleans()) else []
    left = draw(_maybe_bounded(draw(_relation(["id", "a", "k", "n", *dotted], first))))
    keys = [first]
    for _ in range(draw(st.integers(0, 2))):
        earlier = draw(st.sampled_from(keys))
        keys.append(draw(st.sampled_from([f"{earlier}.k"] * 3 + [f"{earlier}.a", earlier, "k", "n", ""])))
    steps = [(draw(_maybe_bounded(draw(_relation(RIGHT_FIELDS, "k")))), key) for key in keys]
    names = ["id", "a", "n", "ghost", *keys, *(f"{key}.{f}" for key in keys for f in ("a", "b", "id", "a.b"))]
    return left, steps, draw(st.lists(st.sampled_from(names), max_size=6))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(inputs=_run_inputs())
# The second key is the first step's dotted field "k.k": it is read from the
# first step's right row, as "k", not from the left row, which holds "k" too.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}}),
    [
        (Relation(Schema("id", ("a", "k")), {"r": {"a": "x", "k": "s"}, "s": {"a": "y", "k": "r"}}), "k"),
        (Relation(Schema("id", ("a",)), {"r": {"a": "v"}, "s": {"a": "w"}}), "k.k"),
    ],
    ["id", "k.k.a", "k.a"],
))
# No left field is under the second key "k.b", but the first step adds "k.b.x"
# from its right row's dotted field "b.x", and the second step's part meets it
# again: the fold raises, so the run may not take its one pass.
@example(inputs=(
    Relation(Schema("id", ("k",)), {"1": {"k": "r"}}),
    [
        (Relation(Schema("id", ("b", "b.x")), {"r": {"b": "s", "b.x": "v"}}), "k"),
        (Relation(Schema("id", ("x",)), {"s": {"x": "w"}}), "k.b"),
    ],
    ["k.b.x"],
))
# The second key repeats the first, whose field the first step replaced.
@example(inputs=(
    Relation(Schema("id", ("k",)), {"1": {"k": "r"}}),
    [(Relation(Schema("id", ("a",)), {"r": {"a": "r"}}), "k")] * 2,
    ["k.a"],
))
# A run of one whose columns interleave the left row and the part: the row is
# re-laid in column order.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}, "2": {"k": "s", "id": "2"}}),
    [(Relation(Schema("id", ("a",)), {"r": {"a": "v"}, "s": {"a": "w"}}), "k")],
    ["k.a", "id"],
))
# The first step's right tuples are all empty, so it adds no field under "k"
# and the run takes its one pass, and the second step repeats its key "k":
# the first step matches no row, so neither does the second.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}}),
    [
        (Relation(Schema("id", ("a",)), {"r": {}}), "k"),
        (Relation(Schema("id", ("a",)), {"r": {"a": "v"}}), "k"),
    ],
    ["id", "k", "k.a"],
))
# A matched run of one whose columns name the bare key and a field no right
# row holds: the part is picked from the right row, and holds neither.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}, "2": {"id": "2", "k": "s"}}),
    [(Relation(Schema("id", ("a",)), {"r": {"a": "v"}, "s": {"a": "w"}}), "k")],
    ["id", "k", "k.ghost", "k.a"],
))
# A right row holding the dotted field "a.b", named by the column "k.a.b".
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}}),
    [(Relation(Schema("id", ("a", "a.b")), {"r": {"a.b": "v"}}), "k")],
    ["k.a.b", "id", "k.a"],
))
# The chained second key "k.k" named as a column beside "k.k.a": the second
# step's part replaces "k.k", so the bare key is absent.
@example(inputs=(
    Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}}),
    [
        (Relation(Schema("id", ("a", "k")), {"r": {"a": "x", "k": "s"}}), "k"),
        (Relation(Schema("id", ("a",)), {"s": {"a": "y"}}), "k.k"),
    ],
    ["id", "k.k.a", "k.k"],
))
def test_an_inner_join_run_equals_the_plain_fold(inputs):
    left, steps, columns = inputs
    assert _exact(inner_join_run, left, iter(steps), columns) == _exact(_fold_of_inner_joins, left, steps, columns)


def test_a_run_in_one_pass_neither_flattens_nor_calls_pick(monkeypatch):
    """The one pass picks each part straight from the right row and the left
    row inline, yet gives the plain fold's result."""

    def fail(*args):
        raise AssertionError("the one pass called a per-row helper")

    left = Relation(Schema("id", ("id", "k")), {"1": {"id": "1", "k": "r"}, "2": {"id": "2", "k": "s"}})
    right = Relation(Schema("id", ("a", "k")), {"r": {"a": "x", "k": "s"}, "s": {"a": "y", "k": "r"}})
    steps = [(right, "k"), (right, "k.k")]
    columns = ["k.k.a", "id", "k.a", "ghost", "k.k"]
    expected = _exact(_fold_of_inner_joins, left, steps, columns)
    monkeypatch.setattr(ops, "_right_part", fail)
    monkeypatch.setattr(ops, "_pick", fail)
    assert _exact(inner_join_run, left, steps, columns) == expected


def _columns_held(rel):
    """The columns ``render`` gives ``rel``'s rows under its schema, read from the rows."""
    return columns_of(Relation(rel.schema, rel.rows))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    inputs=_join_inputs(),
    columns=st.lists(st.sampled_from(["id", "a", "k", "n", "ghost", "k.a", "n.a", "a.a", "k.a.b", "k.k.a"]), max_size=5),
    bounded=st.booleans(),
)
def test_a_bounded_result_holds_only_its_schema_fields(inputs, columns, bounded):
    left, right, key = inputs
    if bounded:
        left, right = _bounded(left), _bounded(right)
    outputs = [
        lambda: project(left, columns),
        lambda: project(right, columns),
        lambda: inner_join_run(left, [(right, key)], columns),
        lambda: inner_join_run(left, [(right, key), (right, f"{key}.k")], columns),
        lambda: cartesian(left, right, key, columns),
        lambda: select(project(left, columns), Condition("a", "1")),
    ]
    if bounded:
        outputs += [lambda: project(left, STAR), lambda: select(left, Condition("a", "1"))]
    for output in outputs:
        try:
            rel = output()
        except SgdbError:
            continue
        assert rel.bounded
        assert all(set(row) <= set(rel.schema.fields) for row in rel.rows.values())
        assert columns_of(rel) == _columns_held(rel) == list(rel.schema.fields)
