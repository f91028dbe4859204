"""Core data model: relations as keyed sets of star-graph tuples.

A relation is a map from row key to row, and a row is a plain dict from
field name to value.  That dict is the star graph of one tuple: its center
is the primary-key value and each of its other entries is a labeled edge to
that field's value.  There is no separate view type.

A relation has one constructor, ``Relation(schema, rows)``, which keeps the
rows it is given as they are, with no copy and no check: the operators and
scans that call it hand it rows they have just built and never change
afterwards.  Rows from outside the program are checked where they enter:
``relation_from_mapping`` is the checked builder for literals, and
``sgdb.storage`` checks what it reads from a file.

One function states the rule rows follow where they enter (``_check_row``),
and every base relation and every record in a table log follows it: the row
holds only the schema's fields, it is stored under its own primary-key value,
which is non-empty text, and each field holds text or ``None``.  ``None`` is
the explicit null a join produces when it nests an empty right tuple.  The
empty string ``""`` is an ordinary text value (it marks absent left-side
fields in right/outer joins) and is never equal to null.  Rows the operators
build hold only text and null too: they rearrange checked values and add
only ``""`` and null.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from sgdb.errors import SchemaError

Value = str | None
TupleRecord = dict[str, Value]

# Characters with reserved meaning in field names: "." is the flatten
# separator, "," and "=" belong to the projection/condition syntax.
_RESERVED = ",=."


@dataclass(frozen=True)
class Schema:
    """Primary-key field name plus the declared field order."""

    primary_key: str
    fields: tuple[str, ...]

    # The fields as a set, for the subset test of ``_check_row``.
    field_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "field_set", frozenset(self.fields))


class Relation:
    """A schema plus a map from row key to tuple record.

    Instances are treated as immutable values: every operation returns a new
    relation and never mutates its inputs, so relations are safe to share.
    The constructor keeps ``rows`` as given, with no copy and no check, so
    rows built by hand whose values are not text or null can make an operator
    raise a plain Python error such as ``TypeError``; ``relation_from_mapping``
    is the checked builder.

    ``bounded`` says that no row holds a field outside ``schema.fields``.  It
    is False unless the caller has proved it: storage sets it on what it
    reads, since every stored row follows ``_check_row``, and ``project``,
    ``select`` of a bounded relation and the joins given ``fields`` set it
    on what they build.  ``sgdb.render`` then takes the schema's fields as
    the columns, and ``sgdb.ops`` takes them as the fields the rows hold,
    without a pass over the rows.
    """

    __slots__ = ("schema", "rows", "bounded")

    def __init__(self, schema: Schema, rows: dict[str, TupleRecord], bounded: bool = False):
        self.schema = schema
        self.rows = rows
        self.bounded = bounded

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Relation(pk={self.schema.primary_key!r}, rows={len(self.rows)})"


def _check_row(key: object, row: Mapping[str, object], schema: Schema) -> None:
    """The stored-record rule: ``row`` holds the primary-key field and only
    ``schema``'s fields, its primary-key value is non-empty text and is
    ``key``, so the row sits under its own primary-key value, and every value
    is text or null.
    """
    pk = schema.primary_key
    if pk not in row:
        raise SchemaError(f"record is missing the primary-key field {pk!r}")
    if not schema.field_set.issuperset(row):
        # Plain loops name the offending field: a comprehension here would turn
        # this function's locals into closure cells and slow every call.
        for f in row:
            if f not in schema.field_set:
                raise SchemaError(f"unknown field {f!r} for this relation")
    own_key = row[pk]
    if type(own_key) is not str or not own_key:
        raise SchemaError(f"row key {own_key!r} must be a non-empty string")
    for v in row.values():
        if type(v) is not str and v is not None:
            for f in row:
                if row[f] is v:
                    raise SchemaError(f"field {f!r} of row {own_key!r} must hold a string or null, not {type(v).__name__}")
    if own_key != key:
        raise SchemaError(f"row keyed {key!r} carries primary-key value {own_key!r}")


def _check_field_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise SchemaError("field names must be non-empty strings")
    hit = [c for c in _RESERVED if c in name]
    if hit:
        raise SchemaError(f"field name {name!r} contains reserved character {hit[0]!r}")


def create_relation(pk_field: str, fields: list[str] | tuple[str, ...]) -> Relation:
    """Create an empty relation with the given primary key and field order.

    ``fields`` is a list or tuple of names: a string would give one field per character.
    """
    if type(fields) not in (list, tuple) or not fields:
        raise SchemaError(f"a relation needs a list of at least one field, not {fields!r}")
    seen = set()
    for f in fields:
        _check_field_name(f)
        if f in seen:
            raise SchemaError(f"duplicate field name {f!r}")
        seen.add(f)
    if pk_field not in seen:
        raise SchemaError(f"primary key {pk_field!r} is not among the fields")
    return Relation(Schema(primary_key=pk_field, fields=tuple(fields)), {})


def _checked_key(schema: Schema, record: Mapping[str, Value]) -> str:
    """The primary-key value of ``record``, once ``_check_row`` holds ``record`` to
    ``schema`` under it."""
    key = record.get(schema.primary_key)
    _check_row(key, record, schema)
    return key


def relation_equal(a: Relation, b: Relation) -> bool:
    """Data equality: same row keys, and per row the same field/value map.

    Field order is ignored (map semantics); ``""`` and null stay distinct.
    Schemas are not compared.
    """
    return a.rows == b.rows


def relation_from_mapping(
    mapping: Mapping[str, Mapping[str, Value]], primary_key: str, fields: list[str] | tuple[str, ...]
) -> Relation:
    """Build a base relation from a nested-dict literal: row key -> record.

    Each record is held to the stored-record rule under its row key (``_check_row``).
    """
    schema = create_relation(primary_key, fields).schema
    rows: dict[str, TupleRecord] = {}
    for key, record in mapping.items():
        _check_row(key, record, schema)
        rows[key] = dict(record)
    return Relation(schema, rows)
