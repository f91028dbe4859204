"""Core data model: relations as keyed sets of star-graph tuples.

A relation is a map from row key to row, and a row is a plain dict from
field name to value.  That dict is the star graph of one tuple: its center
is the primary-key value and each of its other entries is a labeled edge to
that field's value.  There is no separate view type.

One value rule serves every relation and every stored record
(``_check_row``): the row key is non-empty text, and a field holds text or
``None``, the explicit null produced when an empty nested record is
flattened.  The empty string ``""`` is an ordinary text value (it marks
absent left-side fields in right/outer joins) and is never equal to null.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping

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

    def derive(self, fields: tuple[str, ...] | None = None, primary_key: str | None = None) -> "Schema":
        """This schema with the given parts replaced."""
        return replace(
            self,
            fields=self.fields if fields is None else tuple(fields),
            primary_key=self.primary_key if primary_key is None else primary_key,
        )


class Relation:
    """A schema plus a map from row key to tuple record.

    Instances are treated as immutable values: every operation returns a new
    relation and never mutates its inputs, so relations are safe to share.
    The constructor copies every row and checks it with ``_check_row``.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Mapping[str, TupleRecord] | None = None):
        self.schema = schema
        self.rows: dict[str, TupleRecord] = {k: dict(v) for k, v in (rows or {}).items()}
        for key, row in self.rows.items():
            _check_row(key, row)

    @classmethod
    def _adopt(cls, schema: Schema, rows: dict[str, TupleRecord]) -> "Relation":
        """Wrap ``rows`` without copying them.

        Only for rows the caller has just built and holds no other reference
        to, such as an operator's result; everyone else goes through the
        copying constructor.
        """
        rel = cls.__new__(cls)
        rel.schema = schema
        rel.rows = rows
        return rel

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation(pk={self.schema.primary_key!r}, rows={len(self.rows)})"


def _check_row(key: object, row: Mapping[str, object]) -> None:
    """The value rule: ``key`` is non-empty text, and every value of ``row`` is text or null."""
    if not isinstance(key, str) or not key:
        raise SchemaError(f"row key {key!r} must be a non-empty string")
    for f, v in row.items():
        if not isinstance(v, str) and v is not None:
            raise SchemaError(f"field {f!r} of row {key!r} must hold a string or null, not {type(v).__name__}")


def _check_field_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise SchemaError("field names must be non-empty strings")
    hit = [c for c in _RESERVED if c in name]
    if hit:
        raise SchemaError(f"field name {name!r} contains reserved character {hit[0]!r}")


def create_relation(pk_field: str, fields: list[str] | tuple[str, ...]) -> Relation:
    """Create an empty relation with the given primary key and field order."""
    if not fields:
        raise SchemaError("a relation needs at least one field")
    seen = set()
    for f in fields:
        _check_field_name(f)
        if f in seen:
            raise SchemaError(f"duplicate field name {f!r}")
        seen.add(f)
    if pk_field not in seen:
        raise SchemaError(f"primary key {pk_field!r} is not among the fields")
    return Relation(Schema(primary_key=pk_field, fields=tuple(fields)))


def _checked_key(schema: Schema, record: Mapping[str, Value]) -> str:
    """The primary-key value of ``record``, once its fields are checked against ``schema``
    and its values against the value rule."""
    pk = schema.primary_key
    if pk not in record:
        raise SchemaError(f"record is missing the primary-key field {pk!r}")
    for f in record:
        if f not in schema.fields:
            raise SchemaError(f"unknown field {f!r} for this relation")
    _check_row(record[pk], record)
    return record[pk]


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

    Each record must pass ``_checked_key`` and be keyed by its own primary-key value.
    """
    schema = create_relation(primary_key, fields).schema
    rows: dict[str, TupleRecord] = {}
    for key, record in mapping.items():
        if _checked_key(schema, record) != key:
            raise SchemaError(f"row keyed {key!r} carries primary-key value {record[primary_key]!r}")
        rows[key] = dict(record)
    return Relation._adopt(schema, rows)
