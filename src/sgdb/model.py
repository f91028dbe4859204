"""Core data model: relations as keyed sets of star-graph tuples.

A relation is a map from row key to tuple; each tuple is itself a map from
field name to value, which is exactly a star graph whose center is the
primary-key value and whose labeled edges carry the remaining field values.

Values are plain strings, or ``None`` for the explicit null produced when an
empty nested record is flattened.  The empty string ``""`` is an ordinary
text value (it marks absent left-side fields in right/outer joins) and is
never equal to null.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from sgdb.errors import KeyNotFoundError, SchemaError

Value = str | None
TupleRecord = dict[str, Value]

# Characters with reserved meaning in field names: "." is the flatten
# separator, "," and "=" belong to the projection/condition syntax.
_RESERVED_IN_BASE = frozenset(".")
_RESERVED_ALWAYS = frozenset(",=")


@dataclass(frozen=True)
class Schema:
    """Primary-key field name plus the declared field order."""

    primary_key: str
    fields: tuple[str, ...]

    def derive(self, fields: tuple[str, ...] | None = None, primary_key: str | None = None) -> "Schema":
        return replace(
            self,
            fields=self.fields if fields is None else tuple(fields),
            primary_key=self.primary_key if primary_key is None else primary_key,
        )


class Relation:
    """A schema plus a map from row key to tuple record.

    Instances are treated as immutable values: every operation returns a new
    relation and never mutates its inputs, so relations are safe to share.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Mapping[str, TupleRecord] | None = None):
        self.schema = schema
        self.rows: dict[str, TupleRecord] = {k: dict(v) for k, v in (rows or {}).items()}

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


@dataclass(frozen=True)
class StarGraphView:
    """One tuple rendered as its star graph: center key plus labeled edges."""

    center: str
    edges: tuple[tuple[str, Value], ...]


def _check_field_name(name: str, *, base: bool) -> None:
    if not isinstance(name, str) or not name:
        raise SchemaError("field names must be non-empty strings")
    bad = _RESERVED_ALWAYS | (_RESERVED_IN_BASE if base else frozenset())
    hit = [c for c in bad if c in name]
    if hit:
        raise SchemaError(f"field name {name!r} contains reserved character {hit[0]!r}")


def create_relation(pk_field: str, fields: list[str] | tuple[str, ...]) -> Relation:
    """Create an empty relation with the given primary key and field order."""
    if not fields:
        raise SchemaError("a relation needs at least one field")
    seen = set()
    for f in fields:
        _check_field_name(f, base=True)
        if f in seen:
            raise SchemaError(f"duplicate field name {f!r}")
        seen.add(f)
    if pk_field not in seen:
        raise SchemaError(f"primary key {pk_field!r} is not among the fields")
    return Relation(Schema(primary_key=pk_field, fields=tuple(fields)))


def _checked_key(schema: Schema, record: Mapping[str, Value]) -> str:
    """The primary-key value of ``record``, once every field has been checked against ``schema``."""
    pk = schema.primary_key
    if pk not in record:
        raise SchemaError(f"record is missing the primary-key field {pk!r}")
    for f, v in record.items():
        if f not in schema.fields:
            raise SchemaError(f"unknown field {f!r} for this relation")
        if not isinstance(v, str):
            raise SchemaError(f"field {f!r} must hold a string, got {type(v).__name__}")
    key = record[pk]
    if not key:
        raise SchemaError("primary-key value must be a non-empty string")
    return key


def insert_tuple(rel: Relation, record: Mapping[str, Value]) -> Relation:
    """Return a new relation with ``record`` stored under its primary-key value.

    Re-inserting an existing key replaces that row (plain assignment
    semantics).  Fields absent from the record simply stay absent.
    """
    rows = dict(rel.rows)
    rows[_checked_key(rel.schema, record)] = dict(record)
    return Relation(rel.schema, rows)


def delete_tuple(rel: Relation, key: str) -> Relation:
    """Return a new relation without row ``key``."""
    if key not in rel.rows:
        raise KeyNotFoundError(f"no row with key {key!r}")
    rows = dict(rel.rows)
    del rows[key]
    return Relation(rel.schema, rows)


def get_tuple(rel: Relation, key: str) -> TupleRecord:
    """Return a copy of the stored tuple for ``key``."""
    if key not in rel.rows:
        raise KeyNotFoundError(f"no row with key {key!r}")
    return dict(rel.rows[key])


def as_star_graph(rel: Relation, key: str) -> StarGraphView:
    """View row ``key`` as a star graph: one edge per non-pk field, in schema order."""
    if key not in rel.rows:
        raise KeyNotFoundError(f"no row with key {key!r}")
    row = rel.rows[key]
    pk = rel.schema.primary_key
    edges = tuple((f, row[f]) for f in rel.schema.fields if f != pk and f in row)
    return StarGraphView(center=key, edges=edges)


def relation_equal(a: Relation, b: Relation) -> bool:
    """Data equality: same row keys, and per row the same field/value map.

    Field order is ignored (map semantics); ``""`` and null stay distinct.
    Schemas are not compared.
    """
    return a.rows == b.rows


def relation_from_mapping(
    mapping: Mapping[str, object],
    primary_key: str | None = None,
    fields: list[str] | tuple[str, ...] | None = None,
) -> Relation:
    """Build a base relation from a nested-dict literal.

    Accepts the legacy form that carries a ``'primary key'`` entry alongside
    the rows and converts it to out-of-band schema metadata.  Field order is
    taken from ``fields`` or inferred first-seen across the row records.
    """
    entries = dict(mapping)
    declared = entries.pop("primary key", None)
    if primary_key is None:
        primary_key = declared  # type: ignore[assignment]
    if not isinstance(primary_key, str) or not primary_key:
        raise SchemaError("no primary-key field name given or declared in the mapping")
    if fields is None:
        ordered: list[str] = []
        for record in entries.values():
            if not isinstance(record, Mapping):
                raise SchemaError("every row must be a field/value mapping")
            for f in record:
                if f not in ordered:
                    ordered.append(f)
        fields = ordered
    schema = create_relation(primary_key, list(fields)).schema
    rows: dict[str, TupleRecord] = {}
    for key, record in entries.items():
        if not isinstance(record, Mapping):
            raise SchemaError("every row must be a field/value mapping")
        if record.get(primary_key) != key:
            raise SchemaError(
                f"row keyed {key!r} carries primary-key value {record.get(primary_key)!r}"
            )
        _checked_key(schema, record)  # type: ignore[arg-type]
        rows[key] = dict(record)  # type: ignore[arg-type]
    return Relation._adopt(schema, rows)
