"""The relational operators over star-graph relations.

All nine operators are pure functions: they build a fresh relation and leave
their inputs untouched.  Each copies a row once, as it builds the result,
and hands the result rows to ``Relation._adopt`` rather than having the
constructor copy them a second time.  Join results embed the matching right tuple under
the joining field and are then flattened, so a match turns the scalar field
``catalog`` into the compound fields ``catalog.catalog``, ``catalog.description``,
and so on.  Rows of a result may be heterogeneous: a left join keeps the
scalar joining field on unmatched rows while matched rows carry the dotted
form.

Matching is by string equality only.  A row that lacks the relevant field is
simply skipped by ``select`` and ``project`` and counts as unmatched in joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgdb.errors import (
    FieldCollisionError,
    KeyCollisionError,
    MissingJoinKeyError,
    NoCommonFieldError,
    NotJoinableError,
)
from sgdb.model import Relation, Schema, TupleRecord, Value

# Sentinel column list meaning "keep every field".
STAR = "*"

SEPARATOR = "."


@dataclass(frozen=True)
class Condition:
    """Single equality condition ``field = value``; both sides are trimmed text."""

    field: str
    value: str

    @classmethod
    def parse(cls, text: str) -> "Condition":
        """Split ``field=value`` at the first ``=``; both parts are stripped."""
        field, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"condition {text!r} has no '='")
        return cls(field.strip(), value.strip())


NestedValue = Value | dict
NestedRecord = dict[str, NestedValue]


def flatten_record(record: NestedRecord, prefix: str | None = None, sep: str = SEPARATOR) -> TupleRecord:
    """Collapse nested records into dotted compound keys, depth first.

    A non-empty nested record at key ``p`` contributes ``p.q`` entries; an
    empty nested record becomes the explicit null ``p = None``.  Scalars keep
    their keys (prefixed only when ``prefix`` is given).
    """
    result: TupleRecord = {}
    _flatten_into(record, prefix or "", sep, result)
    return result


def _flatten_into(record: NestedRecord, prefix: str, sep: str, result: TupleRecord) -> None:
    for k, v in record.items():
        key = prefix + sep + k if prefix else k
        if isinstance(v, dict):
            if v:
                _flatten_into(v, key, sep, result)
                continue
            v = None
        if key in result:
            raise KeyCollisionError(f"flattening produced key {key!r} twice")
        result[key] = v


def select(rel: Relation, cond: Condition | None = None) -> Relation:
    """Keep the rows whose value at ``cond.field`` equals ``cond.value``.

    Without a condition the whole relation is copied.  Rows that do not have
    the field at all are excluded, and null never equals any text value.
    """
    rows: dict[str, TupleRecord] = {}
    for key, row in rel.rows.items():
        if cond is None or (cond.field in row and row[cond.field] == cond.value):
            rows[key] = dict(row)
    return Relation._adopt(rel.schema.derive(), rows)


def project(rel: Relation, columns: list[str] | tuple[str, ...] | str) -> Relation:
    """Keep only the requested fields of every row; ``STAR`` keeps everything.

    A requested field missing from a row is silently omitted from that row.
    Row keys are preserved, so projection never merges duplicate rows.
    """
    if columns == STAR:
        return Relation._adopt(rel.schema.derive(), {k: dict(r) for k, r in rel.rows.items()})
    wanted = list(columns)
    rows = {
        key: {f: row[f] for f in wanted if f in row}
        for key, row in rel.rows.items()
    }
    return Relation._adopt(rel.schema.derive(fields=tuple(wanted)), rows)


def rename(rel: Relation, old: str, new: str) -> Relation:
    """Re-label field ``old`` as ``new`` in every row that has it.

    The new name must not already occur anywhere in the relation.  Renaming
    the primary-key field renames it in the schema too; row keys stay put.
    """
    for key, row in rel.rows.items():
        if new in row:
            raise FieldCollisionError(f"field {new!r} already present in row {key!r}")
    rows = {
        key: {(new if f == old else f): v for f, v in row.items()}
        for key, row in rel.rows.items()
    }
    fields = tuple(new if f == old else f for f in rel.schema.fields)
    pk = new if rel.schema.primary_key == old else rel.schema.primary_key
    return Relation._adopt(rel.schema.derive(fields=fields, primary_key=pk), rows)


def _require_key(key: str | None) -> str:
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    return key


def _joined_schema(left: Schema, right: Schema, key: str) -> Schema:
    dotted = tuple(f"{key}{SEPARATOR}{rf}" for rf in right.fields)
    fields: list[str] = []
    for f in left.fields:
        if f == key:
            fields.extend(dotted)
        else:
            fields.append(f)
    if key not in left.fields:
        fields.extend(dotted)
    return left.derive(fields=tuple(fields))


def _nest_and_flatten(lrow: TupleRecord, key: str, rrow: TupleRecord) -> TupleRecord:
    nested: NestedRecord = dict(lrow)
    nested[key] = dict(rrow)
    return flatten_record(nested)


def inner_join(left: Relation, right: Relation, key: str) -> Relation:
    """Rows of ``left`` whose ``key`` value is the row key of a non-empty right tuple.

    The right tuple is nested under ``key`` and flattened; unmatched left
    rows are dropped.  Result rows keep the left row keys.
    """
    key = _require_key(key)
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        if v in right.rows and len(right.rows[v]) > 0:
            rows[k] = _nest_and_flatten(lrow, key, right.rows[v])
    return Relation._adopt(_joined_schema(left.schema, right.schema, key), rows)


def left_join(left: Relation, right: Relation, key: str) -> Relation:
    """Every left row; matched rows gain the nested right tuple, others pass through.

    A match against an *empty* right tuple still nests it, which flattens to
    an explicit null at ``key`` (unlike inner_join, which drops such rows).
    """
    key = _require_key(key)
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        if v in right.rows:
            rows[k] = _nest_and_flatten(lrow, key, right.rows[v])
        else:
            rows[k] = flatten_record(dict(lrow))
    return Relation._adopt(_joined_schema(left.schema, right.schema, key), rows)


def _synthesized_rows(left: Relation, right: Relation, key: str, into: dict[str, TupleRecord]) -> None:
    """Add one row per right key no left row references: "" in every left field,
    with the right tuple nested at ``key``."""
    referenced = {lrow.get(key) for lrow in left.rows.values()}
    for rk, rrow in right.rows.items():
        if rk in referenced:
            continue
        synth: NestedRecord = {}
        for f in left.schema.fields:
            synth[f] = dict(rrow) if f == key else ""
        if rk in into:
            raise KeyCollisionError(
                f"synthesized right row key {rk!r} collides with an existing result row"
            )
        into[rk] = flatten_record(synth)


def right_join(left: Relation, right: Relation, key: str) -> Relation:
    """inner_join plus a synthesized row for every right tuple nothing references."""
    key = _require_key(key)
    result = inner_join(left, right, key)
    _synthesized_rows(left, right, key, result.rows)
    return result


def outer_join(left: Relation, right: Relation, key: str) -> Relation:
    """left_join plus the same synthesized unmatched-right rows as right_join."""
    key = _require_key(key)
    result = left_join(left, right, key)
    _synthesized_rows(left, right, key, result.rows)
    return result


def cartesian(left: Relation, right: Relation, nest_field: str) -> Relation:
    """Every left/right pair, keyed ``<left key>_<right key>``.

    Each pair takes an independent copy of the left tuple, nests the right
    tuple at ``nest_field``, and flattens, so the result always holds exactly
    ``len(left) * len(right)`` rows.
    """
    nest_field = _require_key(nest_field)
    rows: dict[str, TupleRecord] = {}
    for lk, lrow in left.rows.items():
        for rk, rrow in right.rows.items():
            pair_key = f"{lk}_{rk}"
            if pair_key in rows:
                raise KeyCollisionError(f"pair key {pair_key!r} produced twice")
            rows[pair_key] = _nest_and_flatten(lrow, nest_field, rrow)
    return Relation._adopt(_joined_schema(left.schema, right.schema, nest_field), rows)


def natural_join(left: Relation, right: Relation) -> Relation:
    """inner_join on the right relation's primary-key field.

    The shared field is found from the schemas, so the choice does not depend
    on row iteration order.  The lookup into the right relation is by row
    key, hence the joining field must be the right primary key.
    """
    shared = set(left.schema.fields) & set(right.schema.fields)
    if not shared:
        raise NoCommonFieldError("the relations share no field name")
    pk = right.schema.primary_key
    if pk not in shared:
        raise NotJoinableError(
            f"shared fields {sorted(shared)} do not include the right primary key {pk!r}"
        )
    return inner_join(left, right, pk)
