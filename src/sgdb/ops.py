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

The joins and ``cartesian`` build each such row in one step rather than
nesting and re-flattening every pair.  Each right tuple is flattened once per
call into its dotted part (``{key.f: v}``, or ``{key: None}`` when empty),
each left row is split once around the joining field, and a row is
``{**before, **part, **after}``.  A merged row shorter than its three pieces
means a left field is named like a part field; that row goes through
``_nest_and_flatten``, the nest-then-flatten definition, which raises
``KeyCollisionError``; so the rows, their field order and the errors are
those of nesting and flattening.

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
    """Single equality condition ``field = value``.

    Both sides are exact text: a value matches only a field value equal to it
    character for character, surrounding spaces included.
    """

    field: str
    value: str


NestedValue = Value | dict
NestedRecord = dict[str, NestedValue]


def flatten_record(record: NestedRecord) -> TupleRecord:
    """Collapse nested records into dotted compound keys, depth first.

    A non-empty nested record at key ``p`` contributes ``p.q`` entries; an
    empty nested record becomes the explicit null ``p = None``.  Scalars keep
    their keys.
    """
    result: TupleRecord = {}
    _flatten_into(record, "", result)
    return result


def _flatten_into(record: NestedRecord, prefix: str, result: TupleRecord) -> None:
    for k, v in record.items():
        key = prefix + SEPARATOR + k if prefix else k
        if isinstance(v, dict):
            if v:
                _flatten_into(v, key, result)
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
    kept = rel.rows if cond is None else matching(rel.rows, cond)
    return Relation._adopt(rel.schema, {key: dict(row) for key, row in kept.items()})


def matching(rows: dict[str, TupleRecord], cond: Condition) -> dict[str, TupleRecord]:
    """The entries of ``rows`` that ``select`` keeps for ``cond``, in order and not copied."""
    field, value = cond.field, cond.value
    return {key: row for key, row in rows.items() if field in row and row[field] == value}


def project(rel: Relation, columns: list[str] | tuple[str, ...] | str) -> Relation:
    """Keep only the requested fields of every row; ``STAR`` keeps everything.

    A requested field missing from a row is silently omitted from that row.
    Row keys are preserved, so projection never merges duplicate rows.
    """
    if columns == STAR:
        return Relation._adopt(rel.schema, {k: dict(r) for k, r in rel.rows.items()})
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


def _right_part(key: str, rrow: TupleRecord) -> TupleRecord:
    """The fields ``rrow`` flattens to when nested at ``key``: ``{key.f: v}``,
    or ``{key: None}`` for an empty tuple.

    Never raises: distinct right fields give distinct dotted names.
    """
    if not rrow:
        return {key: None}
    prefix = key + SEPARATOR
    return {prefix + f: v for f, v in rrow.items()}


class _Parts(dict):
    """Right row key -> ``_right_part`` of that row, built when first asked for."""

    def __init__(self, right: Relation, key: str):
        super().__init__()
        self._rows = right.rows
        self._key = key

    def __missing__(self, rk: str) -> TupleRecord:
        part = self[rk] = _right_part(self._key, self._rows[rk])
        return part


def _split(lrow: TupleRecord, key: str) -> tuple[TupleRecord, TupleRecord]:
    """The fields of ``lrow`` before ``key`` and those after it (none when
    ``key`` is absent)."""
    before: TupleRecord = {}
    after: TupleRecord = {}
    side = before
    for f, v in lrow.items():
        if f == key:
            side = after
        else:
            side[f] = v
    return before, after


def _stitch(
    lrow: TupleRecord,
    halves: tuple[TupleRecord, TupleRecord],
    key: str,
    rrow: TupleRecord,
    part: TupleRecord,
) -> TupleRecord:
    """``_nest_and_flatten(lrow, key, rrow)``, built from ``halves = _split(lrow, key)``
    and ``part = _right_part(key, rrow)``.

    Row keys are distinct and so are the part's, so the one collision
    flattening can find is a left field named like a part field, which
    shows as a short merged row.  That row goes through
    ``_nest_and_flatten``, which raises the collision.
    """
    before, after = halves
    row = {**before, **part, **after}
    if len(row) == len(before) + len(part) + len(after):
        return row
    return _nest_and_flatten(lrow, key, rrow)


def inner_join(left: Relation, right: Relation, key: str) -> Relation:
    """Rows of ``left`` whose ``key`` value is the row key of a non-empty right tuple.

    The right tuple is nested under ``key`` and flattened; unmatched left
    rows are dropped.  Result rows keep the left row keys.
    """
    key = _require_key(key)
    parts = _Parts(right, key)
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        if v in right.rows and len(right.rows[v]) > 0:
            rows[k] = _stitch(lrow, _split(lrow, key), key, right.rows[v], parts[v])
    return Relation._adopt(_joined_schema(left.schema, right.schema, key), rows)


def left_join(left: Relation, right: Relation, key: str) -> Relation:
    """Every left row; matched rows gain the nested right tuple, others pass through.

    A match against an *empty* right tuple still nests it, which flattens to
    an explicit null at ``key`` (unlike inner_join, which drops such rows).
    """
    key = _require_key(key)
    parts = _Parts(right, key)
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        if v in right.rows:
            rows[k] = _stitch(lrow, _split(lrow, key), key, right.rows[v], parts[v])
        else:
            rows[k] = dict(lrow)
    return Relation._adopt(_joined_schema(left.schema, right.schema, key), rows)


def _synthesized_rows(left: Relation, right: Relation, key: str, into: dict[str, TupleRecord]) -> None:
    """Add one row per right key no left row references: "" in every left field,
    with the right tuple nested at ``key`` when ``key`` is a left field."""
    referenced = {lrow.get(key) for lrow in left.rows.values()}
    blank = {f: "" for f in left.schema.fields}
    halves = _split(blank, key)
    for rk, rrow in right.rows.items():
        if rk in referenced:
            continue
        if rk in into:
            raise KeyCollisionError(
                f"synthesized right row key {rk!r} collides with an existing result row"
            )
        if key in blank:
            into[rk] = _stitch(blank, halves, key, rrow, _right_part(key, rrow))
        else:
            into[rk] = dict(blank)


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
    parts = [(rk, rrow, _right_part(nest_field, rrow)) for rk, rrow in right.rows.items()]
    rows: dict[str, TupleRecord] = {}
    for lk, lrow in left.rows.items():
        halves = _split(lrow, nest_field)
        for rk, rrow, part in parts:
            pair_key = f"{lk}_{rk}"
            if pair_key in rows:
                raise KeyCollisionError(f"pair key {pair_key!r} produced twice")
            rows[pair_key] = _stitch(lrow, halves, nest_field, rrow, part)
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
