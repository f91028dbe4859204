"""The relational operators over star-graph relations.

All nine operators are pure functions: they build a fresh relation and leave
their inputs untouched.  Each copies a row once, as it builds the result,
and hands the result rows to the ``Relation`` constructor, which keeps them
as they are.  Join results embed the matching right tuple under the joining
field and are then flattened, so a match turns the scalar field ``catalog``
into the compound fields ``catalog.catalog``, ``catalog.description``, and so
on.  Rows of a result may be heterogeneous: a
left join keeps the scalar joining field on unmatched rows while matched rows
carry the dotted form.

The four keyed joins are one loop, ``_join``, and differ only in the sides
they preserve (Galindo-Legaria and Rosenthal, "Outerjoin Simplification and
Reordering for Query Optimization", ACM TODS 1997).  The inner join preserves
neither, the left join ``keep_left``, the right join ``keep_right`` and the
outer join both:

* every left row whose joining field names a non-empty right tuple gets that
  tuple nested at the field;
* ``keep_left`` keeps every other left row too.  One whose right tuple is
  *empty* still nests it, which flattens to an explicit null at the joining
  field; an unmatched one passes through unchanged.  Without the flag both
  are dropped, so an inner join drops a row that matches an empty tuple;
* ``keep_right`` adds a row, under its right row key, for every right tuple
  that no left row references: "" in every left schema field, with the right
  tuple nested at the joining field when that is one of them.  A right key
  that is already a result row key is a ``KeyCollisionError``.

The joins and ``cartesian`` build each such row in one step rather than
nesting and re-flattening every pair.  Each right tuple is flattened once per
call into its dotted part (``{key.f: v}``, or ``{key: None}`` when empty).
A join builds a matched row in one loop over the left row, copying each
field and putting the part in the joining field's place; ``cartesian``
splits each left row once around the field (``_split``) and builds each pair
as ``{**before, **part, **after}``.  The one collision flattening can meet is
a left field named like a part field, and it leaves the row shorter than the
left fields other than the joining field plus the part.  Only such a short
row calls ``_stitch``, which raises the ``KeyCollisionError`` flattening
would, naming the field flattening meets first; so the rows, their field
order and the errors are those of nesting and flattening.

``inner_join_run(left, steps, fields)`` runs a chain of one or more inner
joins, ``steps = ((r1, k1), …, (rn, kn))``, and the ``project`` onto
``fields`` after it, and ``cartesian`` takes an optional ``fields`` too
(``sgdb.evaluator`` passes them).  Each returns exactly ``project`` over the
plain result: its rows, row order, field order, schema and error.  ``STAR``
gives the plain result; any other string is a ``TypeError``, as it is for
``project``, raised before any step is taken.  A run is the plain
fold, one join at a time, unless every key is non-empty and no field that
a left row holds, or that an earlier step adds (``<kj>.<f>`` for each field
``f`` some right row of step j holds), starts with ``<key>.``
(``_nests_cleanly``; ``cartesian`` checks the left rows only).  The second
half is needed: with ``k1 = k`` and ``k2 = k.b``, a right row
``{b: s, b.x: v}`` adds ``k.b.x``, which step 2's part meets again.  When
the check holds, each plain row is the left row without the joining fields
plus each step's part, pieces that share no field, and no step can raise.
A run reads its steps one at a time and joins a step that fails the check,
as the plain fold does, before it takes the next, so a caller that scans
each right table as its step is taken meets every error in the plain
fold's order.

These checks read the fields a relation's rows hold in one pass over its
rows (``_held``), except for a bounded relation (``Relation.bounded``),
whose rows hold only its schema's fields: then they read the schema's
fields, a superset.  A superset can only fail a check that the rows would
pass, which sends a run or projected ``cartesian`` to the plain fold and
keeps a select after its join, and both are exact.  ``project``, the joins
given ``fields`` and ``select`` of a bounded relation return bounded
relations.

In the one pass, each column and each key has one source (``_source``):
the part of the last step whose key it is or starts with followed by
``.``, or else the left row.  So a step reads its key in the left row,
or, when the key is an earlier step's dotted field (``k2 = k1.g``), as
``g`` in that step's right row; when it is an earlier step's own key,
which that step replaced, no row matches.  Once per call, the columns
split by source (``_sides``).  Each step's part is picked down to its
columns once per distinct right key (per right row in ``cartesian``) and
each left row down to its columns once, and each result row is the left
pick followed by each part's pick.  Only when the columns interleave the
sources is that row re-laid in column order.  A matched row never takes a
joining field itself from the left row.  Pair keys do not depend on
fields, so ``cartesian`` checks them in the same order either way.

A ``select`` of ``<key>.g = v`` after ``inner_join`` or ``cartesian`` at
``key`` gives what the same join gives over the right rows that
``select g = v`` keeps (σ_p(R ⋈ S) = R ⋈ σ_p(S) for a p that reads only S)
when the left relation shows that dropping those rows first cannot change
the result.  ``right_condition`` returns ``g = v`` then, and None otherwise:

1. no left row holds a field starting with ``<key>.`` (``_nests_cleanly``),
   so flattening never meets a field twice: no dropped row could have
   raised its ``KeyCollisionError``, and no row is kept for a left field
   named ``<key>.g``;
2. for ``cartesian``, no left row key holds ``PAIR_SEPARATOR``, so every
   pair key is distinct and no dropped pair could have raised the duplicate
   pair-key error.

The schema of a join or ``cartesian`` result splices the right schema's
fields, dotted under the joining field, into the left schema at that
field's position, or appends them when the left schema lacks the field
(``_joined_schema``).  ``cartesian`` keys each pair
``<left key><PAIR_SEPARATOR><right key>``.

Matching is by string equality only.  A row that lacks the relevant field is
simply skipped by ``select`` and ``project`` and counts as unmatched in joins.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain

from sgdb.errors import (
    FieldCollisionError,
    KeyCollisionError,
    MissingJoinKeyError,
    NoCommonFieldError,
    NotJoinableError,
)
from sgdb.model import Relation, Schema, TupleRecord

# Sentinel column list meaning "keep every field".
STAR = "*"

SEPARATOR = "."

# Joins a left and a right row key into a ``cartesian`` pair key.
PAIR_SEPARATOR = "_"

# The field names a ``project`` keeps, in order.
Columns = list[str] | tuple[str, ...]


@dataclass(frozen=True)
class Condition:
    """Single equality condition ``field = value``.

    Both sides are exact text: a value matches only a field value equal to it
    character for character, surrounding spaces included.
    """

    field: str
    value: str


def select(rel: Relation, cond: Condition) -> Relation:
    """Keep the rows whose value at ``cond.field`` equals ``cond.value``.

    Rows that do not have the field at all are excluded, and null never
    equals any text value.
    """
    field, value = cond.field, cond.value
    rows = {key: dict(row) for key, row in rel.rows.items() if field in row and row[field] == value}
    return Relation(rel.schema, rows, rel.bounded)


def project(rel: Relation, columns: Columns | str) -> Relation:
    """Keep only the requested fields of every row; ``STAR`` keeps everything.

    A requested field missing from a row is silently omitted from that row,
    and a field requested twice is kept once, where it is first named.  Row
    keys are preserved, so projection never merges duplicate rows.  A string
    other than ``STAR`` is a ``TypeError``.
    """
    wanted = _columns(columns, "columns")
    if wanted is None:
        return Relation(rel.schema, {k: dict(r) for k, r in rel.rows.items()}, rel.bounded)
    rows = {key: _pick(row, wanted) for key, row in rel.rows.items()}
    return Relation(replace(rel.schema, fields=wanted), rows, True)


def _columns(columns: Columns | str, name: str) -> tuple[str, ...] | None:
    """``columns`` once each, where first named, or None for ``STAR``.

    Any other string is a ``TypeError`` naming the argument ``name``: read as
    a sequence, it would name one-letter columns.
    """
    if isinstance(columns, str):
        if columns == STAR:
            return None
        raise TypeError(f"{name} must be a list of field names or STAR, not the string {columns!r}")
    return tuple(dict.fromkeys(columns))


def _pick(row: TupleRecord, columns: tuple[str, ...]) -> TupleRecord:
    """The fields ``columns`` of ``row`` that it holds, in the order of ``columns``."""
    # A loop, not a comprehension: CPython 3.11 makes a function object for
    # each comprehension it runs, which costs more than a few columns do.
    picked = {}
    for f in columns:
        if f in row:
            picked[f] = row[f]
    return picked


def rename(rel: Relation, old: str, new: str) -> Relation:
    """Re-label field ``old`` as ``new`` in every row that has it.

    The new name must not already occur in any row.  A schema that already
    names it keeps it once, at its first position.  Renaming the primary-key
    field renames it in the schema too; row keys stay put.
    """
    rows = {}
    for key, row in rel.rows.items():
        if new in row:
            raise FieldCollisionError(f"field {new!r} already present in row {key!r}")
        rows[key] = {(new if f == old else f): v for f, v in row.items()}
    fields = tuple(dict.fromkeys(new if f == old else f for f in rel.schema.fields))
    pk = new if rel.schema.primary_key == old else rel.schema.primary_key
    return Relation(replace(rel.schema, fields=fields, primary_key=pk), rows)


def _require_key(key: str | None) -> str:
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    return key


def _joined_schema(left: Schema, right: Schema, key: str) -> Schema:
    """``left``'s fields with ``right``'s, dotted under ``key``, in the joining
    field's place, or at the end when ``left`` has no such field."""
    fields = left.fields
    at = fields.index(key) if key in fields else len(fields)
    dotted = tuple(f"{key}{SEPARATOR}{rf}" for rf in right.fields)
    return replace(left, fields=fields[:at] + dotted + fields[at + 1:])


def _right_part(key: str, rrow: TupleRecord) -> TupleRecord:
    """The fields ``rrow`` flattens to when nested at ``key``: ``{key.f: v}``,
    or ``{key: None}`` for an empty tuple.

    Never raises: distinct right fields give distinct dotted names.
    """
    if not rrow:
        return {key: None}
    prefix = key + SEPARATOR
    return {prefix + f: v for f, v in rrow.items()}


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


def _stitch(before: TupleRecord, part: TupleRecord, after: TupleRecord) -> TupleRecord:
    """The row that nesting a right tuple between ``before`` and ``after`` and
    flattening gives, where ``part = _right_part(key, rrow)``.

    The fields of each piece are distinct, and ``before`` and ``after`` are
    one left row's, so the one collision flattening can meet is a left field
    named like a part field.  Flattening meets it at the first part field
    that ``before`` holds or, failing that, at the first ``after`` field that
    the part holds, and this raises the same ``KeyCollisionError``.
    """
    row = {**before, **part, **after}
    if len(row) < len(before) + len(part) + len(after):
        field = next((f for f in part if f in before), None) or next(f for f in after if f in part)
        raise KeyCollisionError(f"flattening produced key {field!r} twice")
    return row


def _held(rel: Relation) -> set[str]:
    """Every field some row of ``rel`` holds, or, when ``rel`` is bounded, its
    schema's fields, which include them."""
    return set(rel.schema.fields) if rel.bounded else set().union(*rel.rows.values())


def _nests_cleanly(held: set[str], key: str) -> bool:
    """Whether none of the fields ``held`` starts with ``key.``, so that nesting
    a right tuple at ``key`` in a row holding only such fields and flattening
    never meets a field twice and no left field is named like a part field."""
    prefix = key + SEPARATOR
    return not any(f.startswith(prefix) for f in held)


def right_condition(left: Relation, key: str, cond: Condition, pairs: bool) -> Condition | None:
    """The condition on the right table's own fields that ``cond`` names under
    ``key``, when a select on it may run on the right relation before
    ``inner_join`` (``cartesian`` when ``pairs``) of ``left`` at ``key``, else
    None (rules 1 and 2 of the module docstring)."""
    prefix = key + SEPARATOR
    if not cond.field.startswith(prefix) or not _nests_cleanly(_held(left), key):
        return None
    if pairs and any(PAIR_SEPARATOR in lk for lk in left.rows):
        return None
    return Condition(cond.field[len(prefix):], cond.value)


def _source(name: str, keys: tuple[str, ...]) -> int:
    """Which piece of a row nested and flattened at each of ``keys`` in turn
    gives the field ``name``: ``m`` for the part of ``keys[m - 1]``, the last
    key that is ``name`` or that ``name`` starts with followed by ``.``, or 0
    for the left row when none is."""
    for m in range(len(keys), 0, -1):
        key = keys[m - 1]
        if name == key or name.startswith(key + SEPARATOR):
            return m
    return 0


def _sides(wanted: tuple[str, ...], keys: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], ...], bool]:
    """The columns of ``wanted`` each piece gives (``_source``), left row first,
    each in ``wanted``'s order, and whether ``wanted`` interleaves the pieces, so
    that a row built as ``{**left pick, **first part's pick, …}`` must be
    re-laid in ``wanted``'s order."""
    sides: list[list[str]] = [[] for _ in range(len(keys) + 1)]
    for f in wanted:
        sides[_source(f, keys)].append(f)
    laid = tuple(f for side in sides for f in side)
    return tuple(map(tuple, sides)), wanted != laid


def _join(left: Relation, right: Relation, key: str, keep_left: bool, keep_right: bool) -> Relation:
    """The keyed join that preserves the sides the flags name (see the module
    docstring)."""
    key = _require_key(key)
    parts: dict[str, TupleRecord] = {}
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        part = parts.get(v)
        if part is None:
            rrow = right.rows.get(v)
            if rrow is not None and (rrow or keep_left):
                part = parts[v] = _right_part(key, rrow)
        if part is not None:
            row = {}
            for f, x in lrow.items():
                if f == key:
                    row.update(part)
                else:
                    row[f] = x
            if len(row) < len(lrow) - 1 + len(part):  # a left field is named like a part field
                before, after = _split(lrow, key)
                _stitch(before, part, after)
            rows[k] = row
        elif keep_left:
            rows[k] = dict(lrow)
    if keep_right:
        referenced = {lrow.get(key) for lrow in left.rows.values()}
        blank = {f: "" for f in left.schema.fields}
        before, after = _split(blank, key)
        for rk, rrow in right.rows.items():
            if rk in referenced:
                continue
            if rk in rows:
                raise KeyCollisionError(
                    f"synthesized right row key {rk!r} collides with an existing result row"
                )
            rows[rk] = _stitch(before, _right_part(key, rrow), after) if key in blank else dict(blank)
    return Relation(_joined_schema(left.schema, right.schema, key), rows)


def inner_join(left: Relation, right: Relation, key: str) -> Relation:
    """Rows of ``left`` whose ``key`` value is the row key of a non-empty right tuple.

    The right tuple is nested under ``key`` and flattened; unmatched left
    rows are dropped.  Result rows keep the left row keys.
    """
    return _join(left, right, key, keep_left=False, keep_right=False)


def inner_join_run(
    left: Relation, steps: Iterable[tuple[Relation, str]], fields: Columns | str,
) -> Relation:
    """``project(inner_join(…inner_join(left, r1, k1)…, rn, kn), fields)`` for
    ``steps`` ``(r1, k1), …, (rn, kn)``, built in one pass that makes each
    result row once when no step can raise (see the module docstring).

    ``steps`` may be an iterator, and is read one step at a time: a step is
    taken only once every step before it is judged, and a step that may raise
    is joined, as the plain fold joins it, before the next is taken.  So a
    caller whose iterator scans each right table as its step is taken meets
    every error in the plain fold's order.  ``fields`` is checked before
    any step is taken.
    """
    wanted = _columns(fields, "fields")
    steps = iter(steps)
    if wanted is None:
        return _fold(left, steps, None)
    taken: list[tuple[Relation, str]] = []
    held = _held(left)
    for right, key in steps:
        # With the fields the step before adds, read only once a step follows it.
        held.update(k + SEPARATOR + f for r, k in taken[-1:] for f in _held(r))
        taken.append((right, key))
        if not key or not _nests_cleanly(held, key):
            return _fold(left, chain(taken, steps), wanted)
    if not taken:
        return project(left, wanted)
    schema = replace(left.schema, fields=wanted)
    keys = tuple(key for _, key in taken)
    (lcols, rcols, *cols), relay = _sides(wanted, keys)
    # Each later step: its number m, its right rows and key, where its key is
    # read (the left row, 0, or step s's right row, under the name it has
    # there), its part's columns and its (right row, picked part) by right key.
    later = []
    for m, ((right, key), mcols) in enumerate(zip(taken[1:], cols), 2):
        src = _source(key, keys[:m - 1])
        if src and key == keys[src - 1]:  # an earlier step replaced the field
            return Relation(schema, {}, True)
        later.append((m, right.rows, key, src, key[len(keys[src - 1]) + 1:] if src else key, mcols, {}))
    right, key = taken[0]
    found: list[TupleRecord] = [{}] * (len(taken) + 1)  # the left row, then each step's right row
    parts: dict[str, TupleRecord] = {}
    rows: dict[str, TupleRecord] = {}
    for k, lrow in left.rows.items():
        v = lrow.get(key)
        part = parts.get(v)
        if part is None:
            rrow = right.rows.get(v)
            if not rrow:
                continue
            part = parts[v] = _pick(_right_part(key, rrow), rcols)
        row = {**_pick(lrow, lcols), **part}
        if later:
            found[0], found[1] = lrow, right.rows[v]
            for m, rrows, mkey, src, name, mcols, hits in later:
                v = found[src].get(name)
                hit = hits.get(v)
                if hit is None:
                    rrow = rrows.get(v)
                    if not rrow:
                        break
                    hit = hits[v] = (rrow, _pick(_right_part(mkey, rrow), mcols))
                found[m], part = hit
                row.update(part)
            else:
                rows[k] = _pick(row, wanted) if relay else row
        else:  # a run of one: entering the empty loop above would cost it about 5%
            rows[k] = _pick(row, wanted) if relay else row
    return Relation(schema, rows, True)


def _fold(left: Relation, steps: Iterable[tuple[Relation, str]], wanted: tuple[str, ...] | None) -> Relation:
    """``inner_join_run`` as the plain fold: one ``inner_join`` per step, then
    ``project`` onto ``wanted``; None (``STAR``) gives the last join as it is."""
    rel = left
    for right, key in steps:
        rel = _join(rel, right, key, keep_left=False, keep_right=False)
    return rel if wanted is None else project(rel, wanted)


def left_join(left: Relation, right: Relation, key: str) -> Relation:
    """Every left row; matched rows gain the nested right tuple, others pass through.

    A match against an *empty* right tuple still nests it, which flattens to
    an explicit null at ``key`` (unlike inner_join, which drops such rows).
    """
    return _join(left, right, key, keep_left=True, keep_right=False)


def right_join(left: Relation, right: Relation, key: str) -> Relation:
    """inner_join plus a synthesized row for every right tuple nothing references."""
    return _join(left, right, key, keep_left=False, keep_right=True)


def outer_join(left: Relation, right: Relation, key: str) -> Relation:
    """left_join plus the same synthesized unmatched-right rows as right_join."""
    return _join(left, right, key, keep_left=True, keep_right=True)


def cartesian(left: Relation, right: Relation, nest_field: str, fields: Columns | str | None = None) -> Relation:
    """Every left/right pair, keyed ``<left key>_<right key>``.

    Each pair takes an independent copy of the left tuple, nests the right
    tuple at ``nest_field``, and flattens, so the result always holds exactly
    ``len(left) * len(right)`` rows.  With ``fields`` it is
    ``project(cartesian(left, right, nest_field), fields)``, built in one
    pass when no row of ``left`` holds a field under ``nest_field`` (see the
    module docstring).
    """
    nest_field = _require_key(nest_field)
    wanted = None if fields is None else _columns(fields, "fields")
    if wanted is not None and not _nests_cleanly(_held(left), nest_field):
        return project(cartesian(left, right, nest_field), wanted)
    parts = [(rk, _right_part(nest_field, rrow)) for rk, rrow in right.rows.items()]
    if wanted is not None:
        (lcols, rcols), relay = _sides(wanted, (nest_field,))
        parts = [(rk, _pick(part, rcols)) for rk, part in parts]
    rows: dict[str, TupleRecord] = {}
    for lk, lrow in left.rows.items():
        if wanted is None:
            before, after = _split(lrow, nest_field)
            size = len(before) + len(after)
        else:
            picked = _pick(lrow, lcols)
        for rk, part in parts:
            pair_key = f"{lk}{PAIR_SEPARATOR}{rk}"
            if pair_key in rows:
                raise KeyCollisionError(f"pair key {pair_key!r} produced twice")
            if wanted is not None:
                row = {**picked, **part}
                if relay:
                    row = _pick(row, wanted)
            else:
                row = {**before, **part, **after}
                if len(row) < size + len(part):
                    _stitch(before, part, after)
            rows[pair_key] = row
    schema = _joined_schema(left.schema, right.schema, nest_field) if wanted is None else replace(left.schema, fields=wanted)
    return Relation(schema, rows, wanted is not None)


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
