"""Differential oracle: a deliberately naive second implementation.

Every operator here works dictionary-at-a-time over plain nested dicts, in
the most literal loop-and-assign style possible, sharing no code with the
engine in ``sgdb.ops``.  Table arguments are wrapped in a copy-on-read view
(``_ShelfView``) that hands out an independent deep copy on every item
access, the way a shelf-style store does; the loops below freely alias and
mutate what they read, and the copy-on-read discipline is what keeps that
sound (each read is fresh, so a mutation through one alias can never leak
into a later read).  ``rename`` is the exception: it works by mutating rows
in place, so it runs on one plain deep copy instead.

Intentional divergences from the fully literal style, kept in sync with the
engine and with ``sgdb.difftest``:

* ``cartesian`` flattens every pair row (not just the last one written) and,
  through copy-on-read, nests into a fresh copy of the left tuple per pair;
  it also emits no synthesized rows for unreferenced right keys — a cross
  product is all pairs and nothing else.
* ``natural_join`` picks its joining field from the declared field lists
  (the right relation's primary key among the shared names) instead of
  scanning one arbitrary row of each side, so the choice is deterministic.
* The joins read a left row's joining field with ``get``, so a row that
  lacks it is unmatched, as in the engine, instead of a ``KeyError``.
* Right/outer joins build each synthesized row from the declared left
  field list (the schema), not from the fields of the first left row.
* ``select`` splits its ``field=value`` condition at the first ``=`` and
  compares the value untrimmed, so a value with spaces round it, or with
  ``=`` in it, matches what the engine's exact comparison matches.
* Error cases raise the same exception classes the engine raises (missing
  joining field, rename collisions, flatten/result key collisions) instead
  of silently returning or overwriting.
"""

from __future__ import annotations

import copy
from typing import Iterator, Mapping

from sgdb.dsl import JoinStep, ProjectStep, RenameStep, SelectStep, Step
from sgdb.errors import (
    FieldCollisionError,
    KeyCollisionError,
    MissingJoinKeyError,
    NoCommonFieldError,
    NotJoinableError,
)
from sgdb.model import Relation
from sgdb.ops import STAR


class _ShelfView(Mapping):
    """Read-only mapping whose item reads return independent deep copies."""

    def __init__(self, rows: dict):
        self._rows = rows

    def __getitem__(self, key):
        return copy.deepcopy(self._rows[key])

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def flatten(d, prefix=None, sep="."):
    result = {}
    if prefix is None:
        prefix = ""
    for k, v in d.items():
        if prefix:
            key = prefix + sep + k
        else:
            key = k
        if isinstance(v, dict):
            if v:
                for kk, vv in flatten(v, key).items():
                    if kk in result:
                        raise KeyCollisionError(f"flattening produced key {kk!r} twice")
                    result[kk] = vv
            else:
                if key in result:
                    raise KeyCollisionError(f"flattening produced key {key!r} twice")
                result[key] = None
        else:
            if key in result:
                raise KeyCollisionError(f"flattening produced key {key!r} twice")
            result[key] = v
    return result


def select(db, where=""):
    if len(where) > 0:
        where = where.split("=", 1)
    ret = {}
    for k in db:
        try:
            field = ""
            if len(where) == 2:
                field = db[k][where[0]]
            if (len(where) == 2 and field == where[1]) or len(where) == 0:
                ret[k] = db[k]
        except KeyError:
            pass
    return ret


def project(columns, db):
    columns = [x.strip() for x in columns.split(",")]
    ret = {}
    for k in db:
        if columns[0] == "*":
            ret[k] = db[k]
        else:
            ret[k] = {}
            for kk in columns:
                try:
                    ret[k][kk] = db[k][kk]
                except KeyError:
                    pass
    return ret


def rename(dic, old_key, new_key):
    for k in dic:
        if new_key in dic[k]:
            raise FieldCollisionError(f"field {new_key!r} already present in row {k!r}")
    for k in dic:
        for kk in list(dic[k]):
            if kk == old_key:
                dic[k][new_key] = dic[k][old_key]
                del dic[k][old_key]
    return dic


def left_join(left, right, key=None):
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    ret = {}
    for k in left:
        ret[k] = left[k]
        if left[k].get(key) in right:
            ret[k][key] = right[left[k][key]]
        ret[k] = flatten(ret[k])
    return ret


def inner_join(left, right, key=None):
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    ret = {}
    for k in left:
        if left[k].get(key) in right:
            if len(right[left[k][key]]) > 0:
                ret[k] = left[k]
                ret[k][key] = right[left[k][key]]
                ret[k] = flatten(ret[k])
    return ret


def _unmatched_right(ret, left, right, key, left_fields):
    for k in right:
        found = 0
        empty = {}
        for kk in left:
            if left[kk].get(key) == k:
                found = 1
        if found == 0:
            for kk in left_fields:
                if kk == key:
                    empty[kk] = right[k]
                else:
                    empty[kk] = ""
            if k in ret:
                raise KeyCollisionError(
                    f"synthesized right row key {k!r} collides with an existing result row"
                )
            ret[k] = empty
            ret[k] = flatten(ret[k])
    return ret


def right_join(left, right, key=None, left_fields=()):
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    ret = inner_join(left, right, key)
    return _unmatched_right(ret, left, right, key, left_fields)


def outer_join(left, right, key=None, left_fields=()):
    if not key:
        raise MissingJoinKeyError("a joining-field name is required")
    ret = left_join(left, right, key)
    return _unmatched_right(ret, left, right, key, left_fields)


def cartesian(left, right, keys=None):
    if not keys:
        raise MissingJoinKeyError("a joining-field name is required")
    ret = {}
    for left_key in left:
        for right_key in right:
            new_key = left_key + "_" + right_key
            row = left[left_key]
            row[keys] = right[right_key]
            if new_key in ret:
                raise KeyCollisionError(f"pair key {new_key!r} produced twice")
            ret[new_key] = flatten(row)
    return ret


def natural_join(left, right, left_fields, right_fields, right_pk):
    shared = set(left_fields) & set(right_fields)
    if not shared:
        raise NoCommonFieldError("the relations share no field name")
    if right_pk not in shared:
        raise NotJoinableError(
            f"shared fields {sorted(shared)} do not include the right primary key {right_pk!r}"
        )
    key = right_pk
    ret = {}
    for k in left:
        if left[k].get(key) in right:
            if len(right[left[k][key]]) > 0:
                ret[k] = left[k]
                ret[k][key] = right[left[k][key]]
                ret[k] = flatten(ret[k])
    return ret


def oracle_eval(step: Step, left: Relation, right: Relation | None = None) -> Relation:
    """Run one pipeline step through the naive implementation, on engine inputs.

    ``right`` is the relation a join, cross or natural join reads from its
    table.  Returns a relation with ``left``'s schema holding the raw rows, so
    results compare directly against engine output with ``relation_equal``.
    """
    lview = _ShelfView(left.rows)
    rview = _ShelfView(right.rows) if right is not None else None
    match step:
        case SelectStep(condition):
            rows = select(lview, f"{condition.field}={condition.value}")
        case ProjectStep(columns):
            rows = project(STAR if columns == STAR else ", ".join(columns), lview)
        case RenameStep(old, new):
            rows = rename(copy.deepcopy(left.rows), old, new)
        case JoinStep("inner", _, key):
            rows = inner_join(lview, rview, key)
        case JoinStep("left", _, key):
            rows = left_join(lview, rview, key)
        case JoinStep("right", _, key):
            rows = right_join(lview, rview, key, left_fields=left.schema.fields)
        case JoinStep("outer", _, key):
            rows = outer_join(lview, rview, key, left_fields=left.schema.fields)
        case JoinStep("cross", _, nest_field):
            rows = cartesian(lview, rview, nest_field)
        case JoinStep("natural"):
            rows = natural_join(
                lview,
                rview,
                left.schema.fields,
                right.schema.fields,
                right.schema.primary_key,
            )
        case _:
            raise ValueError(f"unknown step {step!r}")
    return Relation(left.schema, rows)
