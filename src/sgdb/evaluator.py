"""Statement evaluation against a database directory.

Queries fold their pipeline steps left to right over an in-memory scan of
the source table; joins scan their right-hand table the same way.  The fold
looks one step ahead and makes three rewrites.  The first two move a
``select`` into the scan it follows (``Database.scan(name, where)``), so only
the matching rows are copied out of storage, which picks how to find them
(see ``sgdb.storage``):

* a query's leading ``select f = v`` runs inside the scan of its source;
* ``cross T as n`` or ``ijoin T on n`` followed at once by ``select n.g = v``
  becomes the same step over the scan of ``T`` with ``g = v``, and the
  select is dropped.  This is σ_p(R × S) = R × σ_p(S) for a p that reads
  only S, and the same law for the inner join.

The second rewrite fires only when the left relation shows that the result
cannot change:

1. no left row has a field starting with ``n.`` (``ops._nests_cleanly``).
   Then flattening can never meet a field twice, so no pair the select drops
   could have raised the flatten ``KeyCollisionError``, and no pair is kept
   for a left field named ``n.g``.  This is one set union of the left rows'
   fields;
2. after ``cross``, no left row key contains ``_``, so pair keys
   ``<left key>_<right key>`` are all distinct and no dropped pair could
   have raised the duplicate pair-key error.

Otherwise the select runs after the join.  The third rewrite runs a join
and the column ``project`` after it as one call:

* ``cross T as n`` or ``ijoin T on n`` followed at once by ``project c, …``
  (not ``*``), judged after the second rewrite has dropped its select,
  becomes one ``ops.cartesian``/``ops.inner_join`` call given the columns.
  That call returns exactly the project of the join, and builds only those
  fields of each row when the left relation passes rule 1 (π_L(R ⋈ S) in
  one pass).

Left, right and outer joins are never rewritten: filtering their right side
changes which rows go unmatched, and those rows stay in their result.
Natural joins are not rewritten either.  Only the join right before the
project builds fewer fields.  The earlier joins of a chain (``… | ijoin a on
x | ijoin b on y | project …``) build their rows in full: narrowed rows
would reach the next join with other fields in another order, and an error
that join raises would then name another field than the plain fold's.

Rows, row order, field order, schema and errors are those of applying each
step in turn over full scans.  Table management and row statements go
straight to storage and report how many rows they touched.  An insert that
names a field twice is a ``SchemaError`` before its table is opened.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgdb import ops
from sgdb.dsl import (
    CreateTable,
    Delete,
    DropTable,
    Insert,
    JoinStep,
    ProjectStep,
    Query,
    RenameStep,
    SelectStep,
    ShowTables,
    Statement,
    Step,
)
from sgdb.errors import SchemaError
from sgdb.model import Relation, Schema
from sgdb.ops import Condition
from sgdb.storage import Database


@dataclass(frozen=True)
class Status:
    """Outcome of a non-query statement."""

    message: str


_JOINS = {
    "inner": ops.inner_join,
    "left": ops.left_join,
    "right": ops.right_join,
    "outer": ops.outer_join,
    "cross": ops.cartesian,
}


def evaluate(stmt: Statement, db: Database) -> Relation | Status:
    match stmt:
        case Query(source, steps):
            pending = list(steps)
            where = pending.pop(0).condition if pending and isinstance(pending[0], SelectStep) else None
            rel = db.scan(source, where)
            while pending:
                step = pending.pop(0)
                if not isinstance(step, JoinStep):
                    rel = _apply(step, rel, None)
                    continue
                where = _pushed_condition(step, pending[0] if pending else None, rel)
                if where is not None:
                    pending.pop(0)
                right = db.scan(step.table, where)
                after = pending[0] if pending else None
                if step.kind in ("inner", "cross") and isinstance(after, ProjectStep) and after.columns != ops.STAR:
                    pending.pop(0)
                    rel = _JOINS[step.kind](rel, right, step.key, after.columns)
                else:
                    rel = _apply(step, rel, right)
            return rel
        case CreateTable(name, pk, fields):
            db.create(name, Schema(pk, tuple(fields))).close()
            return Status(f"created table {name}")
        case DropTable(name):
            db.drop(name)
            return Status(f"dropped table {name}")
        case Insert(table, record):
            fields = [f for f, _ in record]
            for f in fields:
                if fields.count(f) > 1:
                    raise SchemaError(f"field {f!r} is given twice in an insert into {table}")
            with db.open(table) as handle:
                handle.put_record(dict(record))
            return Status(f"inserted 1 row into {table}")
        case Delete(table, key):
            with db.open(table) as handle:
                existed = handle.delete_record(key)
            return Status(f"deleted {int(existed)} row from {table}")
        case ShowTables():
            names = db.list_tables()
            return Status("\n".join(names) if names else "(no tables)")
    raise TypeError(f"not a statement: {stmt!r}")


def _pushed_condition(step: Step, after: Step | None, left: Relation) -> Condition | None:
    """The condition on ``step``'s own table that the select ``after`` applies,
    when the module docstring's rules let it run inside that table's scan."""
    if not (isinstance(after, SelectStep) and step.kind in ("inner", "cross")):
        return None
    prefix = step.key + ops.SEPARATOR
    field, value = after.condition.field, after.condition.value
    if not field.startswith(prefix) or not ops._nests_cleanly(left, step.key):
        return None
    if step.kind == "cross" and any(ops.PAIR_SEPARATOR in key for key in left.rows):
        return None
    return Condition(field[len(prefix):], value)


def _apply(step: Step, rel: Relation, right: Relation | None) -> Relation:
    """``step`` applied to ``rel``; ``right`` is the relation a join, cross or
    natural join reads from its table (``evaluate`` scans it), else None."""
    match step:
        case SelectStep(cond):
            return ops.select(rel, cond)
        case ProjectStep(columns):
            return ops.project(rel, columns)
        case RenameStep(old, new):
            return ops.rename(rel, old, new)
        case JoinStep("natural"):
            return ops.natural_join(rel, right)
        case JoinStep(kind, _, key):
            return _JOINS[kind](rel, right, key)
    raise TypeError(f"not a step: {step!r}")
