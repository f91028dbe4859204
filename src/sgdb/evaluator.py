"""Statement evaluation against a database directory.

Queries fold their pipeline steps left to right over the rows of the
source table that ``Database.read`` returns; joins read their right-hand
table the same way.  A read shares the rows storage keeps, and the
operators never change their inputs, so no row is copied until an operator
builds one; when no operator ran, the read relation is copied once
(``project *``), so a query result never shares a kept row.

The fold looks ahead and groups steps in three ways.  The first two move a
``select`` into the scan it follows (``Database.read(name, where)``), so only
the matching rows are taken from storage, which picks how to find them
(see ``sgdb.storage``):

* a query's leading ``select`` runs inside the scan of its source;
* ``cross T as n`` or ``ijoin T on n`` followed at once by a ``select``
  scans ``T`` with the condition ``ops.right_condition`` gives, and the
  select is dropped; when it gives None, the select runs after the join.

The third runs joins and the ``project`` after them as one call:

* a run of one or more ``ijoin`` steps followed at once by ``project``
  becomes one ``ops.inner_join_run`` call, and ``cross T as n`` followed
  at once by ``project`` one ``ops.cartesian`` call, given the columns,
  once the second has dropped the select after the join, if any.  Each
  returns exactly the project of the joins, and a run builds each result
  row once when no step can raise (given ``*``, it builds the plain
  chain).  The run's first join may have dropped its select into its
  scan; a select after a later join ends the run before that join.  The
  call takes the run's right tables one at a time, each scanned only as
  its step is taken, so a step that may raise is joined before the next
  table is scanned and every error, ``UnknownTableError`` included, comes
  in the plain fold's order.

Left, right and outer joins are never grouped: filtering their right side
changes which rows go unmatched, and those rows stay in their result.
Natural joins are not grouped either, and a cross is never part of a run.

Rows, row order, field order, schema and errors are those of applying each
step in turn over full scans.  Table management and row statements go
straight to storage and report how many rows they touched.  An insert that
names a field twice is a ``SchemaError`` before its table is opened.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile

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
            rel = scanned = db.read(source, where)
            while pending:
                step = pending.pop(0)
                if not isinstance(step, JoinStep):
                    rel = _apply(step, rel, None)
                    continue
                fuses = step.kind in ("inner", "cross")
                where = None
                if fuses and pending and isinstance(pending[0], SelectStep):
                    where = ops.right_condition(rel, step.key, pending[0].condition, step.kind == "cross")
                    if where is not None:
                        pending.pop(0)
                right = db.read(step.table, where)
                joins = list(takewhile(_is_inner_join, pending)) if step.kind == "inner" else []
                after = pending[len(joins)] if len(joins) < len(pending) else None
                if fuses and isinstance(after, ProjectStep):
                    del pending[:len(joins) + 1]
                    if step.kind == "cross":
                        rel = _JOINS["cross"](rel, right, step.key, after.columns)
                    else:
                        scans = ((db.read(join.table), join.key) for join in joins)
                        rel = ops.inner_join_run(rel, chain([(right, step.key)], scans), after.columns)
                else:
                    rel = _apply(step, rel, right)
            if rel is scanned:
                rel = ops.project(rel, ops.STAR)
            return rel
        case CreateTable(name, pk, fields):
            db.load(name, Schema(pk, tuple(fields)), ())
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


def _is_inner_join(step: Step) -> bool:
    return isinstance(step, JoinStep) and step.kind == "inner"


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
