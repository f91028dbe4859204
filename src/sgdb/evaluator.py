"""Statement evaluation against a database directory.

Queries fold their pipeline steps left to right over an in-memory scan of
the source table; joins scan their right-hand table the same way.  A
query's leading ``select`` runs inside the scan of its source table
(``Database.scan(name, where)``), so only the matching rows are copied out
of storage, and a select on the primary key reads one row by key.  Table
management and row statements go straight to storage and report how many
rows they touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgdb import ops
from sgdb.dsl import (
    CreateTable,
    CrossStep,
    Delete,
    DropTable,
    Insert,
    JoinStep,
    NaturalJoinStep,
    ProjectStep,
    Query,
    RenameStep,
    SelectStep,
    ShowTables,
    Statement,
    Step,
)
from sgdb.model import Relation, Schema
from sgdb.storage import Database


@dataclass(frozen=True)
class Status:
    """Outcome of a non-query statement."""

    message: str
    affected: int = 0


_JOINS = {
    "inner": ops.inner_join,
    "left": ops.left_join,
    "right": ops.right_join,
    "outer": ops.outer_join,
}


def evaluate(stmt: Statement, db: Database) -> Relation | Status:
    match stmt:
        case Query(source, steps):
            where = None
            if steps and isinstance(steps[0], SelectStep):
                where, steps = steps[0].condition, steps[1:]
            rel = db.scan(source, where)
            for step in steps:
                rel = _apply(step, rel, db)
            return rel
        case CreateTable(name, pk, fields):
            db.create(name, Schema(pk, tuple(fields))).close()
            return Status(f"created table {name}")
        case DropTable(name):
            db.drop(name)
            return Status(f"dropped table {name}")
        case Insert(table, record):
            with db.open(table) as handle:
                handle.put_record(dict(record))
            return Status(f"inserted 1 row into {table}", affected=1)
        case Delete(table, key):
            with db.open(table) as handle:
                existed = key in handle.live_index
                handle.delete_record(key)
            return Status(f"deleted {int(existed)} row from {table}", affected=int(existed))
        case ShowTables():
            names = db.list_tables()
            return Status("\n".join(names) if names else "(no tables)", affected=len(names))
    raise TypeError(f"not a statement: {stmt!r}")


def _apply(step: Step, rel: Relation, db: Database) -> Relation:
    match step:
        case SelectStep(cond):
            return ops.select(rel, cond)
        case ProjectStep(columns):
            return ops.project(rel, columns)
        case RenameStep(old, new):
            return ops.rename(rel, old, new)
        case JoinStep(kind, table, key):
            return _JOINS[kind](rel, db.scan(table), key)
        case CrossStep(table, nest_field):
            return ops.cartesian(rel, db.scan(table), nest_field)
        case NaturalJoinStep(table):
            return ops.natural_join(rel, db.scan(table))
    raise TypeError(f"not a step: {step!r}")
