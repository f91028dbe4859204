"""Deterministic rendering of relations as aligned text, CSV, or JSON lines.

Rows are always emitted in row-key order.  Columns follow the schema's field
order; fields that appear only in some rows of a heterogeneous result are
appended after the schema columns, sorted by name.  A bounded relation
(``Relation.bounded``) has no such fields, so its rows are not read for
them.  Table and CSV output pad
missing fields with "".  Table output shows the explicit null as ``NULL``,
and CSV output writes it as an empty cell, as ``sgdb export`` does (its file
is this CSV output); JSON output emits each row's record verbatim (null as
JSON null) using the same canonical serialization the table files use.
Table and CSV output are built one column at a time: a column holds one
field's value in every row, and only a column that holds a null has it
replaced.  Table output pads each column to its longest cell, column name
included, once, and lays out the header and every row from those padded
columns (``_table``).  It writes a line feed or carriage return inside a
cell or column name as the two characters ``\n`` or ``\r``, so every row
stays on one line and the columns line up.  CSV output quotes cells as
``csv_text`` does.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from sgdb.model import Relation
from sgdb.storage import CANONICAL_JSON

FORMATS = ("table", "csv", "json")


@dataclass(frozen=True)
class RenderSpec:
    format: str = "table"


def columns_of(rel: Relation) -> list[str]:
    """Schema fields first, then any extra row fields in sorted order; a
    bounded relation has none."""
    cols = list(rel.schema.fields)
    if rel.bounded:
        return cols
    return cols + sorted(set().union(*rel.rows.values()).difference(cols))


def render(rel: Relation, spec: RenderSpec) -> str:
    """``rel`` as text in ``spec.format`` (see the module docstring)."""
    keys = sorted(rel.rows)
    if spec.format == "json":
        return "".join(CANONICAL_JSON.encode(rel.rows[key]) + "\n" for key in keys)
    rows = list(map(rel.rows.__getitem__, keys))
    cols = columns_of(rel)
    null = "" if spec.format == "csv" else "NULL"
    columns = []
    for c in cols:
        column = [row.get(c, "") for row in rows]
        if None in column:
            column = [null if v is None else v for v in column]
        columns.append(column)
    if spec.format == "csv":
        return csv_text([cols, *_by_row(columns, len(rows))])
    if spec.format != "table":
        raise ValueError(f"unknown format {spec.format!r}")
    text = _table(cols, columns, len(rows))
    # Only a line break inside a cell or column name adds line breaks to the
    # text: rows are stripped of their space padding and of nothing else.
    if text.count("\n") != len(rows) + 3 or "\r" in text:
        text = _table(list(map(_escaped, cols)), [list(map(_escaped, column)) for column in columns], len(rows))
    return text


def csv_text(rows: Sequence[Sequence[str]]) -> str:
    """``rows`` as CSV lines ending in ``\n``.

    A cell is quoted where the csv module quotes it, and also when it holds
    a carriage return: unquoted, a ``\r`` before the line end reads back as
    part of the line end, and the value loses it.  The rows are written once
    as plain CSV, and again, one row at a time, only when that text holds a
    ``\r``.
    """
    text = _csv_lines(rows, "\n")
    if "\r" in text:
        # The csv module quotes a cell holding any character of the line
        # terminator, and quotes every other cell as it would with "\n".
        text = "".join(_csv_lines([cells], "\r\n")[:-2] + "\n" for cells in rows)
    return text


def _csv_lines(rows: Iterable[Sequence[str]], end: str) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows(rows)
    return out.getvalue()


def _escaped(text: str) -> str:
    return text.replace("\n", "\\n").replace("\r", "\\r")


def _by_row(columns: list[Iterable[str]], n: int) -> Iterable[tuple[str, ...]]:
    """The cells of each of the ``n`` rows that ``columns`` holds column by column."""
    return zip(*columns) if columns else repeat((), n)


def _table(cols: list[str], columns: list[list[str]], n: int) -> str:
    """The table of ``n`` rows under the header ``cols``, where ``columns``
    holds the rows' cells column by column.

    Each column is as wide as its longest cell, header included, and is
    padded to that width once; every line, header and body alike, is its
    padded cells joined by two spaces, with trailing spaces stripped.
    """
    widths = [max(len(c), max(map(len, column), default=0)) for c, column in zip(cols, columns)]
    padded = [map(str.ljust, column, repeat(w)) for column, w in zip(columns, widths)]
    body = map(str.rstrip, map("  ".join, _by_row(padded, n)), repeat(" "))
    header = "  ".join(map(str.ljust, cols, widths)).rstrip(" ")
    dashes = "  ".join("-" * w for w in widths)
    footer = f"({n} row{'s' if n != 1 else ''})"
    return "\n".join([header, dashes, *body, footer]) + "\n"
