"""CSV import/export for base tables.

Import reads the header as the schema (in column order), requires the named
primary-key column, and rejects duplicated key values.  It reads the file as
strict CSV: text after a closing quote, a file that ends inside a quoted
cell and a cell longer than ``csv.field_size_limit()`` are errors.  Every
error names the physical line of the file on which the record at fault ends
(``reader.line_num``), so a quoted cell that holds a line break counts as
the lines it spans.  A UTF-8 byte-order mark at the start of the file is not
part of the first column's name.  The table appears only once every row is
written and synced (``Database.load``), so a failed import leaves no table
behind.  Export writes the table's CSV rendering (``render`` with
``RenderSpec("csv")``): the schema columns in order with rows sorted by key,
so identical tables always produce identical files.  A null, like a field
the row lacks, exports as an empty cell, so it reads back as the empty
string.  Lines end in ``\n``, and a cell holding ``\r`` is quoted so that it
reads back whole (see ``render.csv_text``).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator

from sgdb.errors import CsvFormatError, DuplicateKeyError, MissingColumnError
from sgdb.model import Schema
from sgdb.render import RenderSpec, render
from sgdb.storage import Database


def import_csv(db: Database, table: str, csv_path: str | Path, pk: str) -> int:
    """Create ``table`` from a headed CSV file; returns the number of rows loaded."""
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        lines = _cells(csv_path, reader)
        try:
            header = next(lines)
        except StopIteration:
            raise CsvFormatError(f"{csv_path}: empty file, expected a header row") from None
        if pk not in header:
            raise MissingColumnError(f"{csv_path}: no {pk!r} column in header {header}")
        rows = []
        seen: set[str] = set()
        for cells in lines:
            if len(cells) != len(header):
                raise CsvFormatError(
                    f"{csv_path}:{reader.line_num}: row has {len(cells)} cells, header has {len(header)}"
                )
            record = dict(zip(header, cells))
            key = record[pk]
            if not key:
                raise CsvFormatError(f"{csv_path}:{reader.line_num}: empty primary-key value")
            if key in seen:
                raise DuplicateKeyError(f"{csv_path}:{reader.line_num}: duplicate primary key {key!r}")
            seen.add(key)
            rows.append(record)
    db.load(table, Schema(pk, tuple(header)), rows)
    return len(rows)


def _cells(csv_path: str | Path, reader) -> Iterator[list[str]]:
    """The rows of ``reader``; text that is not well-formed CSV, such as a file
    cut inside a quoted cell, is a ``CsvFormatError`` naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"{csv_path}:{reader.line_num}: {exc}") from None


def export_csv(db: Database, table: str, csv_path: str | Path) -> int:
    """Write ``table`` to a CSV file; returns the number of rows written."""
    rel = db.scan(table)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(render(rel, RenderSpec("csv")))
    return len(rel)
