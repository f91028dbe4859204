"""One-table, one-file persistence.

Each relation lives in its own append-only log file:

    magic "SGDB" + version 0x01
    record := [op:1][keylen:u32 LE][key][vallen:u32 LE (PUT/META only)][value][crc32:u32 LE]

op is META=0x00, PUT=0x01 or DEL=0x02; the CRC covers op, lengths, key and
value.  The META record (key = the single byte 0x00) carries the schema as
JSON and is written first.  Values are canonical JSON: keys sorted by code
point, UTF-8, no insignificant whitespace, null for the explicit null value.

Opening reads the whole log in one pass and replays it from memory into a
key -> offset index (last write wins, DEL removes).  Scanning and compacting
read the log in one more pass and decode the record at each live offset.
Each pass briefly holds a buffer as large as the file.

A record that runs past the end of the file is a torn tail, a crash
artifact, and is truncated away on open.  Every other malformed log raises
``CorruptFileError``: a bad magic, an unknown record tag, a checksum mismatch
on a complete record, a key that is not UTF-8, a missing or unreadable schema
record, and a PUT payload that is not a JSON object of strings and nulls.
A database is simply a directory of ``<table>.sgt`` files.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import struct
import zlib
from pathlib import Path

from sgdb.errors import (
    CorruptFileError,
    SchemaError,
    SchemaMismatchError,
    TableExistsError,
    TableLockedError,
    UnknownTableError,
    UseAfterCloseError,
)
from sgdb.model import Relation, Schema, TupleRecord, create_relation

MAGIC = b"SGDB"
VERSION = 0x01
OP_META = 0x00
OP_PUT = 0x01
OP_DEL = 0x02
META_KEY = b"\x00"
_HEADER = MAGIC + bytes([VERSION])

_U32 = struct.Struct("<I")
_DECODER = json.JSONDecoder()

TABLE_SUFFIX = ".sgt"
_TABLE_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def canonical_record_bytes(record: TupleRecord) -> bytes:
    """Byte-identical serialization for any record with the same contents."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _schema_bytes(schema: Schema) -> bytes:
    payload = {"primary_key": schema.primary_key, "fields": list(schema.fields)}
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _schema_from_bytes(raw: bytes) -> Schema:
    try:
        payload = json.loads(raw.decode("utf-8"))
        return Schema(primary_key=payload["primary_key"], fields=tuple(payload["fields"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptFileError(f"unreadable schema record: {exc}") from exc


def _encode(op: int, key: bytes, value: bytes | None) -> bytes:
    buf = bytes([op]) + _U32.pack(len(key)) + key
    if value is not None:
        buf += _U32.pack(len(value)) + value
    return buf + _U32.pack(zlib.crc32(buf) & 0xFFFFFFFF)


def _decode_row(payload: bytes) -> TupleRecord | None:
    """The row a PUT payload holds, or None unless it is one JSON object of strings and nulls."""
    try:
        text = payload.decode("utf-8")
        row, end = _DECODER.raw_decode(text)
    except ValueError:
        return None
    if end != len(text) or type(row) is not dict:
        return None
    for value in row.values():
        if value is not None and type(value) is not str:
            return None
    return row


class _TornRecord(CorruptFileError):
    """The log ends in the middle of a record: a torn tail at open, corruption elsewhere."""

    def __init__(self, path: Path, pos: int):
        super().__init__(f"{path}: the record at offset {pos} runs past the end of the file")


class TableFile:
    """Handle on one table's log file; the single writer for that table.

    An exclusive lock is taken at open and held until close, so two handles
    on the same file cannot coexist.  ``sync=False`` defers fsync to close,
    which is faster for bulk loads but trades away crash durability for the
    unsynced suffix (replay still never yields a half-written record).

    Opening, ``scan_all`` and ``compact`` each read the file once, into a
    buffer as large as the file that is freed when they return, and parse
    records from it; a malformed record raises ``CorruptFileError`` (see the
    module docstring for which ones).
    """

    def __init__(self, path: str | Path, schema: Schema | None = None, *, sync: bool = True):
        self.path = Path(path)
        self.sync = sync
        self._closed = False
        self.live_index: dict[str, int] = {}
        creating = not self.path.exists()
        if creating:
            if schema is None:
                raise SchemaError(f"{self.path}: creating a table requires a schema")
            # Validate through the same rules as an in-memory relation.
            create_relation(schema.primary_key, list(schema.fields))
            self._fh = open(self.path, "x+b")
            self._lock()
            self.schema = Schema(schema.primary_key, tuple(schema.fields))
            self._fh.write(_HEADER)
            self._fh.write(_encode(OP_META, META_KEY, _schema_bytes(self.schema)))
            self._flush()
        else:
            self._fh = open(self.path, "r+b")
            self._lock()
            try:
                self.schema = self._replay()
                if schema is not None and (
                    schema.primary_key != self.schema.primary_key or tuple(schema.fields) != self.schema.fields
                ):
                    raise SchemaMismatchError(
                        f"{self.path}: stored schema {self.schema} != given {schema}"
                    )
            except BaseException:
                # Release the file and its lock now, not when the failed handle is collected.
                self._fh.close()
                raise

    def _lock(self) -> None:
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            raise TableLockedError(f"{self.path} is locked by another writer") from None

    def _flush(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    def _read_log(self) -> bytes:
        """The whole log file, read with one sized read."""
        self._fh.seek(0)
        return self._fh.read(os.fstat(self._fh.fileno()).st_size)

    def _parse(self, data: bytes, pos: int) -> tuple[int, str, bytes | None, int]:
        """The record at ``data[pos]`` as (op, key, value, offset just past it)."""
        size = len(data)
        op = data[pos]
        if op > OP_DEL:
            raise CorruptFileError(f"{self.path}: invalid record tag 0x{op:02x}")
        if pos + 5 > size:
            raise _TornRecord(self.path, pos)
        key_end = pos + 5 + _U32.unpack_from(data, pos + 1)[0]
        value_end = key_end
        if op != OP_DEL:
            if key_end + 4 > size:
                raise _TornRecord(self.path, pos)
            value_end = key_end + 4 + _U32.unpack_from(data, key_end)[0]
        if value_end + 4 > size:
            raise _TornRecord(self.path, pos)
        if _U32.unpack_from(data, value_end)[0] != zlib.crc32(data[pos:value_end]):
            raise CorruptFileError(f"{self.path}: checksum mismatch")
        try:
            key = data[pos + 5:key_end].decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptFileError(f"{self.path}: record key at offset {pos} is not UTF-8") from None
        value = None if op == OP_DEL else data[key_end + 4:value_end]
        return op, key, value, value_end + 4

    def _replay(self) -> Schema:
        data = self._read_log()
        if data[:len(_HEADER)] != _HEADER:
            raise CorruptFileError(f"{self.path}: bad magic")
        schema: Schema | None = None
        index = self.live_index
        pos = len(_HEADER)
        while pos < len(data):
            try:
                op, key, value, end = self._parse(data, pos)
            except _TornRecord:
                # Crash artifact: drop the incomplete tail, keep the good
                # prefix.  A truncated write can never yield a complete
                # record with a bad checksum, so those stay CorruptFileError.
                self._fh.seek(pos)
                self._fh.truncate(pos)
                self._flush()
                break
            if op == OP_PUT:
                index[key] = pos
            elif op == OP_DEL:
                index.pop(key, None)
            else:
                schema = _schema_from_bytes(value)
            pos = end
        if schema is None:
            raise CorruptFileError(f"{self.path}: no schema record")
        return schema

    def _check_open(self) -> None:
        if self._closed:
            raise UseAfterCloseError(f"{self.path} is closed")

    def _validate(self, record: TupleRecord) -> str:
        pk = self.schema.primary_key
        if pk not in record:
            raise SchemaError(f"record is missing the primary-key field {pk!r}")
        for f, v in record.items():
            if f not in self.schema.fields:
                raise SchemaError(f"unknown field {f!r} for table {self.path.stem!r}")
            if not isinstance(v, str):
                raise SchemaError(f"field {f!r} must hold a string")
        key = record[pk]
        if not key:
            raise SchemaError("primary-key value must be a non-empty string")
        return key

    def put_record(self, record: TupleRecord) -> None:
        """Append a PUT and update the index; replaces any prior version of the key."""
        self._check_open()
        key = self._validate(record)
        self._fh.seek(0, os.SEEK_END)
        offset = self._fh.tell()
        self._fh.write(_encode(OP_PUT, key.encode("utf-8"), canonical_record_bytes(record)))
        self._flush()
        self.live_index[key] = offset

    def delete_record(self, key: str) -> None:
        """Append a DEL; deleting an absent key still logs the DEL (tolerant)."""
        self._check_open()
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(_encode(OP_DEL, key.encode("utf-8"), None))
        self._flush()
        self.live_index.pop(key, None)

    def _live_rows(self) -> dict[str, TupleRecord]:
        """Decode the PUT at every live offset from one read of the log."""
        data = self._read_log()
        rows = {}
        for key, offset in self.live_index.items():
            row = _decode_row(self._parse(data, offset)[2])
            if row is None:
                raise CorruptFileError(f"{self.path}: payload of record {key!r} is not a field map")
            rows[key] = row
        return rows

    def scan_all(self) -> Relation:
        """Materialize the live rows as an in-memory relation."""
        self._check_open()
        return Relation(self.schema, self._live_rows())

    def compact(self) -> None:
        """Rewrite the file as META plus one PUT per live key, in key order.

        Writes to a temp file and renames over the original, so a failure
        leaves the table untouched.
        """
        self._check_open()
        rows = self._live_rows()
        tmp = self.path.with_name(self.path.name + ".compact")
        with open(tmp, "wb") as out:
            out.write(_HEADER)
            out.write(_encode(OP_META, META_KEY, _schema_bytes(self.schema)))
            for key in sorted(rows):
                out.write(_encode(OP_PUT, key.encode("utf-8"), canonical_record_bytes(rows[key])))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        self._fh.close()
        self._fh = open(self.path, "r+b")
        self._lock()
        self.live_index.clear()
        self._replay()

    def close(self) -> None:
        """Flush and release the handle; closing twice is a no-op."""
        if self._closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "TableFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_table(path: str | Path, schema: Schema | None = None, *, sync: bool = True) -> TableFile:
    """Open (or create, when a schema is given) the table file at ``path``."""
    return TableFile(path, schema, sync=sync)


class Database:
    """A directory of table files; tables are discovered by listing it."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        if not _TABLE_NAME_RE.match(name):
            raise SchemaError(f"invalid table name {name!r} (letters, digits and _ only)")
        return self.root / f"{name}{TABLE_SUFFIX}"

    def list_tables(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob(f"*{TABLE_SUFFIX}"))

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def create(self, name: str, schema: Schema, *, sync: bool = True) -> TableFile:
        path = self._path(name)
        if path.exists():
            raise TableExistsError(f"table {name!r} already exists")
        return TableFile(path, schema, sync=sync)

    def open(self, name: str, *, sync: bool = True) -> TableFile:
        path = self._path(name)
        if not path.exists():
            raise UnknownTableError(f"no table named {name!r}")
        return TableFile(path, sync=sync)

    def drop(self, name: str) -> None:
        path = self._path(name)
        if not path.exists():
            raise UnknownTableError(f"no table named {name!r}")
        path.unlink()

    def scan(self, name: str) -> Relation:
        with self.open(name) as table:
            return table.scan_all()
