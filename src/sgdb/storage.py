"""One-table, one-file persistence.

Each relation lives in its own append-only log file:

    magic "SGDB" + version 0x01
    record := [op:1][keylen:u32 LE][key][vallen:u32 LE (PUT/META only)][value][crc32:u32 LE]

op is META=0x00, PUT=0x01 or DEL=0x02; the CRC covers op, lengths, key and
value.  The META record (key = the single byte 0x00) carries the schema as
JSON and is written once, first.  Values are canonical JSON: keys sorted by
code point, UTF-8, no insignificant whitespace.  A record is stored under
the rule every base relation follows (``model._check_row``): it holds only
the schema's fields, its primary-key value is non-empty text and is its
record key, and each other field holds text or the explicit null, which is
written as JSON null and read back as ``None``.

The reader states no rule of its own: it holds what it reads to the checks
the writer runs, in ``model``.  A schema record is built by
``create_relation`` (``_schema_from_bytes``), as ``_log`` builds the one it
writes, and every live record is held to ``_check_row`` (``_decoded``), as
``put_record`` holds the one it writes.  So a log opens only if the writer
could have written it, and a table that scans also compacts.

``TableFile(path, schema)`` creates a table and ``TableFile(path)`` opens
one; neither looks first at what the path holds.  A create fails with
``TableExistsError`` when the path exists, an open with
``UnknownTableError`` when it does not (``_open_locked``), and an open takes
its schema from the log.

Opening reads the whole log with one sized read and replays it from memory
in one loop (``_replay``), which reads every record in place, the META
record included, and parses and checks each once, into the live index: each
live key -> the payload of its last PUT (last write wins, DEL removes).  A
record checks when one CRC-32 over all its bytes, its stored CRC included,
is the CRC residue (``_CRC_RESIDUE``), which holds exactly when the stored
CRC is the CRC of the bytes before it.  The same loop holds the log to its
first-record rule: the first record it reads must be META, whose schema it
builds before it reads on, and a later META is corruption.  The live index
is the handle's one image of the table.  ``put_record`` and
``delete_record`` update it with what they append, and ``scan_all`` and
``compact`` decode its payloads, so a handle reads its log only at open and
parses no record twice.  Until it first writes, a handle also keeps the
bytes it read, for ``Database.read``; it thus holds a buffer as large as
the file plus a copy of each live payload, and after a write only the
payloads.

``Database.read`` keeps, per table, the parse of its last read: the log
bytes, the schema and live payloads replayed from them, the decoded live rows,
and an equality index over those rows (``_Parse.by_value``).  It hands that
parse to the handle it opens (``TableFile``'s ``kept``), which still opens,
locks, reads and closes the file; when the bytes read are identical to the
kept ones, ``_replay`` returns the kept parse and nothing is replayed or
decoded.  Parsing is a pure function of the bytes, so a reused parse gives
the same rows, and the same verdict on corruption, as a fresh one; any
change to the file, however small, is a fresh parse, with no rows and no
equality index.  So only reads of a log unchanged since the last read in
the same ``Database`` are spared the parse: a read after a write to the
table, or the first read in a new ``Database`` (each ``sgdb exec``
process), parses in full.  The handle takes the kept parse over, and the
``Database`` keeps a parse again only once a read has succeeded.  Kept
parses stay resident until the table is dropped or the ``Database`` is
freed: about one decoded copy, plus the log bytes and the live payloads, of
every table it has read.  For 5,000 rows of 3 to 5 text fields of 3 to 8
characters, ``tracemalloc`` counts 10 to 12 bytes held per byte of log, of
which the payloads are under one.

``read`` returns the kept rows themselves, under a row map of its own, as a
bounded relation (``Relation.bounded``): ``_decoded`` has held every row to
the schema.  Its caller must not change those rows.  ``sgdb.evaluator``
reads every table of a query this way: its operators never change their
inputs, and it copies the result once when no operator built it.
``scan`` is ``read`` plus one copy of each row it returns, so its caller
owns the relation.

A read given a condition (a query's leading ``select``) takes only the
kept rows that match it.  A condition on the primary key is one lookup of
the key, which is exact because a row is always stored under its own
primary-key value.  A condition on any other field reads that field's
equality index (value -> the keys of the rows holding it, in row order),
which the first condition on the field builds in one pass over the rows of
the parse, and which every later one reads again.  A build costs a little
more than the filter pass it replaces, and far less than the parse that
precedes it on a fresh ``Database``.  Null is never indexed, as a
condition's value is always text.  An index costs one list of key
references per distinct value of each field selected on, and it is
discarded with its parse.

A record that runs past the end of the file is a torn tail, a crash
artifact, and is truncated away on open.  Every other malformed log raises
``CorruptFileError``: a bad magic, an unknown record tag, a checksum mismatch
on a complete record, a key that is not UTF-8, a log whose first record is
not a schema record, a second schema record, a schema record that is not a
JSON object whose ``primary_key`` and ``fields`` list ``create_relation``
accepts, a live PUT payload that is not one JSON object, and one that
``_check_row`` refuses for the schema (a field outside the schema, a
missing, empty or null primary-key value or one that differs from the
record key, or a value that is neither text nor null).

A database is simply a directory of ``<table>.sgt`` files.  A new log is
put in place one way (``_install``), whether a table is created empty,
loaded whole (``Database.load``) or compacted.  The whole log goes to a
temporary file ``<table>.sgt.<hex>.tmp`` beside the table, which
``list_tables`` ignores.  That file is locked, written and fsynced, then
hard-linked to the table's name (create, load) or renamed over it
(compact), and the directory is fsynced.  So a table file only ever
appears complete and already locked by the handle that made it, and a
crash leaves either the whole new log or none of it under the table's
name.  A crash can leave a temporary file behind; and a crash between the
link and the unlink of the temporary name leaves a second name for the
table's file.  ``Database.drop`` takes the table's lock before
it unlinks the file, so it never deletes a table a handle has open, and
then fsyncs the directory.  An open and a drop lock the file they opened
and then check that the table's name still links to it (``_open_locked``);
if a drop and recreate or a compact came in between, they open the name
again, so no handle ever writes to, and no drop ever unlinks under, a lock
on a file that is no longer the table.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import struct
import zlib
from collections import defaultdict
from pathlib import Path
from typing import Iterable, NamedTuple

from sgdb.errors import (
    CorruptFileError,
    DuplicateKeyError,
    SchemaError,
    TableExistsError,
    TableLockedError,
    UnknownTableError,
    UseAfterCloseError,
)
from sgdb.model import Relation, Schema, TupleRecord, _check_row, _checked_key, create_relation
from sgdb.ops import Condition

MAGIC = b"SGDB"
VERSION = 0x01
OP_META = 0x00
OP_PUT = 0x01
OP_DEL = 0x02
META_KEY = b"\x00"
_HEADER = MAGIC + bytes([VERSION])

_U32 = struct.Struct("<I")
# The CRC-32 residue: crc32(m + crc32(m).to_bytes(4, "little")) is this constant for
# every m, and for a fixed m distinct 4-byte suffixes give distinct CRCs, so the CRC of
# a whole record equals it exactly when its stored CRC is the CRC of the bytes before.
_CRC_RESIDUE = 0x2144DF1C
_DECODER = json.JSONDecoder()
# The canonical JSON of records and schemas: keys sorted by code point, UTF-8
# text, no insignificant whitespace.  One encoder serves every call.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))

TABLE_SUFFIX = ".sgt"
_TABLE_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def canonical_record_bytes(record: TupleRecord) -> bytes:
    """Byte-identical serialization for any record with the same contents."""
    return CANONICAL_JSON.encode(record).encode("utf-8")


def _schema_bytes(schema: Schema) -> bytes:
    payload = {"primary_key": schema.primary_key, "fields": list(schema.fields)}
    return CANONICAL_JSON.encode(payload).encode("utf-8")


def _schema_from_bytes(path: Path, raw: bytes) -> Schema:
    """The schema a META payload holds, built by ``create_relation`` as ``_log`` builds it."""
    try:
        payload = json.loads(raw.decode("utf-8"))
        return create_relation(payload["primary_key"], payload["fields"]).schema
    except (ValueError, KeyError, TypeError, SchemaError) as exc:
        raise CorruptFileError(f"{path}: unreadable schema record: {exc}") from exc


def _encode(op: int, key: bytes, value: bytes | None) -> bytes:
    buf = bytes([op]) + _U32.pack(len(key)) + key
    if value is not None:
        buf += _U32.pack(len(value)) + value
    return buf + _U32.pack(zlib.crc32(buf) & 0xFFFFFFFF)


def _log(schema: Schema, records: Iterable[TupleRecord]) -> bytes:
    """A whole log: the header, the META record of ``schema`` and one PUT per record.

    Raises ``SchemaError`` for a schema an in-memory relation would refuse,
    or for a record ``put_record`` would refuse, and ``DuplicateKeyError`` for
    a second record under one key.
    """
    schema = create_relation(schema.primary_key, schema.fields).schema
    puts = {}
    for record in records:
        key = _checked_key(schema, record)
        if key in puts:
            raise DuplicateKeyError(f"duplicate primary key {key!r}")
        puts[key] = _encode(OP_PUT, key.encode("utf-8"), canonical_record_bytes(record))
    return b"".join([_HEADER, _encode(OP_META, META_KEY, _schema_bytes(schema)), *puts.values()])


def _flock(fh, path: Path) -> None:
    """Take the table's exclusive lock on ``fh``; if another handle holds it,
    close ``fh`` and raise ``TableLockedError``."""
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        fh.close()
        raise TableLockedError(f"{path} is locked by another writer") from None


def _open_locked(path: Path, mode: str):
    """``path`` opened with ``mode`` and locked (``_flock``), checked to still be the
    file ``path`` names once the lock is held.

    A file unlinked or replaced between the open and the lock (a drop and
    recreate, or a compact, by another handle) is closed and ``path`` opened
    again, so a handle never locks, and writes to, a file that is no longer
    the table.  A missing ``path`` is ``UnknownTableError``; so is one unlinked
    after the open and not put back, which the open again finds missing.
    """
    while True:
        try:
            fh = open(path, mode)
        except FileNotFoundError:
            raise UnknownTableError(f"no table named {path.stem!r}") from None
        _flock(fh, path)
        try:
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                return fh
        except FileNotFoundError:
            pass  # unlinked since the open: not the same file, and the next open says so
        except BaseException:
            fh.close()
            raise
        fh.close()


def _fsync_dir(path: Path) -> None:
    """fsync the directory holding ``path``, making a create, rename or unlink of it durable."""
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _install(path: Path, data: bytes, *, replace: bool):
    """Put the log ``data`` in place at ``path``; return the new file, open and locked.

    ``data`` goes to a new temporary file beside ``path``, which is locked
    before it is written, fsynced, then renamed over ``path`` (``replace``)
    or hard-linked to it (otherwise; a ``path`` that exists is
    ``TableExistsError``).  The directory is fsynced last.  So ``path`` only
    ever names a complete, durable log that its creator already holds
    locked, a failure leaves no temporary file and no open file, and one
    before the rename or link leaves ``path`` as it was.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    fh = open(tmp, "x+b")
    try:
        _flock(fh, tmp)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
        if replace:
            os.replace(tmp, path)
        else:
            os.link(tmp, path)
            tmp.unlink()
        _fsync_dir(path)
    except BaseException as exc:
        fh.close()
        tmp.unlink(missing_ok=True)
        if isinstance(exc, FileExistsError):
            raise TableExistsError(f"table {path.stem!r} already exists") from None
        raise
    return fh


class _Parse(NamedTuple):
    """A table's whole log, the schema and live index replayed from it (each live
    key -> the payload of its last PUT), and, once ``Database.read`` has
    decoded them, its live rows and their equality index: field -> value ->
    the keys of the rows holding that value, in row order, for each field a
    condition has named."""

    data: bytes
    schema: Schema
    index: dict[str, bytes]
    rows: dict[str, TupleRecord] | None = None
    by_value: dict[str, dict[str, list[str]]] | None = None


def _replay(path: Path, data: bytes, kept: _Parse | None = None) -> _Parse:
    """``kept`` if its bytes are ``data``; otherwise ``data``, a whole log, replayed
    up to its last complete record (last write wins, DEL removes)."""
    if kept is not None and kept.data == data:
        return kept
    if data[:len(_HEADER)] != _HEADER:
        raise CorruptFileError(f"{path}: bad magic")
    unpack, crc32, size, pos = _U32.unpack_from, zlib.crc32, len(data), len(_HEADER)
    schema, index = None, {}
    while pos < size:
        op = data[pos]
        if op > OP_DEL:
            raise CorruptFileError(f"{path}: invalid record tag 0x{op:02x}")
        if pos + 5 > size:
            break
        key_end = end = pos + 5 + unpack(data, pos + 1)[0]
        if op != OP_DEL:
            if key_end + 4 > size:
                break
            end = key_end + 4 + unpack(data, key_end)[0]
        end += 4  # past the stored CRC
        if end > size:
            break
        if crc32(data[pos:end]) != _CRC_RESIDUE:
            raise CorruptFileError(f"{path}: checksum mismatch")
        try:
            key = data[pos + 5:key_end].decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptFileError(f"{path}: record key at offset {pos} is not UTF-8") from None
        if schema is None:
            # _log writes one META record, first.
            if op != OP_META:
                raise CorruptFileError(f"{path}: the log does not start with a schema record")
            schema = _schema_from_bytes(path, data[key_end + 4:end - 4])
        elif op == OP_PUT:
            index[key] = data[key_end + 4:end - 4]
        elif op == OP_DEL:
            index.pop(key, None)
        else:
            raise CorruptFileError(f"{path}: a second schema record at offset {pos}")
        pos = end
    if schema is None:  # a header-only log, or a torn META record
        raise CorruptFileError(f"{path}: the log does not start with a schema record")
    # Slicing all of a bytes object copies nothing.
    return _Parse(data[:pos], schema, index)


def _decoded(path: Path, schema: Schema, index: dict[str, bytes]) -> dict[str, TupleRecord]:
    """Every live payload of ``index``, decoded as one JSON object and held to the
    rule ``put_record`` writes by (``model._check_row``)."""
    rows = {}
    for key, payload in index.items():
        try:
            text = payload.decode("utf-8")
            row, end = _DECODER.raw_decode(text)
        except ValueError:
            row = None
        # A failed decode leaves row None, so ``text`` and ``end`` are only read once set.
        if type(row) is not dict or end != len(text):
            raise CorruptFileError(f"{path}: payload of record {key!r} is not a field map")
        try:
            _check_row(key, row, schema)
        except SchemaError as exc:
            raise CorruptFileError(f"{path}: record {key!r}: {exc}") from None
        rows[key] = row
    return rows


def _value_index(rows: dict[str, TupleRecord], field: str) -> dict[str, list[str]]:
    """The keys of ``rows`` by their value of ``field``, in row order; nulls are left out."""
    index: defaultdict[str | None, list[str]] = defaultdict(list)
    for key, row in rows.items():
        index[row.get(field)].append(key)
    index.pop(None, None)
    return index


class TableFile:
    """Handle on one table's log file; the single writer for that table.

    Given a ``schema`` it creates the table, which must not exist
    (``TableExistsError``); without one it opens the table that exists
    (``UnknownTableError`` when there is none).  An exclusive lock is taken
    at open and held until close, so two handles on the same file cannot
    coexist.  ``sync=False`` defers fsync to close, which is faster for bulk
    loads but trades away crash durability for the unsynced suffix (replay
    still never yields a half-written record).

    ``kept`` is an earlier parse of the same table, which the handle takes
    over; see the module docstring.
    """

    def __init__(
        self, path: str | Path, schema: Schema | None = None, *, sync: bool = True, kept: _Parse | None = None
    ):
        self.path = Path(path)
        self.sync = sync
        self._closed = False
        if schema is not None:
            data = _log(schema, ())
            self._fh = _install(self.path, data, replace=False)
            self._parse = _replay(self.path, data)
        else:
            self._fh = _open_locked(self.path, "r+b")
            try:
                data = self._fh.read(os.fstat(self._fh.fileno()).st_size)
                self._parse = _replay(self.path, data, kept)
                if len(self._parse.data) < len(data):
                    # Crash artifact: cut off the incomplete tail, keep the good
                    # prefix.  A truncated write can never yield a complete
                    # record with a bad checksum, so those stay CorruptFileError.
                    self._fh.truncate(len(self._parse.data))
                    self._flush()
            except BaseException:
                # Release the file and its lock now, not when the failed handle is collected.
                self._fh.close()
                raise
        self.schema = self._parse.schema
        self.live_index = self._parse.index

    def _flush(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    def _check_open(self) -> None:
        if self._closed:
            raise UseAfterCloseError(f"{self.path} is closed")

    def _append(self, record: bytes) -> None:
        """Append ``record`` and flush it; the parse read at open no longer matches the file."""
        self._parse = None
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(record)
        self._flush()

    def put_record(self, record: TupleRecord) -> None:
        """Append a PUT and update the index; replaces any prior version of the key."""
        self._check_open()
        key = _checked_key(self.schema, record)
        payload = canonical_record_bytes(record)
        self._append(_encode(OP_PUT, key.encode("utf-8"), payload))
        self.live_index[key] = payload

    def delete_record(self, key: str) -> bool:
        """Append a DEL and return whether ``key`` was live; deleting an absent key
        still logs the DEL (tolerant)."""
        self._check_open()
        self._append(_encode(OP_DEL, key.encode("utf-8"), None))
        return self.live_index.pop(key, None) is not None

    def scan_all(self) -> Relation:
        """Materialize the live rows as an in-memory relation."""
        self._check_open()
        return Relation(self.schema, _decoded(self.path, self.schema, self.live_index))

    def compact(self) -> None:
        """Rewrite the file as META plus one PUT per live key, in key order.

        The new log is renamed over the old one already locked by this
        handle (``_install``), so a failure leaves the table untouched and no
        other handle can take the lock of the new file.
        """
        self._check_open()
        rows = _decoded(self.path, self.schema, self.live_index)
        data = _log(self.schema, (rows[key] for key in sorted(rows)))
        fh = _install(self.path, data, replace=True)
        self._fh.close()
        self._fh = fh
        self._parse = _replay(self.path, data)
        self.live_index = self._parse.index

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


class Database:
    """A directory of table files; tables are discovered by listing it.

    ``read`` keeps the last parse of each table it read, never an open
    file; the module docstring says what that spares and costs.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._parses: dict[str, _Parse] = {}

    def _path(self, name: str) -> Path:
        if not _TABLE_NAME_RE.match(name):
            raise SchemaError(f"invalid table name {name!r} (letters, digits and _ only)")
        return self.root / f"{name}{TABLE_SUFFIX}"

    def list_tables(self) -> list[str]:
        """The tables a statement can name: every ``<name>.sgt`` whose name ``_path`` accepts."""
        return sorted(p.stem for p in self.root.glob(f"*{TABLE_SUFFIX}") if _TABLE_NAME_RE.match(p.stem))

    def create(self, name: str, schema: Schema, *, sync: bool = True) -> TableFile:
        """Create table ``name``; ``TableExistsError`` if the name is taken, even by
        a table another process creates meanwhile (``_install``'s link refuses it)."""
        return TableFile(self._path(name), schema, sync=sync)

    def load(self, name: str, schema: Schema, records: Iterable[TupleRecord]) -> None:
        """Create table ``name`` holding ``records``, all or nothing.

        Every record is checked, as ``put_record`` checks it, before anything
        is written, and a key held by two records is ``DuplicateKeyError``;
        then the whole log is put in place by the one path that
        creates and compacts (``_install``), so a load that fails or is cut
        short leaves no table ``name`` behind.  The link fails if the name
        exists, so a table created meanwhile, by this or another process, is
        never replaced: that is ``TableExistsError``.
        """
        _install(self._path(name), _log(schema, records), replace=False).close()

    def open(self, name: str) -> TableFile:
        return TableFile(self._path(name))

    def drop(self, name: str) -> None:
        """Delete table ``name``; ``TableLockedError`` while any handle has it open."""
        path = self._path(name)
        with _open_locked(path, "rb"):
            self._parses.pop(name, None)
            path.unlink()
        _fsync_dir(path)

    def read(self, name: str, where: Condition | None = None) -> Relation:
        """The live rows of table ``name``, as a bounded relation whose row
        dicts are the kept parse's own, under a row map of its own.

        The caller must not change a row: a later read or scan of the table
        in this ``Database`` may return it.  With ``where``, the result holds
        only the rows ``ops.select`` keeps for that condition, in the same
        order: one lookup for the primary key, and otherwise the matches the
        field's equality index lists, which the first condition on the field
        builds.  A missing table is ``UnknownTableError``.  See the module
        docstring for what is reused.
        """
        with TableFile(self._path(name), kept=self._parses.pop(name, None)) as table:
            parse = table._parse
            if parse.rows is None:
                parse = parse._replace(rows=table.scan_all().rows, by_value={})
        rows = parse.rows
        if where is None:
            taken = dict(rows)
        elif where.field == parse.schema.primary_key:
            # _decoded keeps each row under its own primary-key value.
            taken = {where.value: rows[where.value]} if where.value in rows else {}
        else:
            index = parse.by_value.get(where.field)
            if index is None:
                index = parse.by_value[where.field] = _value_index(rows, where.field)
            taken = {key: rows[key] for key in index.get(where.value, ())}
        self._parses[name] = parse
        # _decoded has checked every row against the schema.
        return Relation(parse.schema, taken, True)

    def scan(self, name: str) -> Relation:
        """``read``, with a copy of each row, so the caller owns the relation."""
        rel = self.read(name)
        return Relation(rel.schema, {key: dict(row) for key, row in rel.rows.items()}, True)
