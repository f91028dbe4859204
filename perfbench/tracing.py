"""Spans and counters around the public functions of each sgdb layer.

The wrappers are installed from here, on the module and class attributes
the engine looks up at call time, and removed afterwards; no engine module
is edited.  A span is (name, start, end, parent span, operation id).  Spans
stay in memory until the run ends; self time is a span's duration minus the
durations of its children, which nest strictly because the benchmark runs
one client in one thread.

Log records replayed at open are counted from the engine's own files: the
storage module's ``open`` is shadowed by one whose raw files report the byte
range of every read, and after the pass the ranges read inside each
``TableFile`` construction are matched against the record boundaries of the
``.sgt`` logs (format v1, see ``sgdb.storage``).  The logs only grow during a
pass, so the final file holds every record an earlier open read.
"""

from __future__ import annotations

import bisect
import builtins
import functools
import io
import json
import os
import struct
import time
from collections import Counter
from pathlib import Path

from sgdb import dsl, evaluator, model, ops, render, storage

OPERATORS = (
    "select", "project", "rename", "inner_join", "left_join", "right_join",
    "outer_join", "natural_join", "cartesian",
)

# Span name -> per-layer metric its self time is charged to.
SELF_TIME_METRIC = {
    "op": "trace.uncovered_ms",
    "dsl.parse_script": "dsl.parse_ms",
    "evaluator.evaluate": "evaluator.self_ms",
    "storage.Database.open": "storage.open_ms",
    "storage.Database.create": "storage.open_ms",
    "storage.TableFile.__init__": "storage.open_ms",
    "storage.Database.scan": "storage.scan_ms",
    "storage.TableFile.scan_all": "storage.scan_ms",
    "storage.TableFile.put_record": "storage.put_ms",
    "storage.TableFile.delete_record": "storage.delete_ms",
    "storage.TableFile.close": "storage.close_ms",
    "os.fsync": "storage.fsync_ms",
    "ops.select": "ops.select_ms",
    "ops.project": "ops.project_ms",
    "ops.rename": "ops.rename_ms",
    "ops.inner_join": "ops.join_ms",
    "ops.left_join": "ops.join_ms",
    "ops.right_join": "ops.join_ms",
    "ops.outer_join": "ops.join_ms",
    "ops.natural_join": "ops.join_ms",
    "ops.cartesian": "ops.cartesian_ms",
    "model.Relation.__init__": "model.relation_ms",
    "render.render": "render.ms",
}


_U32 = struct.Struct("<I")
_HEADER = 5  # magic "SGDB" + version byte


def read_log(path: Path) -> list[tuple[int, str, int, int]]:
    """(op, key, start offset, end offset) of every record in a v1 ``.sgt`` log."""
    data = Path(path).read_bytes()
    if data[:4] != b"SGDB" or data[4:5] != b"\x01":
        raise ValueError(f"{path}: not a version 1 sgdb log")
    records, pos = [], _HEADER
    while pos < len(data):
        start, op = pos, data[pos]
        (keylen,) = _U32.unpack_from(data, pos + 1)
        key = data[pos + 5:pos + 5 + keylen].decode("utf-8")
        pos += 5 + keylen
        if op != 0x02:  # META and PUT carry a value
            (vallen,) = _U32.unpack_from(data, pos)
            pos += 4 + vallen
        pos += 4  # crc32
        records.append((op, key, start, pos))
    return records


def dead_ratio(root: Path) -> float:
    """Dead PUT and DEL records over all PUT and DEL records in the database's logs."""
    records = live = 0
    for path in Path(root).glob("*.sgt"):
        keys: set[str] = set()
        for op, key, _, _ in read_log(path):
            if op == 0x01:
                keys.add(key)
                records += 1
            elif op == 0x02:
                keys.discard(key)
                records += 1
        live += len(keys)
    return (records - live) / records if records else 0.0


def _merged(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for start, end in sorted(ranges):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(a, b) for a, b in out]


class Tracer:
    """Spans and counts of one traced pass: ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self.open_reads: list[tuple[str, list[tuple[int, int]]]] = []  # per open: (file, ranges read)
        self._reads: list[tuple[str, int, int]] | None = None  # reads of the open in progress
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _counting_open(self):
        """A stand-in for ``open`` whose binary files report each raw read to the tracer."""
        tracer = self

        class CountingFile(io.FileIO):
            def readinto(self, buffer):
                start = self.tell()
                n = super().readinto(buffer)
                if n and tracer._reads is not None:
                    tracer._reads.append((self.name, start, start + n))
                return n

        def counting_open(file, mode="r", *args, **kwargs):
            # Binary files with default buffering, the only kind storage opens, are counted.
            if "b" not in mode or args or kwargs:
                return builtins.open(file, mode, *args, **kwargs)
            raw = CountingFile(os.fspath(file), mode.replace("b", ""))
            size = raw._blksize if raw._blksize > 1 else io.DEFAULT_BUFFER_SIZE  # as builtins.open sizes it
            if "+" in mode:
                return io.BufferedRandom(raw, size)
            return io.BufferedReader(raw, size) if "r" in mode else io.BufferedWriter(raw, size)

        return counting_open

    def records_replayed(self) -> int:
        """Log records that lie wholly inside the byte ranges some open read, summed over opens."""
        bounds: dict[str, tuple[list[int], list[int]]] = {}
        total = 0
        for name, ranges in self.open_reads:
            if not name.endswith(storage.TABLE_SUFFIX):
                continue
            if name not in bounds:
                records = read_log(Path(name))
                bounds[name] = ([r[2] for r in records], [r[3] for r in records])
            starts, ends = bounds[name]
            for a, b in _merged(ranges):
                total += max(0, bisect.bisect_right(ends, b) - bisect.bisect_left(starts, a))
        return total

    def install(self) -> None:
        c = self.counts

        def opening(args, kwargs):
            c["storage.opens"] += 1
            self._reads = []

        def opened(args, result):
            reads, self._reads = self._reads, None
            c["storage.open_bytes"] += sum(end - start for _, start, end in reads)
            for name in sorted({name for name, _, _ in reads}):
                self.open_reads.append((name, [(a, b) for n, a, b in reads if n == name]))

        def unary_in(args, kwargs):
            c["ops.rows_in"] += len(args[0])

        def binary_in(args, kwargs):
            c["ops.rows_in"] += len(args[0]) + len(args[1])

        def cartesian_in(args, kwargs):
            binary_in(args, kwargs)
            c["ops.cartesian_pairs"] += len(args[0]) * len(args[1])

        def rows_out(args, result):
            c["ops.rows_out"] += len(result)

        def copied(args, kwargs):
            rows = args[2] if len(args) > 2 else kwargs.get("rows")
            c["model.rows_copied"] += len(rows or ())

        def counter(key):
            return lambda args, kwargs: c.update((key,))

        self._wrap(dsl, "parse_script", "dsl.parse_script",
                   after=lambda args, result: c.update({"dsl.statements": len(result)}))
        self._wrap(evaluator, "evaluate", "evaluator.evaluate")
        for attr in ("scan", "open", "create"):
            self._wrap(storage.Database, attr, f"storage.Database.{attr}")
        self._wrap(storage.TableFile, "__init__", "storage.TableFile.__init__", before=opening, after=opened)
        self._wrap(storage.TableFile, "scan_all", "storage.TableFile.scan_all",
                   after=lambda args, result: c.update({"storage.rows_decoded": len(result)}))
        self._wrap(storage.TableFile, "put_record", "storage.TableFile.put_record",
                   before=counter("storage.puts"))
        self._wrap(storage.TableFile, "delete_record", "storage.TableFile.delete_record",
                   before=counter("storage.deletes"))
        self._wrap(storage.TableFile, "close", "storage.TableFile.close")
        self._wrap(os, "fsync", "os.fsync", before=counter("storage.fsyncs"))
        for name in OPERATORS:
            original = getattr(ops, name)
            entry = {"select": unary_in, "project": unary_in, "rename": unary_in,
                     "cartesian": cartesian_in}.get(name, binary_in)
            self._wrap(ops, name, f"ops.{name}", before=entry, after=rows_out)
            # The evaluator dispatches joins through a dict of the original functions.
            for kind, fn in list(evaluator._JOINS.items()):
                if fn is original:
                    evaluator._JOINS[kind] = getattr(ops, name)
                    self._undo.append((evaluator._JOINS, kind, original))
        self._wrap(model.Relation, "__init__", "model.Relation.__init__", before=copied)
        self._wrap(render, "render", "render.render",
                   after=lambda args, result: c.update(
                       {"render.rows": len(args[0]), "render.bytes": len(result.encode("utf-8"))}))
        # storage reads its logs through the builtin open; the shadow is deleted again on uninstall.
        storage.open = self._counting_open()
        self._undo.append((storage, "open", None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per metric of SELF_TIME_METRIC, in milliseconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[SELF_TIME_METRIC[name]] += (end - start - inner) * 1000.0
        return totals

    def op_time_ms(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == "op") * 1000.0

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start_us": round((start - t0) * 1e6, 3), "end_us": round((end - t0) * 1e6, 3),
                }) + "\n")
