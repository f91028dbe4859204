"""Seeded data, operation streams and the plain-dict model each workload is checked against.

Everything here is a pure function of the seed and of ``workloads.json``.
The model never asks the engine under test for an answer: expected outputs
are built from the generated rows alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


def load_spec() -> dict:
    """The workload record, workloads.json."""
    return json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def canonical(record: dict) -> str:
    """The canonical JSON text the table files and the json render format use."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def json_lines(rows: dict[str, dict]) -> str:
    """Expected ``json`` render: one canonical record per line in row-key order."""
    return "".join(canonical(rows[key]) + "\n" for key in sorted(rows))


def table_text(columns: list[str], rows: dict[str, dict]) -> str:
    """Expected ``table`` render of rows that all hold every column."""
    grid = [[rows[key][c] for c in columns] for key in sorted(rows)]
    widths = [max([len(c)] + [len(cells[i]) for cells in grid]) for i, c in enumerate(columns)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(cells, widths)).rstrip() for cells in grid]
    lines.append(f"({len(grid)} row{'s' if len(grid) != 1 else ''})")
    return "\n".join(lines) + "\n"


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choices(_LETTERS, k=rng.randint(lo, hi)))


@dataclass(frozen=True)
class Op:
    """One ``exec`` call: statement text plus what the model needs to check it."""

    text: str
    expect: tuple
    logical_bytes: int = 0  # user bytes the op writes: the record, or the deleted key


class Workload:
    """Generated tables as a write history plus the live rows that history leaves.

    ``history[name]`` lists ("put", record) and ("del", key) in log order;
    set-up replays it through the storage API and the timed operations
    extend the model as they are generated.
    """

    name = ""

    def __init__(self, seed: int, spec: dict):
        self.spec = spec
        self.rng = random.Random(f"{self.name}:{seed}")
        self.schemas = {t: (d["pk"], tuple(d["fields"])) for t, d in spec["tables"].items()}
        self.history: dict[str, list[tuple[str, object]]] = {t: [] for t in self.schemas}
        self.live: dict[str, dict[str, dict]] = {t: {} for t in self.schemas}
        self._expected_cache: dict[tuple, str] = {}

    def _put(self, table: str, record: dict) -> None:
        self.history[table].append(("put", record))
        self.live[table][record[self.schemas[table][0]]] = record

    def _delete(self, table: str, key: str) -> None:
        self.history[table].append(("del", key))
        self.live[table].pop(key, None)

    def dead_ratio(self) -> float:
        records = sum(len(h) for h in self.history.values())
        live = sum(len(rows) for rows in self.live.values())
        return (records - live) / records if records else 0.0

    def setup(self, db) -> None:
        """Write the generated history through the public storage API, as a bulk load."""
        from sgdb.model import Schema

        for table, (pk, fields) in self.schemas.items():
            with db.create(table, Schema(pk, fields), sync=False) as handle:
                for kind, item in self.history[table]:
                    if kind == "put":
                        handle.put_record(item)
                    else:
                        handle.delete_record(item)

    def _record(self, key: str) -> dict:
        """A row of the five-field table ``t`` that ingest and scan use."""
        rng = self.rng
        return {
            "id": key,
            "name": _word(rng, 6, 12),
            "c": f"c{rng.randrange(self.spec['c_values'])}",
            "d": _word(rng, 4, 10),
            "e": str(rng.randrange(10**6)),
        }

    def ops(self):
        raise NotImplementedError

    def expected(self, op: Op) -> str:
        if op.expect[0] == "text":
            return op.expect[1]
        if op.expect not in self._expected_cache:
            self._expected_cache[op.expect] = self._expected_query(op.expect)
        return self._expected_cache[op.expect]

    def _expected_query(self, expect: tuple) -> str:
        raise NotImplementedError


class Ingest(Workload):
    """Preloaded table, then inserts of new keys, overwrites and deletes."""

    name = "ingest"

    def __init__(self, seed: int, spec: dict):
        super().__init__(seed, spec)
        self._next_key = 0
        self._live_keys: list[str] = []
        self._slot: dict[str, int] = {}
        for _ in range(spec["tables"]["t"]["rows"]):
            self._put_live(self._record(self._new_key()))

    def _new_key(self) -> str:
        self._next_key += 1
        return f"k{self._next_key:07d}"

    def _put_live(self, record: dict) -> None:
        key = record["id"]
        if key not in self._slot:
            self._slot[key] = len(self._live_keys)
            self._live_keys.append(key)
        self._put("t", record)

    def _delete_live(self, key: str) -> None:
        if key in self._slot:
            i = self._slot.pop(key)
            last = self._live_keys.pop()
            if last != key:
                self._live_keys[i] = last
                self._slot[last] = i
        self._delete("t", key)

    def ops(self):
        rng, mix, templates = self.rng, self.spec["mix"], self.spec["templates"]
        while True:
            r = rng.random()
            if r < mix["insert_new"] + mix["insert_overwrite"]:
                fresh = r < mix["insert_new"] or not self._live_keys
                key = self._new_key() if fresh else rng.choice(self._live_keys)
                record = self._record(key)
                self._put_live(record)
                yield Op(
                    templates["insert"].format(**record),
                    ("text", "inserted 1 row into t\n"),
                    logical_bytes=len(canonical(record)),
                )
            else:
                if rng.random() < self.spec["delete_absent_share"] or not self._live_keys:
                    key = f"x{rng.randrange(10**7):07d}"
                else:
                    key = rng.choice(self._live_keys)
                existed = int(key in self._slot)
                self._delete_live(key)
                yield Op(
                    templates["delete"].format(key=key),
                    ("text", f"deleted {existed} row from t\n"),
                    logical_bytes=len(key),
                )


class Scan(Workload):
    """A 20%-dead table read by point lookups and selective scans in rotation."""

    name = "scan"

    def __init__(self, seed: int, spec: dict):
        super().__init__(seed, spec)
        rng, sizes = self.rng, spec["tables"]["t"]
        keys = [f"k{i:07d}" for i in range(sizes["rows"])]
        for key in keys:
            self._put("t", self._record(key))
        for key in rng.sample(keys, sizes["overwrites"]):
            self._put("t", self._record(key))
        for key in rng.sample(keys, sizes["deletes"]):
            self._delete("t", key)
        self._live_keys = sorted(self.live["t"])

    def ops(self):
        rng, templates = self.rng, self.spec["templates"]
        while True:
            key = rng.choice(self._live_keys)
            yield Op(templates["lookup"].format(key=key), ("lookup", key))
            value = f"c{rng.randrange(self.spec['c_values'])}"
            yield Op(templates["selective_scan"].format(value=value), ("scan", value))

    def _expected_query(self, expect: tuple) -> str:
        rows = self.live["t"]
        if expect[0] == "lookup":
            key = expect[1]
            return json_lines({key: {"id": key, "name": rows[key]["name"]}})
        return json_lines({k: {"id": k, "c": r["c"]} for k, r in rows.items() if r["c"] == expect[1]})


class Report(Workload):
    """Orders joined to customers and parts, plus a filtered customers x parts product."""

    name = "report"

    def __init__(self, seed: int, spec: dict):
        super().__init__(seed, spec)
        rng, tables = self.rng, spec["tables"]
        ranks = spec["ranks"]
        customers = [f"c{i:04d}" for i in range(tables["customers"]["rows"])]
        parts = [f"p{i:03d}" for i in range(tables["parts"]["rows"])]
        for key in customers:
            self._put("customers", {
                "id": key,
                "name": _word(rng, 5, 12),
                "region": rng.choice(("north", "south", "east", "west")),
                "tier": str(rng.randrange(1, 4)),
            })
        rank_of = [str(1 + i % ranks) for i in range(len(parts))]
        rng.shuffle(rank_of)
        for key, rank in zip(parts, rank_of):
            self._put("parts", {
                "id": key, "pname": _word(rng, 4, 14), "rank": rank, "price": str(rng.randrange(1, 1000)),
            })
        missing = spec["missing_fk_share"]
        for i in range(tables["orders"]["rows"]):
            cust = f"c9{rng.randrange(1000):03d}" if rng.random() < missing else rng.choice(customers)
            part = f"p9{rng.randrange(100):02d}" if rng.random() < missing else rng.choice(parts)
            self._put("orders", {
                "id": f"o{i:05d}",
                "cust": cust,
                "part": part,
                "qty": str(rng.randrange(1, 50)),
                "status": rng.choice(("open", "paid", "shipped")),
            })

    def ops(self):
        rng, template, ranks = self.rng, self.spec["templates"]["script"], self.spec["ranks"]
        while True:
            rank = str(rng.randrange(1, ranks + 1))
            yield Op(template.format(rank=rank), ("report", rank))

    def _expected_query(self, expect: tuple) -> str:
        orders, customers, parts = (self.live[t] for t in ("orders", "customers", "parts"))
        joined = {
            k: {"id": k, "qty": o["qty"], "cust.name": customers[o["cust"]]["name"],
                "part.pname": parts[o["part"]]["pname"]}
            for k, o in orders.items()
            if o["cust"] in customers and o["part"] in parts
        }
        crossed = {
            f"{ck}_{pk}": {"id": ck, "name": c["name"], "p.id": pk, "p.pname": p["pname"]}
            for ck, c in customers.items()
            for pk, p in parts.items()
            if p["rank"] == expect[1]
        }
        return (
            table_text(["id", "qty", "cust.name", "part.pname"], joined)
            + table_text(["id", "name", "p.id", "p.pname"], crossed)
        )


WORKLOADS = {cls.name: cls for cls in (Ingest, Scan, Report)}


def make(name: str, seed: int, spec: dict | None = None) -> Workload:
    """Build workload ``name`` for ``seed``; ``spec`` overrides its entry in workloads.json."""
    return WORKLOADS[name](seed, spec or load_spec()["workloads"][name])
