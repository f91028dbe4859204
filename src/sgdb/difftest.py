"""Randomized differential testing of the engine against the naive oracle.

``generate_database`` builds a reproducible pair of relations whose joining
field hits the right-hand row keys about half the time, so matched,
unmatched-left and unmatched-right paths all get exercised.  For each seed,
``differential_check`` runs every operator through both implementations and
reports any case where the two disagree — on the result rows or on the class
of error raised.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from sgdb import ops, oracle
from sgdb.errors import SgdbError
from sgdb.model import Relation, create_relation, insert_tuple, relation_equal
from sgdb.ops import Condition, STAR

ALL_OPS = (
    "select",
    "project",
    "rename",
    "inner_join",
    "left_join",
    "right_join",
    "outer_join",
    "cartesian",
    "natural_join",
    "flatten",
)

# Row keys never contain "_" so cartesian pair keys cannot collide, and the
# value pool never contains "=" so the oracle's condition-string form parses
# back to the same condition the engine sees.
_VALUE_POOL = ("", "red", "blue", "green", "gold", "x1", "y2")
_RIGHT_KEY_POOL = ("p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
_MISS_POOL = ("zz1", "zz2", "zz3", "")
_LEFT_EXTRAS = ("shade", "size", "grade")
_RIGHT_EXTRAS = ("label", "note", "rank")
JOIN_FIELD = "link"


@dataclass(frozen=True)
class GenLimits:
    """Bounds for the generator; generation is a pure function of ``seed``."""

    max_tables: int = 2
    max_rows: int = 8
    max_fields: int = 5
    seed: int = 0


@dataclass(frozen=True)
class DivergenceReport:
    seed: int
    operator: str
    inputs: str
    engine: str
    oracle: str
    first_difference: str

    def __str__(self) -> str:
        return (
            f"seed {self.seed}, operator {self.operator}: {self.first_difference}\n"
            f"  inputs: {self.inputs}\n"
            f"  engine: {self.engine}\n"
            f"  oracle: {self.oracle}"
        )


def generate_database(limits: GenLimits) -> tuple[Relation, Relation, str]:
    """Two relations plus the left field whose values reference right row keys.

    The right relation is keyed by its ``link`` primary key; the left
    relation's ``link`` values are drawn from the live right keys with
    probability 1/2 and from never-matching values otherwise.
    """
    rng = random.Random(limits.seed)
    left_extra_n = rng.randint(0, max(0, min(len(_LEFT_EXTRAS), limits.max_fields - 2)))
    right_extra_n = rng.randint(1, max(1, min(len(_RIGHT_EXTRAS), limits.max_fields - 1)))
    left_fields = ["lid", *(_LEFT_EXTRAS[:left_extra_n]), JOIN_FIELD]
    right_fields = [JOIN_FIELD, *(_RIGHT_EXTRAS[:right_extra_n])]

    n_right = rng.randint(0, limits.max_rows)
    right = create_relation(JOIN_FIELD, right_fields)
    right_keys = rng.sample(_RIGHT_KEY_POOL, min(n_right, len(_RIGHT_KEY_POOL)))
    for key in right_keys:
        record = {JOIN_FIELD: key}
        for f in right_fields[1:]:
            record[f] = rng.choice(_VALUE_POOL)
        right = insert_tuple(right, record)

    n_left = rng.randint(0, limits.max_rows)
    left = create_relation("lid", left_fields)
    for i in range(n_left):
        record = {"lid": f"a{i}"}
        for f in _LEFT_EXTRAS[:left_extra_n]:
            record[f] = rng.choice(_VALUE_POOL)
        if right_keys and rng.random() < 0.5:
            record[JOIN_FIELD] = rng.choice(right_keys)
        else:
            record[JOIN_FIELD] = rng.choice(_MISS_POOL)
        left = insert_tuple(left, record)

    return left, right, JOIN_FIELD


def _pick_params(op: str, seed: int, left: Relation, right: Relation, join_field: str) -> dict:
    rng = random.Random(f"{seed}/{op}")
    params: dict = {}
    fields = list(left.schema.fields)
    if op == "select":
        f = rng.choice(fields)
        if left.rows and rng.random() < 0.5:
            row = left.rows[rng.choice(sorted(left.rows))]
            value = row.get(f, "")
        else:
            value = rng.choice(_VALUE_POOL + ("nova",))
        params["condition"] = Condition(f, value)
    elif op == "project":
        if rng.random() < 0.25:
            params["columns"] = STAR
        else:
            cols = rng.sample(fields, rng.randint(1, len(fields)))
            if rng.random() < 0.3:
                cols.append("ghost")
            params["columns"] = tuple(cols)
    elif op == "rename":
        params["old"] = rng.choice(fields + ["ghost"])
        params["new"] = "relabeled"
    elif op in ("inner_join", "left_join", "right_join", "outer_join", "cartesian"):
        params["key"] = join_field if rng.random() < 0.75 else rng.choice(fields)
    elif op == "flatten":
        base: dict = {"f1": rng.choice(_VALUE_POOL), "f2": rng.choice(_VALUE_POOL)}
        if left.rows:
            base = dict(left.rows[sorted(left.rows)[0]])
        if right.rows and rng.random() < 0.7:
            base[join_field] = dict(right.rows[sorted(right.rows)[0]])
        if rng.random() < 0.4:
            base["sub"] = {}
        params["record"] = base
    return params


def _run_engine(op: str, left: Relation, right: Relation, params: dict):
    if op == "select":
        return ops.select(left, params["condition"])
    if op == "project":
        return ops.project(left, params["columns"])
    if op == "rename":
        return ops.rename(left, params["old"], params["new"])
    if op in ("inner_join", "left_join", "right_join", "outer_join", "cartesian"):
        return getattr(ops, op)(left, right, params["key"])
    if op == "natural_join":
        return ops.natural_join(left, right)
    if op == "flatten":
        return ops.flatten_record(params["record"])
    raise ValueError(f"unknown operator {op!r}")


def _run_oracle(op: str, left: Relation, right: Relation, params: dict):
    if op == "flatten":
        return oracle.flatten(copy.deepcopy(params["record"]))
    return oracle.oracle_eval(op, left, right, **params)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SgdbError as exc:
        return ("error", type(exc).__name__)


def _rows_of(result) -> dict:
    return result.rows if isinstance(result, Relation) else result


def _first_difference(engine_rows: dict, oracle_rows: dict) -> str:
    for key in sorted(set(engine_rows) | set(oracle_rows)):
        if key not in engine_rows:
            return f"row {key!r} only in oracle output"
        if key not in oracle_rows:
            return f"row {key!r} only in engine output"
        erow, orow = engine_rows[key], oracle_rows[key]
        if erow != orow:
            for f in sorted(set(erow) | set(orow)):
                if erow.get(f, "<absent>") != orow.get(f, "<absent>"):
                    return (
                        f"row {key!r} field {f!r}: engine {erow.get(f, '<absent>')!r}"
                        f" vs oracle {orow.get(f, '<absent>')!r}"
                    )
    return "outputs differ"


def differential_check(seeds, operators=ALL_OPS) -> list[DivergenceReport]:
    """Compare engine and oracle on every (seed, operator) pair.

    An empty list means full agreement; disagreements are returned as data
    rather than raised.
    """
    reports: list[DivergenceReport] = []
    for seed in seeds:
        left, right, join_field = generate_database(GenLimits(seed=seed))
        for op in operators:
            params = _pick_params(op, seed, left, right, join_field)
            engine = _outcome(_run_engine, op, left, right, params)
            orcl = _outcome(_run_oracle, op, left, right, params)
            if engine[0] == "ok" and orcl[0] == "ok":
                erows, orows = _rows_of(engine[1]), _rows_of(orcl[1])
                if isinstance(engine[1], Relation) and isinstance(orcl[1], Relation):
                    agree = relation_equal(engine[1], orcl[1])
                else:
                    agree = erows == orows
                if agree:
                    continue
                difference = _first_difference(erows, orows)
            elif engine[0] == "error" and orcl[0] == "error":
                if engine[1] == orcl[1]:
                    continue
                difference = f"error classes differ: {engine[1]} vs {orcl[1]}"
            else:
                difference = f"one side errored: engine={engine[1]!r} oracle={orcl[1]!r}"
            reports.append(
                DivergenceReport(
                    seed=seed,
                    operator=op,
                    inputs=f"left={left.rows!r} right={right.rows!r} params={params!r}",
                    engine=repr(engine[1].rows if isinstance(engine[1], Relation) else engine[1]),
                    oracle=repr(orcl[1].rows if isinstance(orcl[1], Relation) else orcl[1]),
                    first_difference=difference,
                )
            )
    return reports
