"""Randomized differential testing of the engine against the naive oracle.

``generate_database`` builds a reproducible pair of relations whose joining
field ``link`` hits the right-hand row keys about half the time, so matched,
unmatched-left and unmatched-right paths all get exercised.  For each seed
the two relations are loaded into tables ``left`` and ``right`` of a
temporary database, and every operator is checked as a query over those
tables: the one-step query ``left | <step>`` for each of the nine
relational operators (a ``select`` also runs a second time, on
the same field, so the equality index that storage builds is read), and a
random query for ``pipeline`` (``_pick_pipeline``), which the evaluator may
rewrite (see ``sgdb.evaluator``).  Each query is printed, parsed back and
evaluated against the database, so the printer, the parser, the evaluator's
scans and rewrites and the storage round trip are all on the path.  Its
result must equal, exactly, a plain left fold of the same steps through
``evaluator._apply`` over the tables scanned once: rows, row order, field
order and schema, or error class and message.  Its rows, or its error
class, must also match the oracle's fold of the same steps over the
generated relations themselves, so a storage round trip that loses or
alters a row shows as a divergence.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from sgdb import dsl, evaluator, oracle
from sgdb.errors import SgdbError
from sgdb.model import Relation, Schema, relation_from_mapping
from sgdb.ops import Condition, STAR
from sgdb.storage import Database

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
    "pipeline",
)

# " red" differs from "red" only by its leading space, which a select must
# not trim away.  Some row keys contain "_", so cartesian pair keys can collide.
_VALUE_POOL = ("", "red", " red", "blue", "green", "gold", "x1", "y2")
_RIGHT_KEY_POOL = ("p1", "p2", "p3", "p4", "p5", "p6", "p7", "p1_p2")
_MISS_POOL = ("zz1", "zz2", "zz3", "")
_LEFT_EXTRAS = ("shade", "size", "grade")
_RIGHT_EXTRAS = ("label", "note", "rank")
JOIN_FIELD = "link"
_NEST_NAMES = ("n", JOIN_FIELD)
_MAX_ROWS = 8


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


def generate_database(seed: int) -> tuple[Relation, Relation]:
    """Two relations, whose left ``link`` values reference right row keys.

    Generation is a pure function of ``seed``.  Each relation has up to
    ``_MAX_ROWS`` rows.  The right relation is keyed by its ``link`` primary
    key; the left relation's ``link`` values are drawn from the live right
    keys with probability 1/2 and from never-matching values otherwise.
    """
    rng = random.Random(seed)
    left_extra_n = rng.randint(0, len(_LEFT_EXTRAS))
    right_extra_n = rng.randint(1, len(_RIGHT_EXTRAS))
    left_fields = ["lid", *(_LEFT_EXTRAS[:left_extra_n]), JOIN_FIELD]
    right_fields = [JOIN_FIELD, *(_RIGHT_EXTRAS[:right_extra_n])]

    n_right = rng.randint(0, _MAX_ROWS)
    right_keys = rng.sample(_RIGHT_KEY_POOL, min(n_right, len(_RIGHT_KEY_POOL)))
    right_rows = {}
    for key in right_keys:
        record = {JOIN_FIELD: key}
        for f in right_fields[1:]:
            record[f] = rng.choice(_VALUE_POOL)
        right_rows[key] = record

    n_left = rng.randint(0, _MAX_ROWS)
    left_rows = {}
    for i in range(n_left):
        # About one key in four extends an earlier key by "_p1", so that with
        # the right keys "p2" and "p1_p2" two pairs get the same pair key.
        key = f"a{rng.randrange(i)}_p1" if i and rng.random() < 0.25 else f"a{i}"
        record = {"lid": key}
        for f in _LEFT_EXTRAS[:left_extra_n]:
            record[f] = rng.choice(_VALUE_POOL)
        if right_keys and rng.random() < 0.5:
            record[JOIN_FIELD] = rng.choice(right_keys)
        else:
            record[JOIN_FIELD] = rng.choice(_MISS_POOL)
        left_rows[key] = record

    left = relation_from_mapping(left_rows, "lid", left_fields)
    return left, relation_from_mapping(right_rows, JOIN_FIELD, right_fields)


def _pick_step(op: str, seed: int, left: Relation) -> dsl.Step:
    """The step of ``op``'s one-step query over table ``left``, drawn from ``seed``."""
    rng = random.Random(f"{seed}/{op}")
    fields = list(left.schema.fields)
    if op == "select":
        f = rng.choice(fields)
        if left.rows and rng.random() < 0.5:
            row = left.rows[rng.choice(sorted(left.rows))]
            value = row.get(f, "")
        else:
            value = rng.choice(_VALUE_POOL + ("nova",))
        return dsl.SelectStep(Condition(f, value))
    if op == "project":
        if rng.random() < 0.25:
            return dsl.ProjectStep(STAR)
        cols = rng.sample(fields, rng.randint(1, len(fields)))
        if rng.random() < 0.3:
            cols.append("ghost")
        return dsl.ProjectStep(tuple(cols))
    if op == "rename":
        return dsl.RenameStep(rng.choice(fields + ["ghost"]), "relabeled")
    if op == "natural_join":
        return dsl.JoinStep("natural", "right")
    key = JOIN_FIELD if rng.random() < 0.75 else rng.choice(fields)
    return dsl.JoinStep("cross" if op == "cartesian" else op.removesuffix("_join"), "right", key)


def _another_condition(seed: int, left: Relation, cond: Condition) -> Condition:
    """A condition on ``cond``'s field whose value some row of ``left`` holds there
    and ``cond`` does not name; a pool value when no row holds one."""
    rng = random.Random(f"{seed}/select again")
    values = {row[cond.field] for row in left.rows.values() if row.get(cond.field) is not None}
    return Condition(cond.field, rng.choice(sorted(values - {cond.value}) or _VALUE_POOL))


def _stored(root: Path, left: Relation, right: Relation) -> Database:
    """A new database at ``root`` holding ``left`` and ``right`` as tables of those names."""
    db = Database(root)
    db.load("left", left.schema, left.rows.values())
    db.load("right", right.schema, right.rows.values())
    return db


def _evaluated(db: Database, query: dsl.Query) -> Relation:
    """``query`` printed, parsed back and evaluated against ``db``."""
    return evaluator.evaluate(dsl.parse(dsl.render_statement(query)), db)


def _pick_pipeline(seed: int, left: Relation, right: Relation) -> dsl.Query:
    """A query of one to four drawn steps over the tables ``left`` and
    ``right``, with the steps that follow its joins.

    Steps are selects, projects, renames, the four joins on ``link`` and
    ``cross right as n`` (``n`` or ``link``).  A cross or join is often
    followed by a select on a field of the table it adds.  Half the inner
    joins are followed (after that select, if any) by one or two more inner
    joins, each on the join before's dotted right key (``link.link``) or on
    any field, and then a column project: a run the evaluator hands to
    ``ops.inner_join_run``.  Any other inner join or cross is followed half
    the time by a column project, and a single inner join and its project
    are a run of one.  A project may name the joining field, a
    column twice or a field no row holds: the steps the evaluator may take
    into the join.  The cases the rewrites must leave alone are drawn too.
    A rename gives a left field a dotted name ``<n>.<f>`` (``n`` or
    ``link``, ``f`` a right field), which no table can hold as ``.`` is
    reserved in field names, and a second cross or join under one name
    meets dotted ``n.*`` left fields; either way flattening may meet a field
    twice.  A cross after a cross meets pair keys holding ``_``.
    """
    rng = random.Random(f"{seed}/pipeline")
    fields = list(left.schema.fields)
    values = _VALUE_POOL + tuple(right.rows) + tuple(left.rows)[:2]
    steps: list[dsl.Step] = []
    n_steps = rng.randint(1, 4)
    while len(steps) < n_steps:
        kind = rng.choices(("select", "project", "rename", "join", "cross"), weights=(1, 1, 1, 2, 2))[0]
        if kind == "rename":
            old, new = rng.choice(fields), f"{rng.choice(_NEST_NAMES)}.{rng.choice(right.schema.fields)}"
            steps.append(dsl.RenameStep(old, new))
            fields = list(dict.fromkeys(new if f == old else f for f in fields))
        elif kind == "select":
            steps.append(dsl.SelectStep(Condition(rng.choice(fields + ["ghost"]), rng.choice(values))))
        elif kind == "project":
            if rng.random() < 0.2:
                steps.append(dsl.ProjectStep(STAR))
            else:
                fields = rng.sample(fields, rng.randint(1, len(fields)))
                steps.append(dsl.ProjectStep(tuple(fields)))
        else:
            if kind == "join":
                join, name = rng.choice(("inner", "left", "right", "outer")), JOIN_FIELD
            else:
                # Mostly "link", which a join before it has already dotted.
                join, name = "cross", rng.choices(_NEST_NAMES, weights=(1, 2))[0]
            steps.append(dsl.JoinStep(join, "right", name))
            added = [f"{name}.{f}" for f in right.schema.fields]
            fields = _joined_fields(fields, name, added)
            run = join == "inner" and rng.random() < 0.5
            if rng.random() < (0.3 if run else 0.6):
                field = rng.choice(added + [f"{name}.ghost"])
                steps.append(dsl.SelectStep(Condition(field, rng.choice(values))))
            if run:
                # One or two more inner joins.  Half the time the key is the
                # join before's dotted right key (link.link), so the step
                # nests cleanly and matches.
                for _ in range(rng.randint(1, 2)):
                    name = f"{name}.{JOIN_FIELD}" if rng.random() < 0.5 else rng.choice(fields)
                    steps.append(dsl.JoinStep("inner", "right", name))
                    fields = _joined_fields(fields, name, [f"{name}.{f}" for f in right.schema.fields])
            if join in ("inner", "cross") and (run or rng.random() < 0.5):
                # Also the joining field itself, a column named twice and fields no row holds.
                columns = rng.sample(fields, rng.randint(1, len(fields)))
                columns += rng.sample([columns[0], name, f"{name}.ghost", "ghost"], rng.randint(0, 2))
                steps.append(dsl.ProjectStep(tuple(columns)))
                fields = list(dict.fromkeys(columns))
    return dsl.Query("left", tuple(steps))


def _exact(fn, *args) -> tuple:
    """The outcome of ``fn(*args)`` with everything a caller can observe of it:
    schema, rows in order with their fields in order, or error class and message."""
    try:
        rel = fn(*args)
    except SgdbError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", rel.schema, [(key, list(row.items())) for key, row in rel.rows.items()])


def _right_table(tables: dict[str, Relation], step: dsl.Step) -> Relation | None:
    """The relation in ``tables`` that a join ``step`` reads; None for any other step."""
    return tables[step.table] if isinstance(step, dsl.JoinStep) else None


def _fold_plainly(tables: dict[str, Relation], query: dsl.Query, schemas: list[Schema]) -> Relation:
    """``query`` as a left fold of ``evaluator._apply`` over ``tables`` (name ->
    relation), with no rewrite.

    Appends the schema of each step's input to ``schemas``, up to and
    including the step that raises, if one does.
    """
    rel = tables[query.source]
    for step in query.steps:
        schemas.append(rel.schema)
        rel = evaluator._apply(step, rel, _right_table(tables, step))
    return rel


def _oracle_fold(tables: dict[str, Relation], query: dsl.Query, schemas: list[Schema]) -> tuple:
    """The oracle's fold of ``query`` over ``tables``: ``("ok", rows)``, or
    ``("error", class name)`` for the engine error a step raises.

    The oracle builds no schemas, so each step's input carries the engine's.
    It runs only the steps the engine's fold reached.
    """
    rel = tables[query.source]
    try:
        for step, schema in zip(query.steps, schemas):
            left = Relation(schema, rel.rows)
            rel = oracle.oracle_eval(step, left, _right_table(tables, step))
    except SgdbError as exc:
        return ("error", type(exc).__name__)
    return ("ok", rel.rows)


def _query_reports(seed: int, op: str, db: Database, scanned: dict, generated: dict, query: dsl.Query):
    """Divergences of ``query`` evaluated against ``db``: from the plain fold over
    the ``scanned`` tables, exactly, and from the oracle's over the ``generated`` ones."""
    left, right = generated["left"].rows, generated["right"].rows
    inputs = f"left={left!r} right={right!r} query={dsl.render_statement(query)!r}"
    operator = f"{op} through storage"
    evaluated = _exact(_evaluated, db, query)
    schemas: list[Schema] = []
    folded = _exact(_fold_plainly, scanned, query, schemas)
    reports = []
    if evaluated != folded:
        difference = "the evaluated query differs from the plain fold"
        reports.append(DivergenceReport(seed, operator, inputs, repr(evaluated), repr(folded), difference))
    engine = evaluated[:2] if evaluated[0] == "error" else ("ok", {k: dict(items) for k, items in evaluated[2]})
    orcl = _oracle_fold(generated, query, schemas)
    difference = _difference(engine, orcl)
    if difference is not None:
        reports.append(DivergenceReport(seed, operator, inputs, repr(engine[1]), repr(orcl[1]), difference))
    return reports


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
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            left, right = generate_database(seed)
            generated = {"left": left, "right": right}
            db = _stored(Path(tmp) / str(seed), left, right)
            scanned = {name: db.scan(name) for name in generated}
            for op in operators:
                if op == "pipeline":
                    queries = [_pick_pipeline(seed, left, right)]
                else:
                    step = _pick_step(op, seed, left)
                    queries = [dsl.Query("left", (step,))]
                    if op == "select":
                        # On a non-key field the first select builds the equality index and the second reads it.
                        again = dsl.SelectStep(_another_condition(seed, left, step.condition))
                        queries.append(dsl.Query("left", (again,)))
                for query in queries:
                    reports.extend(_query_reports(seed, op, db, scanned, generated, query))
    return reports


def _difference(engine: tuple, orcl: tuple) -> str | None:
    """How two outcomes, each ``("ok", rows)`` or ``("error", class name)``, disagree;
    None when they agree."""
    if engine[0] == "ok" and orcl[0] == "ok":
        return None if engine[1] == orcl[1] else _first_difference(engine[1], orcl[1])
    if engine[0] == "error" and orcl[0] == "error":
        return None if engine[1] == orcl[1] else f"error classes differ: {engine[1]} vs {orcl[1]}"
    return f"one side errored: engine={engine[1]!r} oracle={orcl[1]!r}"


def _joined_fields(fields: list[str], name: str, added: list[str]) -> list[str]:
    """The field names after a join at ``name`` that adds the fields ``added``."""
    return list(dict.fromkeys([f for f in fields if f != name] + added))
