"""Run a curated list of mutants of the engine and print its mutation score.

A mutant replaces one exact piece of source text, which must occur once in
its file, and names the test files that should fail on it.  For each mutant
the tool copies ``src/``, ``tests/`` and ``pyproject.toml`` (pytest's
settings) into a temporary directory, applies the replacement there and
runs ``python -m pytest -x -q <test files>``, one process at a time.  A run
that fails kills the mutant; one that passes lets it survive.  First the
same copy, unmutated, must pass every listed test file, or no mutant
could be said to be killed.

A mutant marked equivalent carries the reason no test can tell it from the
original.  It is run too, to confirm it survives, and is left out of the
score, ``killed / (mutants - equivalent)``.

Usage: python tools/mutants.py

Run from anywhere; it reads the checkout this file lives in.  Prints one
line per mutant, then the counts and the score.  Exits 1 when the
unmutated tests fail or a mutant's text does not occur exactly once, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# What each run copies from the checkout.
_COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # occurs exactly once in ``path``
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the checkout
    equivalent: str = ""  # why no test can kill it, for an equivalent mutant


_OPS = "src/sgdb/ops.py"
_OPS_TESTS = ("tests/test_ops.py",)
_RENDER = "src/sgdb/render.py"
_RENDER_TESTS = ("tests/test_cli.py",)

OPS_MUTANTS = (
    Mutant(
        "_stitch raises on every row (< becomes <=)", _OPS,
        "    if len(row) < len(before) + len(part) + len(after):",
        "    if len(row) <= len(before) + len(part) + len(after):",
        _OPS_TESTS,
    ),
    Mutant(
        "_split never switches to the fields after the key", _OPS,
        "            side = after\n",
        "            side = before\n",
        _OPS_TESTS,
    ),
    Mutant(
        "_join drops a left join's match of an empty right tuple", _OPS,
        "if rrow is not None and (rrow or keep_left):",
        "if rrow:",
        _OPS_TESTS,
    ),
    Mutant(
        "the one pass keeps a row that a step does not match (break becomes continue)", _OPS,
        "                    break\n",
        "                    continue\n",
        _OPS_TESTS,
    ),
    Mutant(
        "_source takes the first key a name falls under, not the last", _OPS,
        "    for m in range(len(keys), 0, -1):",
        "    for m in range(1, len(keys) + 1):",
        _OPS_TESTS,
    ),
    Mutant(
        "a run forgets the fields an earlier step adds", _OPS,
        "        held.update(k + SEPARATOR + f for r, k in taken[-1:] for f in _held(r))\n",
        "",
        _OPS_TESTS,
    ),
    Mutant(
        "right_condition drops rule 2 (a left row key holding PAIR_SEPARATOR)", _OPS,
        "    if pairs and any(PAIR_SEPARATOR in lk for lk in left.rows):\n        return None\n",
        "",
        _OPS_TESTS,
    ),
    Mutant(
        "_joined_schema may name a field twice", _OPS,
        "fields=tuple(dict.fromkeys(fields[:at] + dotted + fields[at + 1:]))",
        "fields=fields[:at] + dotted + fields[at + 1:]",
        ("tests/test_ops.py", "tests/test_cli.py"),
    ),
    Mutant(
        "_pick gives a missing column as null", _OPS,
        "        if f in row:\n            picked[f] = row[f]\n",
        "        picked[f] = row.get(f)\n",
        _OPS_TESTS,
    ),
    Mutant(
        "_sides never re-lays interleaved columns", _OPS,
        "    return tuple(map(tuple, sides)), wanted != laid",
        "    return tuple(map(tuple, sides)), False",
        _OPS_TESTS,
    ),
    Mutant(
        "_right_part flattens an empty tuple to no field", _OPS,
        "        return {key: None}",
        "        return {}",
        _OPS_TESTS,
    ),
    Mutant(
        "a run takes its one pass with an empty key", _OPS,
        "        if not key or not _nests_cleanly(held, key):",
        "        if not _nests_cleanly(held, key):",
        _OPS_TESTS,
    ),
    Mutant(
        "_held reads the rows of a bounded relation too", _OPS,
        "    return set(rel.schema.fields) if rel.bounded else set().union(*rel.rows.values())",
        "    return set().union(*rel.rows.values())",
        _OPS_TESTS,
        equivalent=(
            "a bounded relation's schema names every field its rows hold, so the rows give a subset; "
            "a check that passes on it but fails on the schema picks the one pass or a select before "
            "the join where the schema picks the plain fold or the select after it, and both are exact"
        ),
    ),
    Mutant(
        "the one pass picks a part column the right row does not hold", _OPS,
        "{c: rrow[f] for c, f in pairs if f in rrow}",
        "{c: rrow[f] for c, f in pairs}",
        _OPS_TESTS,
    ),
    Mutant(
        "the one pass gives a left column the row lacks as null", _OPS,
        "            if f in lrow:\n                row[f] = lrow[f]\n",
        "            row[f] = lrow.get(f)\n",
        _OPS_TESTS,
    ),
)

RENDER_MUTANTS = (
    Mutant(
        "a table's body lines keep their trailing spaces", _RENDER,
        'body = map(str.rstrip, map("  ".join, _by_row(padded, n)), repeat(" "))',
        'body = map("  ".join, _by_row(padded, n))',
        _RENDER_TESTS,
    ),
    Mutant(
        "a table pads its last column too", _RENDER,
        "for column, w in zip(columns[:-1], widths)] + columns[-1:]",
        "for column, w in zip(columns, widths)]",
        _RENDER_TESTS,
        equivalent=(
            "every body line is stripped of trailing spaces, and s.ljust(w).rstrip(' ') == s.rstrip(' '), "
            "so padding the last cell of a line changes no text"
        ),
    ),
)

MUTANTS = OPS_MUTANTS + RENDER_MUTANTS


def mutated(root: Path, mutant: Mutant) -> str:
    """The text of ``mutant``'s file under ``root`` with ``mutant.old``
    replaced; a ``ValueError`` unless ``old`` occurs there exactly once."""
    source = (root / mutant.path).read_text(encoding="utf-8")
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its text occurs {count} times in {mutant.path}, not once")
    return source.replace(mutant.old, mutant.new)


def _copy(root: Path, dest: Path) -> None:
    for name in _COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        elif src.is_file():
            shutil.copy2(src, dest / name)


def passes(root: Path, tests: tuple[str, ...], mutant: Mutant | None = None) -> bool:
    """Whether ``tests`` pass on a copy of ``root`` with ``mutant`` applied, if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        _copy(root, work)
        if mutant is not None:
            (work / mutant.path).write_text(mutated(work, mutant), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *tests],
            cwd=work, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(work / "src")},
        )
    # pytest exits 1 when a test fails and 2 when collection fails (a mutant
    # that breaks an import); any other non-zero code is a fault of the list.
    if proc.returncode not in (0, 1, 2):
        raise RuntimeError(f"pytest exited {proc.returncode} on {' '.join(tests)}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def run(root: Path, mutants: tuple[Mutant, ...]) -> int:
    """Run ``mutants`` against the checkout at ``root`` and print the outcome;
    the exit status of ``main``."""
    try:
        for mutant in mutants:
            mutated(root, mutant)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    every_test = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    if not passes(root, every_test):
        print(f"error: the unmutated tests fail: {' '.join(every_test)}")
        return 1
    killed = survived = equivalent = 0
    for mutant in mutants:
        dead = not passes(root, mutant.tests, mutant)
        if mutant.equivalent:
            equivalent += 1
            verdict = "KILLED, though marked equivalent" if dead else "equivalent"
        else:
            killed += dead
            survived += not dead
            verdict = "killed" if dead else "SURVIVED"
        print(f"{verdict:<12} {mutant.path}: {mutant.name} ({' '.join(mutant.tests)})")
        if mutant.equivalent:
            print(f"{'':<12} why: {mutant.equivalent}")
    scored = killed + survived
    score = f"{100.0 * killed / scored:.1f}%" if scored else "n/a"
    print(f"{killed} killed, {survived} survived, {equivalent} equivalent; score {killed}/{scored} = {score}")
    return 0


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tools/mutants.py", file=sys.stderr)
        return 2
    return run(ROOT, MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
