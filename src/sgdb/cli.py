"""Command-line front end: REPL, one-shot exec, script runner, CSV in/out.

Exit codes: 0 success, 2 lex/parse error, 3 evaluation or storage error.
``difftest`` exits 1 when any divergence is found, and 2 when it would
check no seed or no operator.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from sgdb import csvio, dsl
from sgdb.errors import LexError, ParseError, SgdbError
from sgdb.evaluator import Status, evaluate
from sgdb.model import Relation
from sgdb.render import FORMATS, RenderSpec, render
from sgdb.storage import Database

PROMPT = "sgdb> "
CONTINUATION = "....> "


def _print_result(result: Relation | Status, spec: RenderSpec, out) -> None:
    if isinstance(result, Relation):
        out.write(render(result, spec))
    else:
        out.write(result.message + "\n")


def _print_positioned_error(exc: LexError | ParseError, text: str, out) -> None:
    out.write(f"error: {exc}\n")
    lines = text.split("\n")
    if 1 <= exc.line <= len(lines):
        out.write(f"  {lines[exc.line - 1]}\n")
        out.write("  " + " " * (exc.col - 1) + "^\n")


def _check_utf8(text: str) -> None:
    """Raise ``UnicodeDecodeError`` for the first byte of ``text`` that is not UTF-8,
    which ``sys.argv`` and a ``surrogateescape`` stream pass on as an escape."""
    text.encode("utf-8", "surrogateescape").decode("utf-8")


def _exec_text(db: Database, text: str, spec: RenderSpec, out, err) -> int:
    try:
        statements = dsl.parse_script(text)
    except (LexError, ParseError) as exc:
        _print_positioned_error(exc, text, err)
        return 2
    for stmt in statements:
        try:
            result = evaluate(stmt, db)
        except (SgdbError, OSError) as exc:
            err.write(f"error: {exc}\n")
            return 3
        _print_result(result, spec, out)
    return 0


def _ends_statement(text: str) -> bool:
    """Whether the REPL should run ``text`` now: its last token is ``;``.

    Text that does not lex runs at once, so its error shows, unless a closing
    quote would make it lex: then it ends inside a string whose last line feed
    is escaped, and the next line may still close it.
    """
    try:
        tokens = dsl.tokenize(text)
    except LexError:
        return not any(_lexes(text + quote) for quote in "\"'")
    return bool(tokens) and tokens[-1].kind == "SEMI"


def _lexes(text: str) -> bool:
    try:
        dsl.tokenize(text)
    except LexError:
        return False
    return True


def run_repl(db: Database, stdin, out=None) -> int:
    """Read statements (terminated by a ';' token), evaluate, render; errors keep the session alive.

    A line holding a byte that is not UTF-8, which a ``surrogateescape`` stdin
    passes on as an escape, is reported as ``sgdb run`` reports such a script,
    and the statement it belongs to is dropped.
    """
    out = out if out is not None else sys.stdout
    interactive = stdin.isatty()
    buffer = ""
    if interactive:
        out.write(PROMPT)
        out.flush()
    for line in stdin:
        try:
            _check_utf8(line)
        except UnicodeError as exc:
            out.write(f"error: {exc}\n")
            buffer = ""
        else:
            buffer += line
        if _ends_statement(buffer):
            _exec_text(db, buffer.strip(), RenderSpec(), out, out)
            buffer = ""
        if interactive:
            out.write(PROMPT if not buffer else CONTINUATION)
            out.flush()
    if buffer.strip():
        _exec_text(db, buffer.strip(), RenderSpec(), out, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgdb", description="Star-graph relational engine")
    parser.add_argument(
        "--db",
        default=os.environ.get("SGDB_DB"),
        help="database directory (or set SGDB_DB); difftest needs none",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("repl", help="interactive session")

    p_exec = sub.add_parser("exec", help="run one statement (or a ';'-separated script)")
    p_exec.add_argument("-e", "--statement", required=True)
    p_exec.add_argument("--format", choices=FORMATS, default="table")

    p_run = sub.add_parser("run", help="run a script file")
    p_run.add_argument("script")
    p_run.add_argument("--format", choices=FORMATS, default="table")

    p_imp = sub.add_parser("import", help="load a CSV file into a new table")
    p_imp.add_argument("table")
    p_imp.add_argument("csv")
    p_imp.add_argument("--pk", required=True, help="primary-key column name")

    p_exp = sub.add_parser("export", help="write a table to a CSV file")
    p_exp.add_argument("table")
    p_exp.add_argument("csv")

    p_diff = sub.add_parser("difftest", help="engine vs naive-oracle differential run")
    p_diff.add_argument("--seeds", type=int, default=1000)
    p_diff.add_argument("--ops", help="comma-separated operator names (default: all)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "difftest":
            # Imported here: no other command needs the oracle and its dependencies.
            from sgdb.difftest import ALL_OPS, differential_check

            # difftest builds its own temporary databases, so it needs no --db.
            names = ALL_OPS if args.ops is None else args.ops.split(",")
            operators = tuple(op.strip() for op in names if op.strip())
            unknown = [op for op in operators if op not in ALL_OPS]
            if unknown:
                print(f"error: unknown operators {unknown}", file=sys.stderr)
                return 2
            # A run that compares nothing must not read as a pass.
            if args.seeds < 1 or not operators:
                print("error: difftest needs at least one seed and one operator", file=sys.stderr)
                return 2
            reports = differential_check(range(args.seeds), operators)
            print(
                f"difftest: {args.seeds} seeds x {len(operators)} operators, "
                f"{len(reports)} divergences"
            )
            for report in reports:
                print(str(report))
            return 1 if reports else 0
        if not args.db:
            print("error: no database directory (use --db or SGDB_DB)", file=sys.stderr)
            return 2
        db = Database(args.db)
        if args.command == "repl":
            # Undecodable bytes reach run_repl as escapes whatever PYTHONIOENCODING says, so it can report them.
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape", newline="\n")
            return run_repl(db, stdin)
        if args.command == "exec":
            _check_utf8(args.statement)
            return _exec_text(db, args.statement, RenderSpec(format=args.format), sys.stdout, sys.stderr)
        if args.command == "run":
            # A byte-order mark, as some editors write, is not part of the script.
            with open(args.script, encoding="utf-8-sig") as fh:
                text = fh.read()
            return _exec_text(db, text, RenderSpec(format=args.format), sys.stdout, sys.stderr)
        if args.command == "import":
            count = csvio.import_csv(db, args.table, args.csv, args.pk)
            print(f"imported {count} rows into {args.table}")
            return 0
        if args.command == "export":
            count = csvio.export_csv(db, args.table, args.csv)
            print(f"exported {count} rows from {args.table}")
            return 0
    except (SgdbError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: a statement, script or CSV file that is not UTF-8 text.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
