"""sgdb benchmark: seeded workloads driven through parse -> evaluate -> render.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

One operation is one ``exec`` call, sent by one client in a closed loop
through the same chain the CLI runs: ``dsl.parse_script``, then
``evaluator.evaluate`` and ``render.render`` per statement.  Every run starts
from a freshly generated database in ``.perfbench/`` and checks each output,
and afterwards every table, against the workload's plain-dict model.

``--trace 0`` times the loop for ``--seconds`` and prints the end-to-end
metrics, with times scaled to a fixed machine speed (see reference_ms).
``--trace 1`` runs the workload's fixed number of operations from copies of
the same database, once untraced and once with spans installed (see
tracing.py), and prints the per-layer metrics per operation; its counts
repeat exactly for a seed.  ``--steadiness N`` runs the chosen
workload N times in fresh processes, one seed each, and prints every
end-to-end metric's median and quartile spread against its bound.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Input of the reference loop: rows shaped like the workloads' tables.
_REFERENCE_ROWS = [{"id": f"k{i:05d}", "name": "abcdefgh" * (1 + i % 3), "c": f"c{i % 100}"}
                   for i in range(400)]

def filesystem(path: Path) -> str:
    """Filesystem type of ``path``, as ``stat -f`` names it."""
    try:
        proc = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "db_filesystem": filesystem(WORK),
        "platform": platform.platform(),
    }


def reference_ms() -> float:
    """Milliseconds a fixed piece of Python work takes right now, best of three.

    The work (JSON round trip, dict copies, sort, text layout) is the kind the
    engine does, and none of it is engine code.  On a shared host the CPU
    speed can swing by 2x within seconds, and this loop slows and speeds up
    with it, so each end-to-end time is divided by the loop's time measured
    around it: times are reported at the machine speed where the loop takes
    1 ms.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        index = {r["id"]: dict(r) for r in json.loads(json.dumps(_REFERENCE_ROWS, sort_keys=True))}
        "".join(f"{k}  {r['name'].ljust(30)}  {r['c']}\n" for k, r in sorted(index.items()))
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def execute(db, text: str, spec) -> tuple[str, int]:
    """One operation through the CLI's chain; returns (output, rows in results)."""
    from sgdb import dsl, evaluator, render
    from sgdb.model import Relation

    out, returned = [], 0
    for stmt in dsl.parse_script(text):
        result = evaluator.evaluate(stmt, db)
        if isinstance(result, Relation):
            returned += len(result)
            out.append(render.render(result, spec))
        else:
            out.append(result.message + "\n")
    return "".join(out), returned


class Phase:
    """Results of one closed-loop pass over a workload's operation stream."""

    def __init__(self):
        self.ops = []
        self.digests: list[str | None] = []
        self.latencies: list[float] = []
        self.reference: list[float] = []  # reference_ms() before each operation and after the last
        self.returned = 0
        self.elapsed = 0.0


def run_phase(db, stream, spec, *, seconds=None, count=None, tracer=None) -> Phase:
    """Send operations one after another until ``seconds`` pass or ``count`` are done."""
    from sgdb.errors import SgdbError

    phase = Phase()
    start = time.perf_counter()
    while True:
        done = len(phase.ops)
        if count is not None and done >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        op = next(stream)
        phase.reference.append(reference_ms())
        if tracer is not None:
            tracer.op = done
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            text, returned = execute(db, op.text, spec)
        except (SgdbError, OSError):
            text, returned = None, 0
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
        phase.ops.append(op)
        phase.latencies.append(t1 - t0)
        phase.returned += returned
        phase.digests.append(None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest())
    phase.elapsed = time.perf_counter() - start
    phase.reference.append(reference_ms())
    return phase


def check_outputs(workload, phase: Phase, expected=None) -> int:
    """Operations whose output differs from the model's; ``expected`` overrides it (tests)."""
    expected = expected or workload.expected
    failed = 0
    for op, digest in zip(phase.ops, phase.digests):
        want = hashlib.sha256(expected(op).encode("utf-8")).hexdigest()
        if digest != want:
            failed += 1
            if failed == 1:
                print(f"output mismatch on {op.text[:80]!r}", file=sys.stderr)
    return failed


def check_tables(root: Path, workload) -> int:
    """Re-open every table in a fresh Database and count keys that differ from the model."""
    from sgdb.storage import Database

    db = Database(root)
    mismatched = 0
    for table, rows in workload.live.items():
        with db.open(table) as handle:
            stored = handle.scan_all().rows
        mismatched += sum(1 for k in rows.keys() | stored.keys() if rows.get(k) != stored.get(k))
    if mismatched:
        print(f"{mismatched} stored rows differ from the model", file=sys.stderr)
    return mismatched


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def live_bytes(workload) -> int:
    return sum(len(workloads.canonical(r).encode("utf-8"))
               for rows in workload.live.values() for r in rows.values())


def setup(workload, repeats: int, scratch: Path):
    """Write the workload's generated history to a new database ``repeats`` times, keeping the last.

    Only the writes through the storage API are timed.  Returns (root,
    seconds, reference ms): the set-up times, and reference_ms() measured
    before each set-up and after the last.
    """
    from sgdb.storage import Database

    times, refs, root = [], [], None
    for i in range(repeats):
        if root is not None:
            shutil.rmtree(root)
        root = scratch / f"db{i}"
        refs.append(reference_ms())
        t0 = time.perf_counter()
        workload.setup(Database(root))
        times.append(time.perf_counter() - t0)
    refs.append(reference_ms())
    return root, times, refs


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Times at the machine speed where reference_ms() reads 1 ms.

    ``refs`` holds one reference before each timed step and one after the
    last; each step is divided by the mean of the two around it.
    """
    return [t * 2.0 / (before + after) for t, before, after in zip(times, refs, refs[1:])]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(name, seed, seconds, scratch, spec=None, expected=None) -> dict:
    from sgdb.render import RenderSpec
    from sgdb.storage import Database

    workload = workloads.make(name, seed, spec)
    root, setup_times, setup_refs = setup(workload, workloads.load_spec()["setup_repeats"], scratch)
    render_spec = RenderSpec(format=workload.spec["render_format"])
    phase = run_phase(Database(root), workload.ops(), render_spec, seconds=seconds)
    attempted = len(phase.ops)
    failed = check_outputs(workload, phase, expected) + check_tables(root, workload)
    raw_ms = [x * 1000.0 for x in phase.latencies]
    ms = scaled(raw_ms, phase.reference)
    metrics = {
        "setup_s": (statistics.median(scaled(setup_times, setup_refs)), "s"),
        "ops_per_s": (1000.0 * attempted / sum(ms), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 0.90), "ms"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "space_amp": (dir_bytes(root) / live_bytes(workload), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{name} seed {seed}: {attempted} ops in {phase.elapsed:.3f} s, {failed} failed, "
          f"{attempted - math.ceil(0.9 * attempted)} samples lie above p90")
    print(f"  unscaled: setup_s = {statistics.median(setup_times):.6g} s, "
          f"ops_per_s = {attempted / phase.elapsed:.6g} 1/s (wall clock), "
          f"op_p50_ms = {statistics.median(raw_ms):.6g} ms, op_p90_ms = {percentile(raw_ms, 0.90):.6g} ms; "
          f"reference_ms median {statistics.median(phase.reference):.4g}, "
          f"range {min(phase.reference):.4g}..{max(phase.reference):.4g}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "digests": phase.digests}


def traced(name, seed, scratch, spec=None, spans_out=None) -> dict:
    """Untraced then traced pass of the same operations from copies of one database.

    A few operations on a throwaway copy run first, so the untraced pass,
    which runs before the traced one, does not pay for cold caches alone.
    """
    import tracing
    from sgdb.render import RenderSpec
    from sgdb.storage import Database

    workload_t = workloads.make(name, seed, spec)
    root, _, _ = setup(workload_t, 1, scratch)
    count = workload_t.spec["trace_ops"]
    render_spec = RenderSpec(format=workload_t.spec["render_format"])
    for phase_name, n_ops in (("warm-up", min(5, count)), ("untraced", count)):
        shutil.copytree(root, scratch / phase_name)
        workload = workloads.make(name, seed, spec)
        plain = run_phase(Database(scratch / phase_name), workload.ops(), render_spec, count=n_ops)

    tracer = tracing.Tracer()
    start_bytes = dir_bytes(root)
    tracer.install()
    try:
        phase = run_phase(Database(root), workload_t.ops(), render_spec, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    appended = dir_bytes(root) - start_bytes

    failed = check_outputs(workload_t, phase) + check_tables(root, workload_t)
    differ = sum(a != b for a, b in zip(plain.digests, phase.digests))
    if differ:
        print(f"{differ} traced outputs differ from the untraced run", file=sys.stderr)
    failed += differ
    if spans_out is not None:
        tracer.write(spans_out)

    n = len(phase.ops)
    c = tracer.counts
    c["storage.records_replayed"] = tracer.records_replayed()
    self_ms = tracer.self_times_ms()
    op_ms = tracer.op_time_ms()
    logical = sum(op.logical_bytes for op in phase.ops)

    def per_op(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "storage.opens": (per_op(c["storage.opens"]), "count"),
        "storage.open_bytes": (per_op(c["storage.open_bytes"]), "bytes"),
        "storage.records_replayed": (per_op(c["storage.records_replayed"]), "count"),
        "storage.rows_decoded": (per_op(c["storage.rows_decoded"]), "count"),
        "storage.rows_examined_per_returned": (ratio(c["storage.rows_decoded"], phase.returned), "ratio"),
        "storage.puts": (per_op(c["storage.puts"]), "count"),
        "storage.deletes": (per_op(c["storage.deletes"]), "count"),
        "storage.fsyncs": (per_op(c["storage.fsyncs"]), "count"),
        "storage.bytes_appended": (per_op(appended), "bytes"),
        "storage.write_amp": (ratio(appended, logical), "ratio"),
        "storage.dead_ratio": (tracing.dead_ratio(root), "ratio"),
        "ops.rows_in": (per_op(c["ops.rows_in"]), "count"),
        "ops.rows_out": (per_op(c["ops.rows_out"]), "count"),
        "model.rows_copied": (per_op(c["model.rows_copied"]), "count"),
        "render.rows": (per_op(c["render.rows"]), "count"),
        "render.bytes": (per_op(c["render.bytes"]), "bytes"),
        "dsl.statements": (per_op(c["dsl.statements"]), "count"),
        "trace.op_ms": (per_op(op_ms), "ms"),
        "trace.uncovered_pct": (100.0 * ratio(self_ms["trace.uncovered_ms"], op_ms), "%"),
        "trace.overhead_pct": (100.0 * (ratio(sum(scaled(phase.latencies, phase.reference)),
                                              sum(scaled(plain.latencies, plain.reference))) - 1.0), "%"),
        "cost.replay_us_per_record": (1000.0 * ratio(self_ms["storage.open_ms"], c["storage.records_replayed"]), "us"),
        "cost.decode_us_per_row": (1000.0 * ratio(self_ms["storage.scan_ms"], c["storage.rows_decoded"]), "us"),
        "cost.cartesian_us_per_pair": (1000.0 * ratio(self_ms["ops.cartesian_ms"], c["ops.cartesian_pairs"]), "us"),
        "cost.render_us_per_row": (1000.0 * ratio(self_ms["render.ms"], c["render.rows"]), "us"),
    }
    for metric, total in self_ms.items():
        metrics[metric] = (per_op(total), "ms")
    print(f"{name} seed {seed}: {n} traced ops, {len(tracer.spans)} spans, {failed} failed; "
          f"self times cover {100.0 - metrics['trace.uncovered_pct'][0]:.2f}% of traced op time")
    return {"attempted": n, "failed": failed, "metrics": metrics, "digests": phase.digests,
            "plain_digests": plain.digests, "counts": dict(c)}


def result_line(outcome: dict, wanted: list[dict]) -> str:
    metrics = {}
    for m in wanted:
        value, unit = outcome["metrics"][m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    })


def steadiness(benchmark: dict, workload: str, runs: int, first_seed: int, seconds: int) -> int:
    """Run the workload ``runs`` times in fresh processes and report each metric's spread."""
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, {seconds} s each")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for m in benchmark["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        if m["name"] == "setup_s":
            verdict += " (spread not gated; median is)"
        print(f"{m['name']:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{m['bound']:>8.3f}  {verdict}")
        print("    runs: " + " ".join(f"{v:.5g}" for v in vals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run RUNS fresh processes from --seed on and report spreads")
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "src" / "sgdb" / "__init__.py").is_file():
        print(f"error: no sgdb sources under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.steadiness:
        return steadiness(benchmark, args.workload, args.steadiness, args.seed, args.seconds)

    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        print("machine: " + json.dumps(machine()))
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            outcome = traced(args.workload, args.seed, scratch, spans_out=spans)
            wanted = benchmark["per_layer"]
        else:
            outcome = end_to_end(args.workload, args.seed, args.seconds, scratch)
            wanted = benchmark["end_to_end"]
        for m in wanted:
            value, unit = outcome["metrics"][m["name"]]
            print(f"  {m['name']} = {value:.6g} {unit}")
        print(result_line(outcome, wanted))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
