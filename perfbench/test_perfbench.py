"""The benchmark's own checks, at a tiny size.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from sgdb import evaluator, ops, storage

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def tiny(name: str) -> dict:
    spec = copy.deepcopy(workloads.load_spec()["workloads"][name])
    tables = spec["tables"]
    if name == "ingest":
        tables["t"]["rows"] = 200
    elif name == "scan":
        tables["t"].update(rows=250, overwrites=40, deletes=10)
        spec["c_values"] = 10
    else:
        tables["orders"]["rows"], tables["customers"]["rows"], tables["parts"]["rows"] = 60, 12, 16
    spec["trace_ops"] = 12
    return spec


def test_workload_names_match_the_record():
    assert NAMES == list(workloads.load_spec()["workloads"]) == list(workloads.WORKLOADS)


def test_generation_is_a_function_of_the_seed():
    a, b, c = (workloads.make("report", s, tiny("report")) for s in (3, 3, 4))
    assert a.history == b.history != c.history
    take = lambda w: [next(w.ops()).text for _ in range(5)]  # noqa: E731
    assert take(a) == take(b)


def test_generated_sizes_match_the_record():
    record = workloads.load_spec()["workloads"]
    scan = workloads.make("scan", 1)
    assert len(scan.live["t"]) == record["scan"]["live_rows"]
    assert scan.dead_ratio() == pytest.approx(record["scan"]["dead_ratio_at_setup"])
    report = workloads.make("report", 1)
    assert {t: len(rows) for t, rows in report.live.items()} == {
        t: d["rows"] for t, d in record["report"]["tables"].items()}
    assert workloads.make("ingest", 1).dead_ratio() == record["ingest"]["dead_ratio_at_setup"]


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_and_prints_every_metric_with_its_unit(name, tmp_path):
    outcome = run.end_to_end(name, 1, 0.3, tmp_path, tiny(name))
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    line = json.loads(run.result_line(outcome, BENCHMARK["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    for m in BENCHMARK["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0

    traced = run.traced(name, 1, tmp_path / "traced", tiny(name), spans_out=tmp_path / "spans.jsonl")
    assert traced["failed"] == 0
    line = json.loads(run.result_line(traced, BENCHMARK["per_layer"]))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(line["metrics"])
    for m in BENCHMARK["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    spans = [json.loads(s) for s in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"id", "name", "op", "parent", "start_us", "end_us"} <= set(spans[0])


def test_log_counts_come_from_the_engine_files(tmp_path):
    from sgdb.storage import Database

    workload = workloads.make("scan", 1, tiny("scan"))
    workload.setup(Database(tmp_path / "db"))
    assert tracing.dead_ratio(tmp_path / "db") == pytest.approx(workload.dead_ratio())
    log = tracing.read_log(tmp_path / "db" / "t.sgt")
    records = len(log)
    assert records == 1 + len(workload.history["t"])
    # Only records wholly inside the ranges an open read are replayed ones.
    tracer = tracing.Tracer()
    middle = log[10][2] + 1
    tracer.open_reads = [(str(tmp_path / "db" / "t.sgt"), [(0, middle), (middle, log[20][3])])]
    assert tracer.records_replayed() == 21
    tracer.open_reads = [(str(tmp_path / "db" / "t.sgt"), [(0, middle)])]
    assert tracer.records_replayed() == 10
    # scan only reads, and every operation opens the table once and replays its whole log.
    counts = run.traced("scan", 1, tmp_path / "traced", tiny("scan"))["counts"]
    assert counts["storage.records_replayed"] == counts["storage.opens"] * records
    assert counts["storage.open_bytes"] == counts["storage.opens"] * (tmp_path / "db" / "t.sgt").stat().st_size


def test_a_wrong_expectation_is_counted_as_failed(tmp_path):
    outcome = run.end_to_end("scan", 1, 0.3, tmp_path, tiny("scan"), expected=lambda op: "wrong\n")
    assert outcome["failed"] == outcome["attempted"] >= 1
    line = json.loads(run.result_line(outcome, BENCHMARK["end_to_end"]))
    assert line["correct"] is False
    assert line["metrics"]["success_ratio"]["value"] == 0.0


def test_a_lost_write_is_found_by_the_table_check(tmp_path):
    from sgdb.storage import Database

    workload = workloads.make("ingest", 1, tiny("ingest"))
    workload.setup(Database(tmp_path))
    assert run.check_tables(tmp_path, workload) == 0
    next(iter(workload.live["t"].values()))["name"] = "acknowledged-but-lost"
    assert run.check_tables(tmp_path, workload) == 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    outcome = run.traced(name, 2, tmp_path, tiny(name))
    assert outcome["digests"] == outcome["plain_digests"]
    assert None not in outcome["digests"]


def test_tracing_leaves_the_engine_as_it_found_it(tmp_path):
    before = (evaluator.evaluate, ops.cartesian, dict(evaluator._JOINS), storage.TableFile.__init__,
              storage.Database.scan, storage.os.fsync)
    run.traced("report", 1, tmp_path, tiny("report"))
    after = (evaluator.evaluate, ops.cartesian, dict(evaluator._JOINS), storage.TableFile.__init__,
             storage.Database.scan, storage.os.fsync)
    assert before == after


@pytest.mark.parametrize("name", NAMES)
def test_layer_counts_repeat_exactly_for_a_seed(name, tmp_path):
    keys = ("storage.opens", "storage.open_bytes", "storage.fsyncs", "render.rows",
            "storage.records_replayed", "model.rows_copied")
    first, second = (run.traced(name, 5, tmp_path / str(i), tiny(name))["counts"] for i in (1, 2))
    assert [first.get(k, 0) for k in keys] == [second.get(k, 0) for k in keys]
    assert first["storage.opens"] > 0 and first["storage.fsyncs"] > 0


def test_self_times_cover_the_traced_operation(tmp_path):
    metrics = run.traced("report", 1, tmp_path, tiny("report"))["metrics"]
    self_ms = sum(v for k, (v, unit) in metrics.items() if unit == "ms" and k != "trace.op_ms")
    assert self_ms == pytest.approx(metrics["trace.op_ms"][0])
    assert 0 < metrics["trace.uncovered_pct"][0] < 5


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 1.0, -1, 0], ["render.render", 0.25, 0.5, 0, 0]]
    totals = tracer.self_times_ms()
    assert totals["trace.uncovered_ms"] == pytest.approx(750.0)
    assert totals["render.ms"] == pytest.approx(250.0)
