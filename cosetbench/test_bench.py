"""Checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest cosetbench/test_bench.py``.
The neutrality test runs every ``analyze`` cell three times (about two
minutes on two cores); the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from cells import WORKLOADS, Cell, expect_lift, judge, workload_cells
from layers import PER_LAYER, layer_metrics, read_trace
from run import BENCH, CellRun, Runner, end_to_end, fill_cache, run_cell


@pytest.fixture
def runner():
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=BENCH / "_work"))
    yield Runner(workdir, time.monotonic())
    shutil.rmtree(workdir, ignore_errors=True)


def test_analyze_reports_identical_warm_cold_and_traced(runner):
    """The cache and the tracer change no report byte and no DOT byte."""
    cells = workload_cells("analyze", 0, str(runner.workdir / "patch.dot"))
    cache = runner.workdir / "cache"
    fill_cache(runner, cache)
    for cell in cells:
        warm = run_cell(runner, cell, cache)
        cold = run_cell(runner, cell, None)
        traced = run_cell(runner, cell, cache, runner.workdir / "trace.jsonl")
        assert warm.returncode == cold.returncode == traced.returncode, cell.id
        assert warm.sha256 == cold.sha256 == traced.sha256, cell.id
        assert warm.dot_sha256 == cold.dot_sha256 == traced.dot_sha256, cell.id


def test_trace_nests_calls_across_module_namespaces(runner):
    """cli's imported names and lifting's inner calls become child spans."""
    argv = ["lift", "--group", "bs:1,2", "--radius", "8", "--path", "t.t.x.t^-1"]
    cell = Cell("lift", argv, expect_lift)
    trace_path = runner.workdir / "trace.jsonl"
    run = run_cell(runner, cell, None, trace_path)
    assert run.failure is None
    spans, counts, errors, meta = read_trace(trace_path)
    parent = {s["span"]: spans[s["parent"]]["span"] for s in spans if s["parent"] is not None}
    assert parent["cayley.cached_ball"] == "cli.main"
    assert parent["cayley.build_ball"] == "cayley.cached_ball"
    assert parent["lifting.compute_f"] == "lifting.lift_constants"
    assert counts["subgroups.coset_key"] > 0
    assert counts["groups.Group.apply_letter"] > 0
    assert not any(errors.values())
    metrics, _ = layer_metrics([(run, trace_path)])
    assert metrics["cayley.cache_misses"]["value"] == 1
    assert metrics["lifting.compute_f_calls"]["value"] == 1
    assert 0 < metrics["trace.coverage"]["value"] <= 1


def test_judge_catches_wrong_answers():
    (ladder,) = workload_cells("deep", 0, "patch.dot")
    report = {
        "schema": "cosetgeom.report.v1",
        "status": "ok",
        "result": {
            "constants": {"confidence": "Stable", "f": 2, "m": 5, "l": 10},
            "verified": True,
            "n_loops": 12,
            "max_loop_length": 7,
        },
    }
    assert judge(ladder, 0, json.dumps(report).encode()) is None
    assert judge(ladder, 1, json.dumps(report).encode()) == "exit code 1"
    report["result"]["constants"]["l"] = 11
    assert "2F+M+1" in judge(ladder, 0, json.dumps(report).encode())
    report["result"]["constants"]["l"] = 10
    report["result"]["verified"] = False
    assert "not verified" in judge(ladder, 0, json.dumps(report).encode())
    del report["result"]
    assert "lacks" in judge(ladder, 0, json.dumps(report).encode())


def test_seed_sets_order_and_lift_paths_only():
    a = workload_cells("analyze", 3, "patch.dot")
    b = workload_cells("analyze", 3, "patch.dot")
    c = workload_cells("analyze", 4, "patch.dot")
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]
    fixed = lambda cells: sorted(x.id for x in cells if not x.id.startswith("lift"))
    assert fixed(a) == fixed(c)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    run = CellRun("c", 1.0, 1.0, 1.0, 0, None, False, "", None, False)
    metrics = end_to_end([[run]], [1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in metrics.items()
    ]
