"""Fast checks of the benchmark's own machinery (no workload is run)."""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import perf_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_what_the_command_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = load_run_module()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.per_layer_units()


def span(pid, span_id, parent, name, start, end, attrs=None, role="main"):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "tid": 1, "role": role, "trace": "t",
            "attrs": attrs or {}}


def test_self_times_coverage_and_windows():
    spans = [
        span(1, 1, None, "setup", 0.0, 1.0, {"counts": {"games.validate_calls": 2}}),
        span(1, 2, None, "pass", 5.0, 9.0, {"counts": {"games.validate_calls": 3}}),
        span(1, 3, 2, "ensemble.run", 5.5, 8.5),
        span(1, 4, 3, "games.latency", 6.0, 7.0),
        span(1, 5, 3, "games.latency", 7.0, 7.5),
        # a daemon span during the untimed warm-up does not count
        span(2, 1, None, "board.lease", 3.0, 3.1, role="daemon"),
        span(2, 2, None, "board.lease", 6.0, 6.2, {"granted": True}, role="daemon"),
    ]
    metrics = perf_trace.analyze(spans, main_pid=1, workers=2)
    assert metrics["games.latency_calls"] == 2
    assert abs(metrics["games.latency_s"] - 1.5) < 1e-9
    assert abs(metrics["ensemble.self_s"] - 1.5) < 1e-9
    assert abs(metrics["trace.unattributed_s"] - 1.0) < 1e-9
    assert abs(metrics["trace.coverage"] - 1.0) < 1e-9
    assert metrics["games.validate_calls"] == 5
    assert metrics["fabric.lease_polls"] == 1
    assert metrics["fabric.leases_granted"] == 1
    # A quarter of the pass lies in no span: too much to pass the check.
    (failure,) = perf_trace.coverage_failures(metrics)
    assert "lies in no span" in failure


def test_coverage_check_passes_a_nested_pass_and_fails_overlaps():
    nested = [
        span(1, 1, None, "pass", 0.0, 10.0),
        span(1, 2, 1, "phase.suite", 0.0, 9.9),
        span(1, 3, 2, "ensemble.run", 1.0, 6.0),
        span(1, 4, 3, "games.latency", 2.0, 3.0),
    ]
    metrics = perf_trace.analyze(nested, main_pid=1, workers=2)
    assert abs(metrics["trace.coverage"] - 1.0) < 1e-9
    assert perf_trace.coverage_failures(metrics) == []
    # Two sibling layers that overlap count [4, 6] twice.
    overlapping = nested + [span(1, 5, 2, "protocols.switch", 4.0, 7.0)]
    metrics = perf_trace.analyze(overlapping, main_pid=1, workers=2)
    assert abs(metrics["trace.coverage"] - 1.2) < 1e-9
    (failure,) = perf_trace.coverage_failures(metrics)
    assert "add up to 1.2000" in failure
    # A span linked to a parent the record lacks is counted in its own
    # self time and in that of the span it really ran under.
    orphan = nested[:2] + [span(1, 4, 9, "games.latency", 2.0, 3.0)]
    metrics = perf_trace.analyze(orphan, main_pid=1, workers=2)
    assert abs(metrics["trace.coverage"] - 1.1) < 1e-9
    assert perf_trace.coverage_failures(metrics) != []


def test_recorder_spans_only_the_outermost_call_and_keeps_attributes():
    rec = perf_trace.Recorder("t", "main")

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    inner.native_spec = ("approx_equilibrium", 0.1, 0.1, None)
    wrapped_inner = perf_trace._span_wrapper(rec, "games.latency", inner)
    wrapped_outer = perf_trace._span_wrapper(rec, "games.latency", outer)
    assert wrapped_inner.native_spec == inner.native_spec
    assert wrapped_outer(1) == 4 and rec.spans == []  # disabled: no spans
    rec.enabled = True
    counted = perf_trace._count_wrapper(rec, "games.latency_value_calls", inner)
    with rec.span("pass"):
        assert wrapped_outer(1) == 4
        counted(0)
    names = [item["name"] for item in rec.spans]
    assert names == ["games.latency", "pass"]
    assert rec.spans[1]["attrs"]["counts"] == {"games.latency_value_calls": 1}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
