"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment of the paper (the registry in
``repro.experiments``, ``python -m repro list``) at the quick scale, so that
``pytest benchmarks/ --benchmark-only`` reproduces every table/claim in
minutes.  The experiment result is attached
to the benchmark's ``extra_info`` so the JSON export contains the measured
rows alongside the timings.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

import pytest

from repro.experiments.registry import ExperimentResult

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run_experiment_benchmark(benchmark, runner: Callable[[], ExperimentResult]
                             ) -> ExperimentResult:
    """Run ``runner`` exactly once under the benchmark clock and record a
    summary of its rows in the benchmark metadata."""
    result = benchmark.pedantic(runner, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["experiment"] = result.experiment_id
    benchmark.extra_info["rows"] = len(result.rows)
    benchmark.extra_info["notes"] = result.notes
    return result


def pytest_sessionfinish(session, exitstatus):
    """Dump the measured guard numbers to the committed BENCH_<pr>.json
    (see record.py) when the session exports ``--benchmark-json``: a plain
    test run leaves the working tree clean, and empty sessions write
    nothing."""
    if session.config.getoption("benchmark_json", None) is None:
        return
    from record import write_benchmark_record

    path = write_benchmark_record(session)
    if path is not None:
        print(f"\nbenchmark record written: {path}")
