"""Benchmark of the ``repro`` reproduction: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --steadiness RUNS [--workload NAME ...]

Workloads: ``paper-quick``, ``network-large``, ``sweep-fabric`` (see
``perf_workloads.py`` and ``BENCHMARK.json`` for why each was chosen).

``--trace 0`` sets the workload up in a fresh process, runs one warm-up
pass, then timed passes for at least ``--seconds`` seconds and three
passes, checks the outputs and prints the end-to-end metrics.  Before each
timed pass and after the last, the workload is set up again in fresh
processes, so ``setup_s`` is the median of set-ups spread over the run.
``--trace 1`` runs one untraced and one traced pass in two fresh processes
and prints the per-layer metrics of the traced one, the self-time coverage
check and the tracing overhead.  The last line of standard output is the
JSON result.  A host record and a host-speed probe (before and after) are
printed above it.

``--steadiness RUNS`` runs each workload RUNS times with seeds 1..RUNS and
prints, per end-to-end metric, the median, quartiles and spread
(q3 - q1) / median beside the metric's bound, and the probe's spread.  It
then runs two traced runs with seed 1 and one with the held-out seed, and
checks that their counts repeat exactly and their outputs are correct.

Everything the run writes lives in ``.perfbench_tmp/`` under the checkout
and is removed when the run ends; every process it starts is reaped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perf_host  # noqa: E402
import perf_trace  # noqa: E402
import perf_workloads  # noqa: E402

WORKLOAD_NAMES = ("paper-quick", "network-large", "sweep-fabric")
MIN_PASSES = 3
#: Held out of tuning: only the steadiness report's agreement check uses it.
HELD_OUT_SEED = 7919
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
#: Phases reported as per-layer metrics of a traced run (from its
#: untraced companion pass), in the order the issue names them.
PHASES = ("suite_s", "solve_s", "native_solve_s", "sweep_s", "job_s",
          "reads_s")


class RunFailed(Exception):
    """A child process failed: the run prints no result."""


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_TMP"] = str(tmp)
    env["PERFBENCH_TRACE_ID"] = uuid.uuid4().hex[:16]
    # One BLAS thread per process keeps the busy threads at most nproc:
    # two pool or remote workers, plus a mostly waiting parent.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    # Set-up is timed as users meet it, with Python's bytecode cache on
    # (the caches land in ignored __pycache__ directories of the checkout).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict, tmp: Path, deadline: float) -> dict:
    """Run ``perf_child.py`` and return the result it wrote.

    The child leads a process group of its own (with the daemon and workers
    it starts); whatever of the group outlives it is killed and waited for.
    """
    before = set(tmp.glob("result-*.json"))
    log = tmp / "child.log"
    with open(log, "ab") as sink:
        process = subprocess.Popen(
            [sys.executable, str(HERE / "perf_child.py"), *args,
             "--tmp", str(tmp)],
            env=env, stdout=sink, stderr=sink, stdin=subprocess.DEVNULL,
            start_new_session=True)
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(process)
    if code is None:
        raise RunFailed(f"child {args} timed out")
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RunFailed(f"child {args} exited {code}:\n{tail}")
    (path,) = set(tmp.glob("result-*.json")) - before
    return json.loads(path.read_text())


def stop_group(process: subprocess.Popen) -> None:
    """Kill what is left of ``process``'s group and wait until it is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_untraced(workload: str, seed: int, seconds: float, env: dict,
                 tmp: Path, deadline: float, report: list[str]) -> dict:
    main = run_child(["--workload", workload, "--seed", str(seed),
                      "--mode", "run", "--seconds", str(seconds),
                      "--passes", str(MIN_PASSES), "--interleave-setups"],
                     env, tmp, deadline)
    setup_values = [main["setup_s"]] + [item["setup_s"] for item in main["setups"]]
    passes = main["passes"]
    pass_values = [item["pass_s"] for item in passes]
    metrics = {
        "pass_s": {"value": statistics.median(pass_values), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_values), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    report.append(f"setup_s: median {metrics['setup_s']['value']:.4f} s of "
                  f"{len(setup_values)} set-ups {fmt(setup_values)}")
    report.append(f"pass_s: median {metrics['pass_s']['value']:.4f} s of "
                  f"{len(pass_values)} timed passes {fmt(pass_values)}")
    report.append(f"peak_rss_mb: {main['peak_rss_mb']:.1f} MB")
    for phase in passes[0]["phases"]:
        values = [item["phases"][phase] for item in passes]
        report.append(f"  {workload}/{phase}: median {statistics.median(values):.4f} s "
                      f"{fmt(values)}")
    latencies = [value for item in passes for value in item.get("latencies_ms", [])]
    if latencies:
        rates = [item["requests"] / item["reads_s"] for item in passes]
        report.append(f"  {workload}/req_per_s: median {statistics.median(rates):.1f} "
                      f"req/s {fmt(rates)}")
        report.append(f"  {workload}/req_p50_ms: {percentile(latencies, 0.50):.3f} ms, "
                      f"req_p99_ms: {percentile(latencies, 0.99):.3f} ms "
                      f"({len(latencies)} requests; "
                      f"{len(latencies) - int(0.99 * len(latencies))} beyond p99)")
    return {"metrics": metrics, "attempted": main["attempted"],
            "failed": main["failed"], "failures": main["failures"]}


def run_traced(workload: str, seed: int, env: dict, tmp: Path,
               deadline: float, report: list[str]) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    plain = run_child([*common, "--mode", "run", "--passes", "1"], env, tmp,
                      deadline)
    traced = run_child([*common, "--mode", "traced"], env, tmp, deadline)
    spans = perf_trace.load_spans(str(tmp))
    layers = perf_trace.analyze(spans, main_pid=traced["pid"],
                                workers=perf_workloads.SweepFabric.workers)
    plain_pass, traced_pass = plain["passes"][0], traced["passes"][0]
    layers["import_s"] = traced["import_s"]
    layers["trace.overhead_s"] = traced_pass["pass_s"] - plain_pass["pass_s"]
    for phase in PHASES:
        layers[phase] = plain_pass["phases"].get(phase, 0.0)
    latencies = plain_pass.get("latencies_ms", [])
    layers["req_per_s"] = (plain_pass["requests"] / plain_pass["reads_s"]
                           if latencies else 0.0)
    layers["req_p50_ms"] = statistics.median(latencies) if latencies else 0.0

    coverage_failures = perf_trace.coverage_failures(layers)
    agree = plain_pass["outputs"] == traced_pass["outputs"]
    checks = [(agree, "traced and untraced outputs differ"),
              (not coverage_failures, "; ".join(coverage_failures))]
    failures = [*plain["failures"], *traced["failures"],
                *(message for passed, message in checks if not passed)]
    report.append(f"spans: {len(spans)} from "
                  f"{len({span['pid'] for span in spans})} processes")
    report.append(f"self-time coverage: self times add up to "
                  f"{layers['trace.coverage']:.6f} of {layers['trace.wall_s']:.4f} s "
                  f"traced wall time; unattributed "
                  f"{layers['trace.unattributed_s']:.4f} s "
                  f"({'ok' if not coverage_failures else 'FAILED'})")
    report.append(f"tracing overhead: {layers['trace.overhead_s']:.4f} s "
                  f"(traced pass {traced_pass['pass_s']:.4f} s, untraced "
                  f"{plain_pass['pass_s']:.4f} s)")
    report.append(f"outputs: traced and untraced {'agree' if agree else 'DIFFER'}")
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in per_layer_units().items()}
    return {"metrics": metrics,
            "attempted": plain["attempted"] + traced["attempted"] + len(checks),
            "failed": plain["failed"] + traced["failed"]
            + sum(1 for passed, _ in checks if not passed),
            "failures": failures}


def per_layer_units() -> dict[str, str]:
    units = dict(perf_trace.PER_LAYER_UNITS)
    units.update({phase: "s" for phase in PHASES})
    units.update({"req_per_s": "req/s", "req_p50_ms": "ms"})
    return units


def fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{value:.4f}" for value in values) + "]"


def run_once(args: argparse.Namespace, root: Path) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = child_env(root, tmp)
    report = [f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}"]
    try:
        report.append("host " + json.dumps(perf_host.record(root, env)))
        probe_before = perf_host.probe()
        if args.trace:
            outcome = run_traced(args.workload, args.seed, env, tmp, deadline,
                                 report)
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds, env,
                                   tmp, deadline, report)
        probe_after = perf_host.probe()
    except RunFailed as error:
        print("\n".join(report))
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report.append("probe " + json.dumps({"before": probe_before,
                                         "after": probe_after}))
    for failure in outcome["failures"]:
        report.append(f"check failed: {failure}")
    print("\n".join(report))
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": outcome["metrics"]}))
    return 0 if outcome["failed"] == 0 else 1


def invoke(root: Path, workload: str, seed: int, seconds: int,
           trace: int) -> tuple[dict, dict]:
    """Run this command once; return its JSON result and probe record."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=400)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed} trace {trace} exited "
                        f"{done.returncode}: {done.stderr[-2000:]}")
    probe = next(json.loads(line[len("probe "):]) for line in lines
                 if line.startswith("probe "))
    return json.loads(lines[-1]), probe


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steadiness(args: argparse.Namespace, root: Path) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {item["name"]: item["bound"] for item in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        results, probes = [], []
        started = time.monotonic()
        for seed in range(1, args.steadiness + 1):
            result, probe = invoke(root, workload, seed, seconds, 0)
            results.append(result)
            probes.append(probe)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={item['value']:.4f}"
                for name, item in result["metrics"].items()), flush=True)
        print(f"== {workload}: {len(results)} runs in "
              f"{time.monotonic() - started:.0f} s")
        for name, bound in bounds.items():
            median, q1, q3, share = spread(
                [item["metrics"][name]["value"] for item in results])
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO NOISY")
            ok &= share <= bound
            print(f"  {name:12s} median {median:10.4f} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {share:7.2%} bound {bound:.0%} "
                  f"-> {verdict}")
        for key in ("python_ms", "numpy_ms"):
            values = [p[side][key] for p in probes for side in ("before", "after")]
            median, q1, q3, share = spread(values)
            print(f"  probe {key:9s} median {median:8.2f} q1 {q1:8.2f} "
                  f"q3 {q3:8.2f} spread {share:7.2%}")
        first, _ = invoke(root, workload, 1, seconds, 1)
        second, _ = invoke(root, workload, 1, seconds, 1)
        held_out, _ = invoke(root, workload, HELD_OUT_SEED, seconds, 1)
        differing = [name for name in perf_trace.EXACT_COUNTS
                     if first["metrics"][name]["value"]
                     != second["metrics"][name]["value"]]
        correct = first["correct"] and second["correct"] and held_out["correct"]
        ok &= correct and not differing
        print(f"  traced counts repeat exactly: "
              f"{'yes' if not differing else 'NO: ' + ', '.join(differing)}; "
              f"traced runs correct (seed 1 twice, held-out seed "
              f"{HELD_OUT_SEED}): {'yes' if correct else 'NO'}", flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args, root)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload[0]
    return run_once(args, root)


if __name__ == "__main__":
    sys.exit(main())
