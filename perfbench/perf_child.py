"""One fresh process of a benchmark run: set up a workload, then time it.

Usage::

    python perf_child.py --workload NAME --seed N --mode MODE --tmp DIR
                         [--seconds T] [--passes N] [--interleave-setups]

``MODE`` is ``setup`` (set up, tear down, report the set-up time), ``run``
(set up, one warm-up pass, then timed passes until at least ``--passes``
passes and ``--seconds`` seconds of passes are done) or ``traced`` (as
``run`` with exactly one timed pass, recorded by the layer wrappers of
:mod:`perf_trace`).  With ``--interleave-setups`` a ``run`` sets the
workload up again, in fresh processes it waits for, before every timed
pass and after the last, so the set-up times are spread over the whole
run.  The result is written to ``DIR/result-MODE-PID.json``.
"""

import time

#: ``setup_s`` is timed from here, before ``repro`` is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import perf_trace  # noqa: E402  (stdlib only, like perf_workloads:
import perf_workloads  # noqa: E402  no repro module is imported yet)

#: Before each timed pass and after the last one, fresh set-ups are timed
#: until they have taken this long (at least one): two of a sub-second
#: set-up, one of a longer one.
SETUP_PAUSE_S = 1.2


def fresh_setup(args) -> dict:
    """Set the workload up once more in a fresh process and wait for it."""
    process = subprocess.Popen(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--mode", "setup", "--tmp", args.tmp],
        stdin=subprocess.DEVNULL)
    if process.wait() != 0:
        raise RuntimeError(f"set-up process exited {process.returncode}")
    path = Path(args.tmp) / f"result-setup-{process.pid}.json"
    result = json.loads(path.read_text())
    path.unlink()
    return result


def setup_pause(args) -> list[dict]:
    """Fresh set-ups for at least ``SETUP_PAUSE_S`` seconds."""
    started, setups = time.perf_counter(), []
    while not setups or time.perf_counter() - started < SETUP_PAUSE_S:
        setups.append(fresh_setup(args))
    return setups


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(perf_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "traced"],
                        required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--interleave-setups", action="store_true")
    args = parser.parse_args()
    tmp = Path(args.tmp)
    cls = perf_workloads.WORKLOADS[args.workload]

    rec = None
    if args.mode == "traced":
        rec = perf_trace.Recorder(os.environ.get("PERFBENCH_TRACE_ID", "-"),
                                  "main")
    import_started = time.perf_counter()
    cls.import_program()
    result = {"import_s": time.perf_counter() - import_started}
    if rec is not None:
        perf_trace.install(rec)
        rec.enabled = True

    workload = cls(args.seed, tmp, rec)
    setups = result["setups"] = []
    try:
        with rec.span("setup") if rec else contextlib.nullcontext():
            workload.setup()
        result["setup_s"] = time.perf_counter() - STARTED
        if rec is not None:
            rec.enabled = False
        if args.mode != "setup":
            warmup = workload.run_pass(warmup=True)
            timed = []
            if rec is not None:
                rec.enabled = True
                with rec.span("pass"):
                    timed.append(workload.run_pass())
                rec.enabled = False
            else:
                while len(timed) < args.passes or sum(
                        item["pass_s"] for item in timed) < args.seconds:
                    if args.interleave_setups:
                        setups.extend(setup_pause(args))
                    timed.append(workload.run_pass())
                if args.interleave_setups:
                    setups.extend(setup_pause(args))
            workload.check([warmup, *timed])
            result["passes"] = timed
        result["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.teardown()
    if rec is not None:
        rec.dump(args.tmp)
    failures = [*workload.failures,
                *(failure for item in setups for failure in item["failures"])]
    result.update(pid=os.getpid(),
                  attempted=workload.attempted
                  + sum(item["attempted"] for item in setups),
                  failed=len(failures), failures=failures[:20])
    (tmp / f"result-{args.mode}-{os.getpid()}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
