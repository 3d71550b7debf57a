"""Daemon and worker processes of the ``sweep-fabric`` workload.

Usage::

    python perf_fabric_entry.py serve --store DIR --shard-points K [--trace]
    python perf_fabric_entry.py worker --connect URL --worker-id ID [--trace]

Both call the public ``repro.service`` entry points (``run_service`` and
``run_worker``) and print ``PERFBENCH_READY`` once they can take work.
With ``--trace`` the benchmark's layer wrappers are installed first and the
process writes its spans to ``$PERFBENCH_TMP`` when SIGTERM stops it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["serve", "worker"])
    parser.add_argument("--store")
    parser.add_argument("--shard-points", type=int)
    parser.add_argument("--connect")
    parser.add_argument("--worker-id")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    rec = None
    if args.trace:
        import perf_trace

        rec = perf_trace.Recorder(os.environ.get("PERFBENCH_TRACE_ID", "-"),
                                  "daemon" if args.role == "serve" else "worker")
        perf_trace.install(rec)
        rec.enabled = True
    try:
        if args.role == "serve":
            from repro.service import run_service

            def ready(server) -> None:
                host, port = server.server_address[:2]
                print(f"PERFBENCH_READY http://{host}:{port}", flush=True)

            # run_service turns SIGTERM into a clean shutdown and returns.
            run_service(args.store, port=0, shard_points=args.shard_points,
                        lease_ttl=60.0, ready=ready)
        else:
            from repro.service import run_worker

            def stop(signum, frame):  # noqa: ARG001 - signal API
                raise SystemExit(0)

            signal.signal(signal.SIGTERM, stop)
            print(f"PERFBENCH_READY {args.worker_id}", flush=True)
            run_worker(args.connect, worker_id=args.worker_id, poll=0.05)
    finally:
        if rec is not None:
            rec.enabled = False
            rec.dump(os.environ["PERFBENCH_TMP"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
