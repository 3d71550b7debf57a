"""Benchmark-owned span tracing of the ``repro`` layers.

The benchmark measures the program from outside: :func:`install` wraps the
public functions of each layer (games, protocols, dynamics, stop
conditions, ensemble, native, experiments, sweeps, store, service) in
spans kept in memory by a :class:`Recorder`, and :func:`analyze` turns the
spans of every process into the per-layer metrics.  The wrappers draw no
random numbers and never change arguments or results, so traced and
untraced runs compute the same rows.

A span is a dict ``{id, parent, name, start, end, pid, tid, role, trace,
attrs}``; ``parent`` is the span open on the same thread when it started.
Only the outermost call of a layer is a span: a re-entrant call of the
same layer (a subclass calling ``super()``, one latency method calling
another) runs unwrapped, so ``*_calls`` counts calls at the layer
boundary.  A root span (nothing open on its thread) carries the counter
increments made while it was open in ``attrs["counts"]``, which lets
:func:`analyze` count only what happened inside the measured windows.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Recorder", "install", "load_spans", "analyze", "coverage_failures",
           "PER_LAYER_UNITS"]


class Recorder:
    """In-memory span store of one process (written out by :meth:`dump`)."""

    def __init__(self, trace_id: str, role: str):
        self.trace_id = trace_id
        self.role = role
        self.pid = self.origin_pid = os.getpid()
        self.enabled = False
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked pool child starts with no open spans of its own: its
        # spans are roots of a new process tree, returned to the parent.
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = defaultdict(int)
        return local

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _open(self, name: str):
        local = self._thread_state()
        parent = local.stack[-1] if local.stack else None
        before = None
        if parent is None:
            with self._lock:
                before = dict(self.counts)
        span_id = next(self._ids)
        local.stack.append(span_id)
        local.open[name] += 1
        return (local, name, span_id, parent, before, time.perf_counter())

    def _close(self, token, attrs: dict) -> None:
        end = time.perf_counter()
        local, name, span_id, parent, before, start = token
        local.stack.pop()
        local.open[name] -= 1
        if before is not None:
            with self._lock:
                attrs["counts"] = {key: value - before.get(key, 0)
                                   for key, value in self.counts.items()
                                   if value != before.get(key, 0)}
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": self.pid, "tid": threading.get_ident(),
            "role": self.role, "trace": self.trace_id, "attrs": attrs})

    def call(self, name: str, fn, args, kwargs, after=None):
        """Run ``fn(*args, **kwargs)`` inside span ``name``."""
        if self._thread_state().open[name]:
            return fn(*args, **kwargs)
        attrs: dict = {}
        token = self._open(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, attrs, result, args, kwargs)
            return result
        except BaseException as error:
            attrs["error"] = type(error).__name__
            raise
        finally:
            self._close(token, attrs)

    @contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code (a phase or a pass)."""
        if not self.enabled:
            yield
            return
        token = self._open(name)
        try:
            yield
        finally:
            self._close(token, {})

    def dump(self, directory: str) -> Path:
        """Write this process's spans to ``directory`` (once, at exit)."""
        path = Path(directory) / f"spans-{self.role}-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans}))
        return path


# ---------------------------------------------------------------- wrappers --

def _span_wrapper(rec: Recorder, name, fn, after=None):
    """``fn`` wrapped in span ``name`` (a string or ``f(args, kwargs)``)."""
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span_name = naming(args, kwargs) if naming else name
        return rec.call(span_name, fn, args, kwargs, after)

    wrapper.__perfbench__ = True
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.enabled:
            rec.count(name)
        return fn(*args, **kwargs)

    wrapper.__perfbench__ = True
    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch_function(module_name: str, attr: str, make_wrapper) -> None:
    original = getattr(sys.modules[module_name], attr)
    if getattr(original, "__perfbench__", False):
        return
    _replace_everywhere(original, make_wrapper(original))


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _patch_methods(base, names, make_wrapper) -> None:
    """Wrap ``names`` on ``base`` and on every subclass that defines them."""
    for cls in _subclasses(base):
        for method in names:
            fn = cls.__dict__.get(method)
            if callable(fn) and not getattr(fn, "__perfbench__", False) \
                    and not isinstance(fn, (staticmethod, classmethod)):
                setattr(cls, method, make_wrapper(fn))


def _experiment_name(args, kwargs) -> str:
    experiment_id = args[0] if args else kwargs.get("experiment_id", "?")
    return f"exp.{experiment_id}"


def _ensemble_counts(rec, attrs, result, args, kwargs) -> None:
    rec.count("ensemble.replica_rounds", int(result.rounds.sum()))
    rec.count("ensemble.migrations", int(result.total_migrations.sum()))


def _lease_attrs(rec, attrs, result, args, kwargs) -> None:
    attrs["granted"] = result is not None
    if result is not None:
        attrs["job_id"] = result.get("job_id")


def _activate_attrs(rec, attrs, result, args, kwargs) -> None:
    attrs["job_id"] = result.job_id


def _sweep_attrs(rec, attrs, result, args, kwargs) -> None:
    attrs["workers"] = result.workers


def _import_all_modules() -> None:
    """Import every ``repro`` module so every subclass can be wrapped."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # a module behind an optional dependency this host lacks


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer; recording starts when
    ``rec.enabled`` is set."""
    _import_all_modules()
    from repro.core.ensemble import EnsembleDynamics
    from repro.core.protocols import Protocol
    from repro.games.base import CongestionGame
    from repro.games.latency import LatencyFunction
    from repro.games.network import NetworkCongestionGame
    from repro.service.client import ServiceClient
    from repro.service.jobs import ShardBoard
    from repro.service.server import SweepService
    from repro.sweeps.store import SweepStore

    def span(name, after=None):
        return lambda fn: _span_wrapper(rec, name, fn, after)

    _patch_methods(CongestionGame, [
        "strategy_latencies_batch", "strategy_latencies_after_join_batch",
        "post_migration_latency_matrix_batch", "resource_latencies_batch",
    ], span("games.latency"))
    _patch_methods(CongestionGame, ["validate_batch_state"],
                   lambda fn: _count_wrapper(rec, "games.validate_calls", fn))
    _patch_methods(LatencyFunction, ["value"],
                   lambda fn: _count_wrapper(rec, "games.latency_value_calls", fn))
    _patch_methods(NetworkCongestionGame, ["__init__"], span("games.build"))
    for constructor in ("layered_random_network_game", "grid_network_game",
                        "series_parallel_network_game", "braess_network_game",
                        "parallel_links_network_game"):
        _patch_function("repro.games.network", constructor, span("games.build"))

    _patch_methods(Protocol, ["switch_probabilities_batch"],
                   span("protocols.switch"))
    _patch_function("repro.core.dynamics", "sample_migration_matrices",
                    span("dynamics.draw"))

    def stop_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            # functools.wraps copies ``native_spec``, so the native backend
            # still fuses a traced stop condition into its kernel.
            return _span_wrapper(rec, "stop.check", factory(*args, **kwargs))

        make.__perfbench__ = True
        return make

    for factory in ("batch_stop_at_approx_equilibrium",
                    "batch_stop_at_imitation_stable", "batch_stop_at_nash",
                    "batch_stop_from_scalar"):
        _patch_function("repro.core.ensemble", factory, stop_factory)

    _patch_methods(EnsembleDynamics, ["run"],
                   span("ensemble.run", _ensemble_counts))
    for lowering in ("lower_game", "lower_protocol"):
        _patch_function("repro.core.native", lowering, span("native.lower"))
    _patch_function("repro.core.native", "run_native_ensemble",
                    span("native.run"))

    _patch_function("repro.experiments.registry", "run_experiment",
                    span(_experiment_name))

    _patch_function("repro.sweeps.kernels", "run_point", span("sweeps.point"))
    _patch_function("repro.sweeps.scheduler", "run_sweep",
                    span("sweeps.run", _sweep_attrs))
    _patch_function("repro.sweeps.scheduler", "_run_shard",
                    lambda fn: _shard_wrapper(rec, fn))
    _patch_function("repro.sweeps.scheduler", "parallel_map",
                    lambda fn: _adopting_map(rec, fn))
    _patch_methods(SweepStore, ["commit"], span("store.commit"))
    _patch_methods(SweepStore, ["load_rows", "completed_keys"],
                   span("store.load"))

    _patch_methods(SweepService, ["row_lines"], span("server.rows"))
    _patch_methods(SweepService, ["aggregate"], span("server.aggregate"))
    _patch_methods(ShardBoard, ["lease"], span("board.lease", _lease_attrs))
    _patch_methods(ShardBoard, ["complete"], span("board.complete"))
    _patch_methods(ShardBoard, ["activate"],
                   span("board.activate", _activate_attrs))
    for method, route in (("submit", "submit"), ("aggregate", "aggregate"),
                          ("job", "job"), ("lease_shard", "lease"),
                          ("complete_shard", "complete"),
                          ("shard_heartbeat", "heartbeat"),
                          ("healthz", "healthz"),
                          ("metrics_text", "metrics")):
        _patch_methods(ServiceClient, [method], span(f"http.{route}"))
    _patch_methods(ServiceClient, ["iter_row_lines"],
                   lambda fn: _span_wrapper(rec, "http.rows",
                                            _eager_iterator(fn)))


def _eager_iterator(fn):
    """Read a streamed response inside the span that times it."""
    @functools.wraps(fn)
    def eager(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return eager


def _shard_wrapper(rec: Recorder, fn):
    """``_run_shard`` in a pool child: its spans travel back with the rows."""
    @functools.wraps(fn)
    def shard(payload):
        if not rec.enabled or rec.pid == rec.origin_pid:  # not a pool child
            return fn(payload)
        mark = len(rec.spans)
        result = rec.call("sweeps.shard", fn, (payload,), {})
        spans = rec.spans[mark:]
        del rec.spans[mark:]
        return (*result, spans)

    shard.__perfbench__ = True
    return shard


def _adopting_map(rec: Recorder, fn):
    """``parallel_map`` that keeps the spans pool children send back."""
    @functools.wraps(fn)
    def mapped(func, payloads, *args, **kwargs):
        for index, result in fn(func, payloads, *args, **kwargs):
            if isinstance(result, tuple) and len(result) == 4 \
                    and getattr(func, "__perfbench__", False):
                rec.spans.extend(result[3])
                result = result[:3]
            yield index, result

    mapped.__perfbench__ = True
    return mapped


# ----------------------------------------------------------------- analysis --

PER_LAYER_UNITS: dict[str, str] = {}


def _register(names, unit):
    for name in names:
        PER_LAYER_UNITS[name] = unit


#: Self-time metrics: span name whose self time (duration minus the time
#: its same-thread children cover) the metric sums.
SELF_TIMES = {
    "ensemble.self_s": "ensemble.run",
    "games.latency_s": "games.latency",
    "games.build_s": "games.build",
    "protocols.switch_s": "protocols.switch",
    "dynamics.draw_s": "dynamics.draw",
    "stop.check_s": "stop.check",
    "native.lower_s": "native.lower",
    "native.run_s": "native.run",
    "sweeps.run_self_s": "sweeps.run",
    "store.commit_s": "store.commit",
    "store.load_s": "store.load",
    "board.lease_s": "board.lease",
    "board.complete_s": "board.complete",
    "server.rows_s": "server.rows",
    "server.aggregate_s": "server.aggregate",
}
#: Call counts: the number of spans of a layer.
CALL_COUNTS = {
    "games.latency_calls": "games.latency",
    "protocols.switch_calls": "protocols.switch",
    "dynamics.draw_calls": "dynamics.draw",
    "stop.checks": "stop.check",
    "sweeps.points": "sweeps.point",
    "store.commits": "store.commit",
    "fabric.lease_polls": "board.lease",
}
#: Counters kept by count-only wrappers and result hooks.
COUNTERS = ("ensemble.replica_rounds", "ensemble.migrations",
            "games.latency_value_calls", "games.validate_calls")
EXPERIMENTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
               "E11", "E12", "E13", "E14", "F1")
HTTP_ROUTES = ("submit", "rows", "aggregate", "job", "lease", "complete")
#: Counts that two traced runs with one seed must reproduce exactly.
EXACT_COUNTS = ("ensemble.replica_rounds", "ensemble.migrations",
                "games.latency_calls", "games.latency_value_calls",
                "games.validate_calls", "protocols.switch_calls",
                "dynamics.draw_calls", "sweeps.points", "store.commits",
                "fabric.leases_granted")

_register(["import_s"], "s")
_register([f"exp.{e}_s" for e in EXPERIMENTS], "s")
_register(SELF_TIMES, "s")
_register(CALL_COUNTS, "count")
_register(COUNTERS, "count")
_register(["sweeps.point_s", "queue.wait_s", "worker.compute_s",
           "worker.idle_s"], "s")
_register(["sweeps.worker_busy_ratio", "fabric.useful_lease_ratio"], "ratio")
_register([f"http.{route}_ms" for route in HTTP_ROUTES], "ms")
_register(["http.requests", "http.failed", "fabric.leases_granted",
           "fabric.completions_rejected"], "count")
_register(["trace.wall_s", "trace.unattributed_s", "trace.overhead_s"], "s")
_register(["trace.coverage"], "ratio")


def load_spans(directory: str) -> list[dict]:
    """Every span file a traced run left in ``directory``."""
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text())["spans"])
    return spans


def _inside(span, windows) -> bool:
    return any(start <= span["start"] and span["end"] <= end
               for start, end in windows)


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(pid, id)``: its duration minus
    the part of it that the spans linked to it as children cover."""
    children: dict[tuple, list[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"]))
    selfs = {}
    for span in spans:
        key = (span["pid"], span["id"])
        covered = _union_length(
            [(max(start, span["start"]), min(end, span["end"]))
             for start, end in children[key]])
        selfs[key] = span["end"] - span["start"] - covered
    return selfs


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def analyze(spans: list[dict], *, main_pid: int, workers: int) -> dict:
    """Per-layer metrics of one traced run.

    The measured windows are the main process's ``setup`` and ``pass`` root
    spans; spans of the daemon, remote workers and pool children count when
    they lie inside one of them (warm-up traffic between them does not).
    """
    roots = {span["name"]: span for span in spans
             if span["pid"] == main_pid and span["parent"] is None
             and span["name"] in ("setup", "pass")}
    windows = [(span["start"], span["end"]) for span in roots.values()]
    kept = [span for span in spans if _inside(span, windows)]
    selfs = self_times(kept)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in kept:
        by_name[span["name"]].append(span)

    def duration(span):
        return span["end"] - span["start"]

    metrics: dict[str, float] = {}
    for metric, name in SELF_TIMES.items():
        metrics[metric] = sum(selfs[(s["pid"], s["id"])] for s in by_name[name])
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = len(by_name[name])
    counters: dict[str, int] = defaultdict(int)
    for span in kept:
        if span["parent"] is None:
            for key, value in span["attrs"].get("counts", {}).items():
                counters[key] += value
    for name in COUNTERS:
        metrics[name] = counters[name]
    for experiment in EXPERIMENTS:
        metrics[f"exp.{experiment}_s"] = sum(
            duration(s) for s in by_name[f"exp.{experiment}"])

    points = by_name["sweeps.point"]
    metrics["sweeps.point_s"] = sum(duration(s) for s in points)
    capacity = sum(duration(s) * s["attrs"].get("workers", 1)
                   for s in by_name["sweeps.run"] if s["role"] == "main")
    local_points = sum(duration(s) for s in points if s["role"] == "main")
    metrics["sweeps.worker_busy_ratio"] = (local_points / capacity
                                           if capacity else 0.0)

    http = [s for s in kept if s["name"].startswith("http.")]
    for route in HTTP_ROUTES:
        times = [duration(s) * 1000.0 for s in by_name[f"http.{route}"]]
        metrics[f"http.{route}_ms"] = statistics.median(times) if times else 0.0
    metrics["http.requests"] = len(http)
    metrics["http.failed"] = sum(1 for s in http if "error" in s["attrs"])

    activated = {s["attrs"].get("job_id"): s["end"]
                 for s in by_name["board.activate"]}
    granted = [s for s in by_name["board.lease"] if s["attrs"].get("granted")]
    metrics["queue.wait_s"] = sum(
        s["end"] - activated[s["attrs"]["job_id"]] for s in granted
        if s["attrs"].get("job_id") in activated)
    metrics["fabric.leases_granted"] = len(granted)
    polls = len(by_name["board.lease"])
    metrics["fabric.useful_lease_ratio"] = len(granted) / polls if polls else 0.0
    metrics["fabric.completions_rejected"] = sum(
        1 for s in by_name["board.complete"] if "error" in s["attrs"])

    jobs = [s for s in by_name["phase.job"] if s["pid"] == main_pid]
    job_windows = [(s["start"], s["end"]) for s in jobs]
    compute = sum(duration(s) for s in points
                  if s["role"] == "worker" and _inside(s, job_windows))
    metrics["worker.compute_s"] = compute
    metrics["worker.idle_s"] = (sum(duration(s) for s in jobs) * workers
                                - compute) if jobs else 0.0

    # Coverage: on the thread that ran the pass, every instant of the pass
    # lies in exactly one span's self time when the spans nest properly, so
    # the self times add up to the pass.  Spans that overlap without
    # nesting, stick out of their parent or link to a parent the record
    # lacks count some instants twice and push the sum above the pass.
    root = roots["pass"]
    on_thread = [s for s in kept if s["pid"] == main_pid
                 and s["tid"] == root["tid"] and root["start"] <= s["start"]]
    wall = duration(root)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = selfs[(main_pid, root["id"])]
    metrics["trace.coverage"] = (sum(selfs[(s["pid"], s["id"])]
                                     for s in on_thread) / wall
                                 if wall else 0.0)
    return metrics


#: The traced pass passes its coverage check when its self times add up to
#: its wall time within this share, and at most this share of it lies
#: outside every span (a phase or a layer left unwrapped).
COVERAGE_TOLERANCE = 0.01
MAX_UNATTRIBUTED_SHARE = 0.05


def coverage_failures(metrics: dict) -> list[str]:
    """Why the coverage check of :func:`analyze`'s metrics fails, if it does."""
    failures = []
    wall = metrics["trace.wall_s"]
    if abs(metrics["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        failures.append(f"self times add up to {metrics['trace.coverage']:.4f} "
                        f"of the traced pass")
    if wall <= 0 or metrics["trace.unattributed_s"] > MAX_UNATTRIBUTED_SHARE * wall:
        failures.append(f"{metrics['trace.unattributed_s']:.4f} s of the "
                        f"{wall:.4f} s traced pass lies in no span")
    return failures
