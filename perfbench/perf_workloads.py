"""The benchmark's three workloads, run inside a fresh child process.

Each workload has the same life cycle: ``setup()`` (everything a user pays
before the first result: imports are timed by the caller, then game build,
lowering, store open, daemon and workers healthy), ``run_pass()`` (one
fixed amount of work, timed, returning the phase times and a digest of the
outputs), ``check(passes)`` (the output checks) and ``teardown()``.  The
benchmark calls only public entry points of ``repro``; the inputs come from
the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Workload:
    """Common bookkeeping: a record of failed checks."""

    def __init__(self, seed: int, tmp: Path, rec=None):
        self.seed = seed
        self.tmp = tmp
        self.rec = rec
        self.failures: list[str] = []
        self.attempted = 0

    def expect(self, condition: bool, message: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(message)

    def phase(self, name: str):
        """A benchmark span around one phase of the pass (traced runs)."""
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(f"phase.{name}")

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def teardown(self) -> None:
        pass


# ------------------------------------------------------------ paper-quick --

class PaperQuick(Workload):
    """All 15 registered experiments at quick scale, default batch engine.

    The experiments run at their registered seeds, exactly the tables that
    ``repro run-all --quick`` prints: E9's hitting time to Nash (about half
    of a pass) spreads 1.5-9 s over experiment seeds, so a seed-dependent
    suite could not be timed steadily.  The workload seed fixes the order
    in which a pass runs the experiments.

    The warm-up pass leaves out E9 and E10, about 70% of a pass: they run
    the ensemble, protocol and latency code the other experiments warm up,
    and skipping them keeps a run within the time it is allowed.
    """

    name = "paper-quick"
    warmup_skips = ("E9", "E10")

    @staticmethod
    def import_program() -> None:
        import repro.experiments  # noqa: F401

    def setup(self) -> None:
        import repro.experiments as experiments

        self.experiments = experiments
        ids = [spec.experiment_id for spec in experiments.list_experiments()]
        self.order = random.Random(self.seed).sample(ids, len(ids))

    def run_pass(self, warmup: bool = False) -> dict:
        digests = {}
        started = time.perf_counter()
        with self.phase("suite"):
            for experiment_id in self.order:
                if warmup and experiment_id in self.warmup_skips:
                    continue
                result = self.experiments.run_experiment(experiment_id,
                                                         quick=True)
                digests[experiment_id] = digest(result.rows)
        elapsed = time.perf_counter() - started
        return {"pass_s": elapsed, "phases": {"suite_s": elapsed},
                "outputs": digests, "warmup": warmup}

    def check(self, passes: list[dict]) -> None:
        timed = [item for item in passes if not item["warmup"]]
        first = timed[0]["outputs"]
        self.expect(len(first) == 15, f"expected 15 experiments, ran {len(first)}")
        for index, item in enumerate(passes):
            for experiment_id, value in item["outputs"].items():
                self.expect(first.get(experiment_id) == value,
                            f"{experiment_id} rows digest of pass {index} "
                            f"differs from the first timed pass")


# ---------------------------------------------------------- network-large --

class NetworkLarge(Workload):
    """One 100k-player sparse-incidence layered network solved to a
    (0.02, 0.02)-approximate equilibrium by the batch and native engines.

    The network is one fixed instance (structure seed 1): across structure
    seeds the rounds to equilibrium spread about +-15%, which would swamp
    the timing.  The workload seed draws the replicas' random starts and
    the engines' random streams; both engines start from the same states.
    """

    name = "network-large"
    players = 100_000
    replicas = 4
    structure_seed = 1
    delta = epsilon = 0.02
    max_rounds = 5_000

    @staticmethod
    def import_program() -> None:
        import repro.core  # noqa: F401
        import repro.core.native  # noqa: F401
        import repro.games  # noqa: F401

    def setup(self) -> None:
        import numpy as np
        from repro.core import native
        from repro.core import EnsembleDynamics, ImitationProtocol
        from repro.core import batch_stop_at_approx_equilibrium
        from repro.games import layered_random_network_game

        self.np = np
        self.EnsembleDynamics = EnsembleDynamics
        self.stop = batch_stop_at_approx_equilibrium
        self.game = layered_random_network_game(
            self.players, layers=12, width=4, strategy_mode="dag-sample",
            num_paths=128, rng=self.structure_seed, sparse_incidence=True)
        self.protocol = ImitationProtocol()
        native.lower_game(self.game)
        native.lower_protocol(self.protocol, self.game)
        self.starts = self.game.uniform_random_batch_state(
            self.replicas, np.random.default_rng([self.seed, 1])).to_array()

    def solve(self, backend: str, max_rounds: int):
        dynamics = self.EnsembleDynamics(
            self.game, self.protocol,
            rng=self.np.random.default_rng([self.seed, 2]))
        return dynamics.run(self.starts.copy(), max_rounds=max_rounds,
                            stop_condition=self.stop(self.delta, self.epsilon),
                            backend=backend)

    def run_pass(self, warmup: bool = False) -> dict:
        budget = 3 if warmup else self.max_rounds
        phases, outputs = {}, {}
        started = time.perf_counter()
        for backend, phase in (("batch", "solve"), ("native", "native_solve")):
            phase_started = time.perf_counter()
            with self.phase(phase):
                result = self.solve(backend, budget)
            phases[f"{phase}_s"] = time.perf_counter() - phase_started
            outputs[backend] = {
                "replica_rounds": int(result.rounds.sum()),
                "converged": int(result.converged.sum()),
                "final_states": digest(result.final_states.to_array().tolist()),
            }
        return {"pass_s": time.perf_counter() - started, "phases": phases,
                "outputs": outputs, "warmup": warmup}

    def check(self, passes: list[dict]) -> None:
        timed = [item for item in passes if not item["warmup"]]
        for backend in ("batch", "native"):
            for index, item in enumerate(timed):
                out = item["outputs"][backend]
                self.expect(out["converged"] == self.replicas,
                            f"{backend} pass {index}: {out['converged']} of "
                            f"{self.replicas} replicas converged")
                self.expect(out == timed[0]["outputs"][backend],
                            f"{backend} pass {index}: replica rounds or final "
                            f"states differ from pass 0")


# ----------------------------------------------------------- sweep-fabric --

class SweepFabric(Workload):
    """One 128-point grid of cheap points, run three ways each pass:
    ``run_sweep(workers=2)`` into an empty ``dir:`` store, a remote job on
    a ``repro serve`` daemon drained by two ``repro worker`` processes, and
    a closed loop of two client threads reading the finished table.

    A point is one linear singleton game of 8-96 players on 2-12 links,
    one replica, at most 50 rounds: about 3 ms of engine time.  Both
    schedulers run one point per shard, so the cost per point is the
    fabric's: a pool task and a shard commit, or a lease, a complete and a
    commit over HTTP.  The workload seed is the grid's seed (every point's
    random stream).  Each pass names its grid afresh so neither store holds
    it already.
    """

    name = "sweep-fabric"
    workers = 2
    shard_points = 1
    clients = 2
    reads_per_client = 180
    warmup_reads = 20

    @staticmethod
    def import_program() -> None:
        import repro.service  # noqa: F401
        import repro.sweeps  # noqa: F401

    def spec(self, label: str, warmup: bool):
        from repro.sweeps import SweepSpec

        n_values = [8, 12, 16, 24, 32, 48, 64, 96]
        return SweepSpec(
            name=f"perfbench-{label}",
            game="linear-singleton",
            protocol="imitation",
            measure="approx_equilibrium_time",
            axes={"n": n_values[:1] if warmup else n_values,
                  "epsilon": [0.3, 0.1],
                  "links": [2, 3, 4, 5, 6, 8, 10, 12]},
            base={"delta": 0.1},
            replicas=1,
            max_rounds=50,
            seed=self.seed,
        )

    def setup(self) -> None:
        from repro.service import ServiceClient
        from repro.sweeps import SweepStore, run_sweep

        self.SweepStore = SweepStore
        self.run_sweep = run_sweep
        self.passes_run = 0
        self.processes: list[subprocess.Popen] = []
        self.peaks: dict[int, float] = {}
        # Stores are private to this process: runs of one benchmark command
        # share ``tmp`` (where the span files meet) but never a store.
        self.stores = self.tmp / f"stores-{os.getpid()}"
        SweepStore(str(self.stores / "sweep-0"))
        env = dict(os.environ)
        env["PERFBENCH_TMP"] = str(self.tmp)
        traced = ["--trace"] if self.rec is not None else []
        daemon = self._spawn(["serve", "--store", str(self.stores / "daemon"),
                              "--shard-points", str(self.shard_points), *traced],
                             env, "daemon")
        self.url = self._ready(daemon)
        workers = [self._spawn(["worker", "--connect", self.url,
                                "--worker-id", f"w{i}", *traced], env, f"worker{i}")
                   for i in range(self.workers)]
        for process in workers:
            self._ready(process)
        self.client = ServiceClient(self.url, timeout=60.0)
        self.client.healthz()

    def _spawn(self, args, env, label) -> subprocess.Popen:
        log = open(self.tmp / f"{label}-{os.getpid()}.log", "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, str(HERE / "perf_fabric_entry.py"), *args],
                env=env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, text=True)
        finally:
            log.close()
        self.processes.append(process)
        return process

    @staticmethod
    def _ready(process: subprocess.Popen) -> str:
        for line in process.stdout:
            if line.startswith("PERFBENCH_READY"):
                return line.split()[1]
        raise RuntimeError(f"fabric process {process.args[2]} did not start "
                           f"(exit {process.wait()})")

    def run_pass(self, warmup: bool = False) -> dict:
        self.passes_run += 1
        label = f"{self.seed}-{self.passes_run}"
        spec = self.spec(label, warmup)
        phases = {}
        started = time.perf_counter()
        with self.phase("sweep"):
            sweep = self.run_sweep(
                spec, workers=self.workers, chunk_size=self.shard_points,
                store=self.SweepStore(str(self.stores / f"sweep-{label}")))
        phases["sweep_s"] = time.perf_counter() - started
        expected = [json.dumps(row) for row in sweep.rows]

        job_started = time.perf_counter()
        with self.phase("job"):
            response = self.client.submit(spec=spec, mode="remote")
            job = self.client.wait(response["job"]["job_id"], timeout=120,
                                   poll=0.02)
            lines = list(self.client.iter_row_lines(response["spec_hash"]))
        phases["job_s"] = time.perf_counter() - job_started
        self.expect(job["state"] == "done", f"job {label} ended {job['state']}")
        self.expect(lines == expected,
                    f"job {label}: fetched rows differ from the run_sweep table")
        self.expect(sweep.computed == spec.num_points,
                    f"run_sweep {label} computed {sweep.computed} of "
                    f"{spec.num_points} points")

        reads = self.warmup_reads if warmup else self.reads_per_client
        reads_started = time.perf_counter()
        with self.phase("reads"):
            latencies = self._read_loop(spec, response["spec_hash"],
                                        job["job_id"], expected, reads)
        reads_s = time.perf_counter() - reads_started
        phases["reads_s"] = reads_s
        return {"pass_s": time.perf_counter() - started, "phases": phases,
                "outputs": digest(expected), "latencies_ms": latencies,
                "requests": len(latencies), "reads_s": reads_s,
                "warmup": warmup}

    def _read_loop(self, spec, spec_hash, job_id, expected, reads) -> list[float]:
        """Closed loop: each client sends its next request when the last
        one returns, cycling rows, aggregate, cached submit, job status."""
        latencies: list[list[float]] = [[] for _ in range(self.clients)]
        failures: list[list[str]] = [[] for _ in range(self.clients)]

        def client_loop(slot: int) -> None:
            requests = [
                lambda: list(self.client.iter_row_lines(spec_hash)) == expected,
                lambda: bool(self.client.aggregate(spec_hash, by=["n"])),
                lambda: self.client.submit(spec=spec, mode="remote")["cached"],
                lambda: self.client.job(job_id)["state"] == "done",
            ]
            for index in range(reads):
                request = requests[(index + slot) % len(requests)]
                sent = time.perf_counter()
                try:
                    ok, problem = request(), "wrong answer"
                except Exception as error:  # counted as a failed request
                    ok, problem = False, f"{type(error).__name__}: {error}"
                latencies[slot].append((time.perf_counter() - sent) * 1000.0)
                if not ok:
                    failures[slot].append(f"client {slot} read {index}: {problem}")

        threads = [threading.Thread(target=client_loop, args=(slot,))
                   for slot in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.attempted += sum(len(items) for items in latencies)
        for items in failures:
            self.failures.extend(items)
        return [value for items in latencies for value in items]

    def check(self, passes: list[dict]) -> None:
        text = self.client.metrics_text()
        bad = 0
        for line in text.splitlines():
            if line.startswith("repro_http_requests_total{") and 'status="2' not in line:
                bad += int(float(line.rsplit(" ", 1)[1]))
        self.expect(bad == 0, f"{bad} non-2xx responses from the daemon")
        timed = [item for item in passes if not item["warmup"]]
        self.expect(all(item["outputs"] == timed[0]["outputs"] for item in timed),
                    "run_sweep tables differ between passes")

    def peak_rss_mb(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        for process in self.processes:
            if process.poll() is None:
                self.peaks[process.pid] = proc_peak_rss_mb(process.pid)
        return own_peak_rss_mb() + children + sum(self.peaks.values())

    def teardown(self) -> None:
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


WORKLOADS = {cls.name: cls for cls in (PaperQuick, NetworkLarge, SweepFabric)}
