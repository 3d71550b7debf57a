"""The batched ensemble engine: R replicas as one vectorized (R, S) system.

Every experiment of the paper is an *ensemble* statement — convergence times,
survival probabilities and the Price of Imitation are all means or tails over
many independent replicas of the same dynamics.  Instead of looping a Python
round engine once per replica, :class:`EnsembleDynamics` advances all live
replicas together:

* the state of the ensemble is an ``(R, S)`` counts matrix
  (:class:`~repro.games.state.BatchGameState`),
* protocols produce an ``(R, S, S)`` stack of switch matrices in one
  broadcasted evaluation (:meth:`~repro.core.protocols.Protocol.switch_probabilities_batch`),
* the migration step draws **one** stacked multinomial over all occupied
  (replica, origin) rows (:func:`sample_migration_matrices`) — this is still
  the *exact* finite-population simulation, because players revise
  independently across replicas as well as within them,
* replicas that hit their stop condition or become quiescent are retired
  from the active set, so a finished replica costs nothing while its slower
  siblings keep running.

Reproducibility: the ensemble consumes a *single* generator in (replica,
origin) row order, so for ``R = 1`` it consumes the stream exactly like
:class:`~repro.core.dynamics.ConcurrentDynamics`.  For ``R > 1`` the stream
interleaves replicas round by round and therefore differs from ``R``
sequential runs of the loop engine — both are reproducible from their seed,
but they are *different* random processes sample-path-wise (see
``docs/ENGINE.md`` and :mod:`repro.rng`).

When pathwise loop/batch equality *is* required (the engine-parity tests of
the ported experiments), :meth:`EnsembleDynamics.run` accepts
``rng_streams`` — one generator per replica.  Each replica then draws its
migrations from its own stream, exactly as ``R`` independent
:class:`~repro.core.dynamics.ConcurrentDynamics` runs on the same
generators would, so the two engines produce bit-identical trajectories
while the protocol evaluation stays batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ConvergenceError, MetricError
from ..games.base import CongestionGame
from ..games.state import BatchGameState, BatchStateLike, GameState
from ..rng import RngLike, ensure_rng
from .dynamics import (
    StopCondition,
    StopReason,
    TrajectoryResult,
    sample_migration_matrices,
    sample_migration_matrix,
)
from .protocols import Protocol, quiescent_mask

#: A batched stopping condition receives ``(game, counts_rs, round_index)``
#: for the *active* replicas and returns a boolean mask of shape ``(R,)``
#: marking the replicas that should stop before executing that round.
BatchStopCondition = Callable[[CongestionGame, np.ndarray, int], np.ndarray]

#: An observer receives ``(game, counts_rs, active_indices, round_index)``
#: after every executed round: ``counts_rs`` is the full ``(R, S)`` matrix and
#: ``active_indices`` the replicas that actually moved this round.
EnsembleObserver = Callable[[CongestionGame, np.ndarray, np.ndarray, int], None]

__all__ = [
    "BatchStopCondition",
    "EnsembleObserver",
    "EnsembleCollector",
    "EnsembleResult",
    "EnsembleDynamics",
    "sample_migration_matrices",
    "simulate_ensemble",
    "batch_stop_from_scalar",
    "batch_stop_at_approx_equilibrium",
    "batch_stop_at_imitation_stable",
    "batch_stop_at_nash",
]


#: Metrics the collector can evaluate with one broadcasted call per round.
_BATCH_METRICS: dict[str, Callable[[CongestionGame, np.ndarray], np.ndarray]] = {
    "potential": lambda game, counts: game.potential_batch(counts),
    "average_latency": lambda game, counts: game.average_latency_batch(counts),
    "average_latency_after_join": lambda game, counts: game.average_latency_after_join_batch(counts),
    "social_cost": lambda game, counts: game.social_cost_batch(counts),
    "total_latency": lambda game, counts: game.total_latency_batch(counts),
    "makespan": lambda game, counts: game.makespan_batch(counts),
    "support_size": lambda game, counts: np.count_nonzero(counts, axis=1).astype(float),
}


class EnsembleCollector:
    """Batched metric traces along an ensemble run.

    Parameters
    ----------
    game:
        The game being simulated.
    metrics:
        Names of the batched metrics to record each round (any of
        ``potential``, ``average_latency``, ``average_latency_after_join``,
        ``social_cost``, ``total_latency``, ``makespan``, ``support_size``).
    every:
        Record every ``every``-th round (round 0 and the final round are
        always recorded by the engine).
    """

    def __init__(
        self,
        game: CongestionGame,
        *,
        metrics: Sequence[str] = ("potential", "average_latency", "support_size"),
        every: int = 1,
    ):
        if every < 1:
            raise ValueError("every must be at least 1")
        unknown = [name for name in metrics if name not in _BATCH_METRICS]
        if unknown:
            raise MetricError(
                f"unknown batched metric(s) {unknown}; "
                f"valid names: {sorted(_BATCH_METRICS)}"
            )
        self.game = game
        self.metrics = tuple(metrics)
        self.every = int(every)
        self._rounds: list[int] = []
        self._values: dict[str, list[np.ndarray]] = {name: [] for name in self.metrics}
        self._migrations: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def should_record(self, round_index: int) -> bool:
        """True if the collector wants a record for this round."""
        return round_index % self.every == 0

    def record(self, round_index: int, counts: np.ndarray,
               migrations: Optional[np.ndarray] = None) -> None:
        """Evaluate and store all configured metrics for the whole batch."""
        self._rounds.append(int(round_index))
        for name in self.metrics:
            self._values[name].append(
                np.asarray(_BATCH_METRICS[name](self.game, counts), dtype=float)
            )
        replicas = counts.shape[0]
        if migrations is None:
            migrations = np.zeros(replicas, dtype=np.int64)
        self._migrations.append(np.asarray(migrations, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def rounds(self) -> list[int]:
        """The recorded round indices."""
        return list(self._rounds)

    def trace(self, name: str) -> np.ndarray:
        """One metric as a ``(T, R)`` array over the recorded rounds."""
        if name == "migrations":
            return np.stack(self._migrations).astype(float)
        if name not in self._values:
            raise MetricError(
                f"metric {name!r} was not recorded; "
                f"recorded: {sorted(self._values)} + ['migrations']"
            )
        return np.stack(self._values[name])

    def traces(self) -> dict[str, np.ndarray]:
        """All recorded metrics as ``(T, R)`` arrays (plus ``migrations``)."""
        result = {name: self.trace(name) for name in self.metrics}
        result["migrations"] = self.trace("migrations")
        return result

    def __len__(self) -> int:
        return len(self._rounds)


@dataclass
class EnsembleResult:
    """Outcome of a batched ensemble run.

    Attributes
    ----------
    final_states:
        ``(R, S)`` batch of final states (replica ``r``'s state after its
        last executed round; retired replicas keep the state they stopped in).
    rounds:
        Per-replica number of executed rounds, shape ``(R,)``.
    stop_reasons:
        Why each replica ended.
    total_migrations:
        Per-replica total number of player moves, shape ``(R,)``.
    trace_rounds:
        Round indices of the recorded metric traces (empty without a
        collector).
    traces:
        Mapping from metric name to a ``(T, R)`` trace array.
    """

    final_states: BatchGameState
    rounds: np.ndarray
    stop_reasons: list[StopReason]
    total_migrations: np.ndarray
    trace_rounds: list[int] = field(default_factory=list)
    traces: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_replicas(self) -> int:
        """Number of replicas in the ensemble."""
        return self.final_states.num_replicas

    @property
    def converged(self) -> np.ndarray:
        """Per-replica convergence mask (True unless the budget ran out)."""
        return np.array([reason is not StopReason.MAX_ROUNDS
                         for reason in self.stop_reasons])

    def metric(self, name: str) -> np.ndarray:
        """One recorded metric trace as a ``(T, R)`` array."""
        if name not in self.traces:
            raise MetricError(
                f"metric {name!r} was not recorded for this ensemble; "
                f"recorded: {sorted(self.traces)}"
            )
        return self.traces[name]

    def replica(self, index: int) -> TrajectoryResult:
        """A single replica's outcome as a :class:`TrajectoryResult`.

        The thin compatibility bridge for callers written against the
        single-trajectory API; metric records are not reconstructed (the
        batched traces hold the same information in ``(T, R)`` form).
        """
        return TrajectoryResult(
            final_state=self.final_states.replica(index),
            rounds=int(self.rounds[index]),
            stop_reason=self.stop_reasons[index],
            records=[],
            total_migrations=int(self.total_migrations[index]),
        )


# ----------------------------------------------------------------------
# Batched stop conditions
# ----------------------------------------------------------------------

def batch_stop_from_scalar(condition: StopCondition) -> BatchStopCondition:
    """Adapt a scalar stop condition to the batched interface (row loop).

    Use only for conditions without a vectorised form — the built-in stops
    below evaluate the whole batch with broadcasted latency calls.
    """

    def batched(game: CongestionGame, counts: np.ndarray, round_index: int) -> np.ndarray:
        return np.array([bool(condition(game, row, round_index)) for row in counts])

    return batched


def batch_stop_at_approx_equilibrium(delta: float, epsilon: float,
                                     nu: Optional[float] = None) -> BatchStopCondition:
    """Batched Definition 1: per-replica (delta, eps, nu)-equilibrium test."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")

    def batched(game: CongestionGame, counts: np.ndarray, round_index: int) -> np.ndarray:
        bound = game.nu_bound if nu is None else nu
        latencies = game.strategy_latencies_batch(counts)  # (R, S)
        average = game.average_latency_batch(counts)  # (R,)
        average_plus = game.average_latency_after_join_batch(counts)  # (R,)
        expensive = latencies > (1.0 + epsilon) * average_plus[:, np.newaxis] + bound
        cheap = latencies < (1.0 - epsilon) * average[:, np.newaxis] - bound
        deviating = expensive | cheap
        unsatisfied = np.where(deviating, counts, 0).sum(axis=1) / game.num_players
        return unsatisfied <= delta

    # The native backend fuses this test into its round kernel instead of
    # calling back into Python (see repro.core.native.lower_stop_condition).
    batched.native_spec = ("approx_equilibrium", delta, epsilon, nu)
    return batched


def batch_stop_at_imitation_stable(nu: Optional[float] = None) -> BatchStopCondition:
    """Batched imitation stability: no player of a replica can gain more than
    ``nu`` by copying a currently used strategy."""

    def batched(game: CongestionGame, counts: np.ndarray, round_index: int) -> np.ndarray:
        bound = game.nu_bound if nu is None else nu
        latencies, post = game.migration_latencies_batch(counts)
        gains = latencies[:, :, np.newaxis] - post  # (R, S, S)
        occupied = counts > 0
        mask = occupied[:, :, np.newaxis] & occupied[:, np.newaxis, :]
        diag = np.arange(counts.shape[1])
        mask[:, diag, diag] = False
        best_gain = np.where(mask, gains, -np.inf).max(axis=(1, 2))
        best_gain = np.maximum(np.where(np.isfinite(best_gain), best_gain, 0.0), 0.0)
        return best_gain <= bound

    batched.native_spec = ("imitation_stable", nu)
    return batched


def batch_stop_at_nash(tolerance: float = 1e-9) -> BatchStopCondition:
    """Batched Nash test: no occupied origin of a replica has a strictly
    improving destination (up to ``tolerance``)."""

    def batched(game: CongestionGame, counts: np.ndarray, round_index: int) -> np.ndarray:
        latencies, post = game.migration_latencies_batch(counts)
        gains = latencies[:, :, np.newaxis] - post  # (R, S, S)
        diag = np.arange(counts.shape[1])
        gains[:, diag, diag] = -np.inf
        occupied = counts > 0
        best_gain = np.where(occupied[:, :, np.newaxis], gains, -np.inf).max(axis=(1, 2))
        return ~(best_gain > tolerance)

    batched.native_spec = ("nash", tolerance)
    return batched


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class EnsembleDynamics:
    """Concurrent dynamics of ``R`` independent replicas, advanced together.

    Parameters
    ----------
    game, protocol:
        The congestion game and the revision protocol (shared by all
        replicas — the replicas differ only in their states and randomness).
    rng:
        Seed or generator for **all** randomness of the ensemble.
    """

    def __init__(self, game: CongestionGame, protocol: Protocol, *, rng: RngLike = None):
        if not protocol.supports_game(game):
            raise ConvergenceError(
                f"protocol {protocol.describe()} does not support game {game.name}"
            )
        self.game = game
        self.protocol = protocol
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def run(
        self,
        initial_states: Optional[BatchStateLike] = None,
        *,
        replicas: Optional[int] = None,
        max_rounds: int = 10_000,
        stop_condition: Optional[BatchStopCondition] = None,
        stop_when_quiescent: bool = True,
        collector: Optional[EnsembleCollector] = None,
        observer: Optional[EnsembleObserver] = None,
        strict: bool = False,
        rng_streams: Optional[Sequence[np.random.Generator]] = None,
        backend: str = "batch",
        dtype: str = "float64",
        trace=None,
    ) -> EnsembleResult:
        """Advance all live replicas round by round.

        Parameters
        ----------
        initial_states:
            ``(R, S)`` batch of initial states.  ``None`` draws ``replicas``
            independent uniform-random initialisations from the engine's
            generator (the paper's random start).
        replicas:
            Number of replicas when ``initial_states`` is ``None``.
        max_rounds:
            Hard per-replica budget on the number of rounds.
        stop_condition:
            Optional batched predicate evaluated on the active replicas
            before each round (and before round 0, so an initially satisfied
            replica retires with ``rounds = 0``).  Use
            :func:`batch_stop_from_scalar` to lift a scalar condition.
        stop_when_quiescent:
            Retire replicas in which no occupied strategy has a positive
            switch probability (the dynamics can never move again there).
        collector:
            Optional :class:`EnsembleCollector` for batched metric traces.
        observer:
            Optional callback invoked after every executed round with
            ``(game, counts_rs, active_indices, round_index)`` — the hook the
            survival analysis uses to watch per-round congestions without
            slowing down runs that don't need it.
        strict:
            Raise :class:`ConvergenceError` if any replica exhausts the
            budget without meeting a stop condition.
        rng_streams:
            One generator per replica.  Each replica draws its migrations
            exclusively from its own stream (retiring a replica does not
            shift the draws its siblings see), so a replica's trajectory is
            bit-identical to a :class:`~repro.core.dynamics.ConcurrentDynamics`
            run on the same generator — the parity mode used by the ported
            experiments' ``engine="loop"``/``engine="batch"`` contract.
            Requires explicit ``initial_states``; the engine's own ``rng``
            is not consumed.  Without it the ensemble draws one stacked
            multinomial per round from its single generator (the fast
            default).
        backend:
            ``"batch"`` (this engine, the default) or ``"native"`` — the
            fused round kernel of :mod:`repro.core.native` (numba-JIT when
            available, vectorised numpy otherwise).  The native backend is
            deterministic from its seed but draws through a different
            decomposition of the multinomial, so it matches this engine in
            distribution and on all deterministic quantities, not
            bit-for-bit (docs/ENGINE.md).
        dtype:
            Accumulation precision of the native backend's buffers
            (``"float64"`` default, ``"float32"`` opt-in); the batch
            backend always computes in float64.
        trace:
            Optional :class:`repro.telemetry.RoundTracer`.  When given, the
            engine emits one JSONL event per round (migrations, potential /
            social-cost means and deltas, live-replica count, wall time)
            bracketed by ``run_started``/``run_finished``.  The tracer
            consumes no randomness, so a traced run's final states are
            bit-identical to the untraced run; the native backend reports
            coarsely at kernel-chunk boundaries instead of per round so the
            hot loop stays fused (docs/OBSERVABILITY.md).
        """
        from ..errors import EngineError

        if backend not in ("batch", "native"):
            raise EngineError(
                f"unknown ensemble backend {backend!r}; "
                f"valid backends: ['batch', 'native']"
            )
        if backend == "native":
            if rng_streams is not None:
                raise EngineError(
                    "the native backend draws from a single stream; "
                    "rng_streams is a loop/batch bit-parity feature — use "
                    "backend='batch' for pathwise parity runs"
                )
            from .native import run_native_ensemble  # lazy: ensemble ↔ native

            return run_native_ensemble(
                self.game,
                self.protocol,
                initial_states,
                replicas=replicas,
                max_rounds=max_rounds,
                stop_condition=stop_condition,
                stop_when_quiescent=stop_when_quiescent,
                collector=collector,
                observer=observer,
                strict=strict,
                rng=self.rng,
                dtype=dtype,
                trace=trace,
            )
        if dtype != "float64":
            raise EngineError(
                "dtype='float32' accumulation is a native-backend feature; "
                "pass backend='native' (the batch backend is float64-only)"
            )
        if initial_states is None:
            if rng_streams is not None:
                raise ValueError("rng_streams requires explicit initial_states")
            if replicas is None or replicas <= 0:
                raise ValueError("need replicas > 0 when no initial states are given")
            counts = self.game.uniform_random_batch_state(replicas, self.rng).to_array()
        else:
            counts = self.game.validate_batch_state(initial_states).copy()
            if replicas is not None and replicas != counts.shape[0]:
                raise ValueError(
                    f"initial_states has {counts.shape[0]} replicas, "
                    f"but replicas={replicas} was requested"
                )
        num_replicas = counts.shape[0]
        if rng_streams is not None and len(rng_streams) != num_replicas:
            raise ValueError(
                f"rng_streams has {len(rng_streams)} generators for "
                f"{num_replicas} replicas"
            )

        rounds = np.zeros(num_replicas, dtype=np.int64)
        total_migrations = np.zeros(num_replicas, dtype=np.int64)
        reasons: list[StopReason] = [StopReason.MAX_ROUNDS] * num_replicas
        active = np.ones(num_replicas, dtype=bool)

        if collector is not None:
            collector.record(0, counts)
        if trace is not None:
            trace.run_started(self.game, engine="batch",
                              replicas=num_replicas, max_rounds=max_rounds)

        last_recorded = 0
        for round_index in range(max_rounds):
            if not np.any(active):
                break
            indices = np.nonzero(active)[0]

            if stop_condition is not None:
                stopped = np.asarray(stop_condition(self.game, counts[indices], round_index))
                if np.any(stopped):
                    for replica in indices[stopped]:
                        reasons[replica] = StopReason.STOP_CONDITION
                    active[indices[stopped]] = False
                    indices = indices[~stopped]
                    if indices.size == 0:
                        continue

            matrices = self.protocol.switch_probabilities_batch(self.game, counts[indices])
            if stop_when_quiescent:
                quiet = quiescent_mask(matrices, counts[indices])
                if np.any(quiet):
                    for replica in indices[quiet]:
                        reasons[replica] = StopReason.QUIESCENT
                    active[indices[quiet]] = False
                    indices = indices[~quiet]
                    matrices = matrices[~quiet]
                    if indices.size == 0:
                        continue

            if rng_streams is None:
                migration = sample_migration_matrices(counts[indices], matrices, self.rng)
            else:
                migration = np.stack([
                    sample_migration_matrix(counts[replica], matrices[position],
                                            rng_streams[replica])
                    for position, replica in enumerate(indices)
                ])
            delta = migration.sum(axis=1) - migration.sum(axis=2)
            counts[indices] += delta
            rounds[indices] = round_index + 1
            moves = migration.sum(axis=(1, 2))
            total_migrations[indices] += moves

            if observer is not None:
                observer(self.game, counts, indices, round_index + 1)
            if trace is not None:
                trace.round_completed(self.game, counts, indices,
                                      round_index + 1, int(moves.sum()))
            if collector is not None and collector.should_record(round_index + 1):
                all_moves = np.zeros(num_replicas, dtype=np.int64)
                all_moves[indices] = moves
                collector.record(round_index + 1, counts, migrations=all_moves)
                last_recorded = round_index + 1
        else:
            # Budget exhausted with replicas still live: give the stop
            # condition one final look (mirrors the loop engine).
            indices = np.nonzero(active)[0]
            if indices.size and stop_condition is not None:
                stopped = np.asarray(stop_condition(self.game, counts[indices], max_rounds))
                for replica in indices[stopped]:
                    reasons[replica] = StopReason.STOP_CONDITION
                indices = indices[~stopped]
            if indices.size and strict:
                raise ConvergenceError(
                    f"{indices.size} of {num_replicas} replicas did not stop "
                    f"within {max_rounds} rounds"
                )

        max_executed = int(rounds.max()) if num_replicas else 0
        if collector is not None and last_recorded != max_executed:
            collector.record(max_executed, counts)
        if trace is not None:
            trace.run_finished(
                self.game, counts, None, rounds=max_executed,
                total_migrations=int(total_migrations.sum()),
                converged=all(reason is not StopReason.MAX_ROUNDS
                              for reason in reasons),
            )

        return EnsembleResult(
            final_states=BatchGameState(counts),
            rounds=rounds,
            stop_reasons=reasons,
            total_migrations=total_migrations,
            trace_rounds=collector.rounds if collector is not None else [],
            traces=collector.traces() if collector is not None else {},
        )

    # ------------------------------------------------------------------
    def run_single(
        self,
        initial_state=None,
        *,
        max_rounds: int = 10_000,
        stop_condition: Optional[StopCondition] = None,
        stop_when_quiescent: bool = True,
        strict: bool = False,
    ) -> TrajectoryResult:
        """Single-trajectory convenience wrapper: an ensemble of one.

        With the same seed this consumes the generator exactly like
        :class:`~repro.core.dynamics.ConcurrentDynamics` (the batched
        multinomial visits the same occupied origins in the same order), so
        the two engines are interchangeable for one replica.
        """
        if initial_state is None:
            batch: Optional[BatchStateLike] = None
        elif isinstance(initial_state, GameState):
            batch = initial_state.counts[np.newaxis, :]
        else:
            batch = np.asarray(initial_state)[np.newaxis, :]
        result = self.run(
            batch,
            replicas=1,
            max_rounds=max_rounds,
            stop_condition=(batch_stop_from_scalar(stop_condition)
                            if stop_condition is not None else None),
            stop_when_quiescent=stop_when_quiescent,
            strict=strict,
        )
        return result.replica(0)


def simulate_ensemble(
    game: CongestionGame,
    protocol: Protocol,
    *,
    replicas: int,
    rounds: int = 1_000,
    initial_states: Optional[BatchStateLike] = None,
    rng: RngLike = None,
    collector: Optional[EnsembleCollector] = None,
    stop_condition: Optional[BatchStopCondition] = None,
    backend: str = "batch",
    dtype: str = "float64",
    trace=None,
) -> EnsembleResult:
    """Run ``replicas`` replicas of ``protocol`` on ``game`` for at most
    ``rounds`` rounds each (the batched sibling of :func:`repro.core.run.simulate`)."""
    dynamics = EnsembleDynamics(game, protocol, rng=rng)
    return dynamics.run(
        initial_states,
        replicas=replicas,
        max_rounds=rounds,
        stop_condition=stop_condition,
        collector=collector,
        backend=backend,
        dtype=dtype,
        trace=trace,
    )
