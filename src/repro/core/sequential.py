"""Sequential (one-move-per-round) dynamics.

Section 3.2 of the paper contrasts the concurrent protocol with *sequential
imitation dynamics*: in every step a single player is allowed to adopt the
strategy of some other player, and it does so whenever that is an
improvement, regardless of the size of the gain.  Theorem 6 shows that such
sequences can be exponentially long on the lifted quadratic threshold games.

This module provides sequential engines for both game representations:

* :func:`run_sequential_imitation_symmetric` for symmetric
  :class:`~repro.games.base.CongestionGame` states (count vectors), used as
  a baseline in the experiments, and
* :func:`run_sequential_imitation_asymmetric` for
  :class:`~repro.games.asymmetric.AsymmetricCongestionGame` profiles, which
  restricts imitation to players with identical strategy spaces — the setting
  of the Theorem 6 construction.

Both support three pivot rules: ``"max-gain"`` (largest improvement),
``"min-gain"`` (smallest improvement — the adversarial scheduler that makes
sequences long), and ``"random"`` (uniform over improving moves).

The inner move loop is inherently serial (each move conditions on the state
all previous moves produced), so parallelism comes from *replicas*:
:func:`run_sequential_ensemble` fans independent trajectories — different
start profiles and/or different random pivots — across the sweep
scheduler's worker pool, with per-replica seed sequences spawned up front
so the results are independent of the worker count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError
from ..games.asymmetric import AsymmetricCongestionGame
from ..games.base import CongestionGame
from ..games.state import GameState, StateLike
from ..rng import RngLike, ensure_rng, spawn_seed_sequences

__all__ = [
    "SequentialResult",
    "SequentialEnsembleResult",
    "run_sequential_imitation_symmetric",
    "run_sequential_imitation_asymmetric",
    "run_sequential_ensemble",
]

logger = logging.getLogger(__name__)

_PIVOTS = ("max-gain", "min-gain", "random")


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential dynamics run.

    Attributes
    ----------
    final:
        Final state (a :class:`GameState` for symmetric games, a profile
        array for asymmetric ones).
    steps:
        Number of single-player moves executed.
    converged:
        True if the run stopped because no improving move remained.
    potentials:
        Potential after every step (including the initial state), recorded
        when requested.
    """

    final: object
    steps: int
    converged: bool
    potentials: Optional[list[float]] = None


def _select(gains: Sequence[float], pivot: str, rng: np.random.Generator) -> int:
    if pivot == "max-gain":
        return int(np.argmax(gains))
    if pivot == "min-gain":
        return int(np.argmin(gains))
    if pivot == "random":
        return int(rng.integers(0, len(gains)))
    raise ValueError(f"unknown pivot rule {pivot!r}; expected one of {_PIVOTS}")


def run_sequential_imitation_symmetric(
    game: CongestionGame,
    state: StateLike,
    *,
    max_steps: int = 1_000_000,
    pivot: str = "max-gain",
    min_gain: float = 0.0,
    rng: RngLike = None,
    record_potential: bool = False,
    strict: bool = False,
) -> SequentialResult:
    """Sequential imitation on a symmetric game.

    In every step one player switches to a *currently used* strategy if that
    strictly improves its latency by more than ``min_gain``.  The run stops
    when no such move exists (an imitation-stable state for threshold
    ``min_gain``).
    """
    counts = game.validate_state(state).copy()
    gen = ensure_rng(rng)
    potentials = [game.potential(counts)] if record_potential else None

    for step_index in range(max_steps):
        latencies, post = game.migration_latencies(counts)
        gains = latencies[:, np.newaxis] - post
        occupied = counts > 0
        eligible = occupied[:, np.newaxis] & occupied[np.newaxis, :]
        np.fill_diagonal(eligible, False)
        eligible &= gains > min_gain
        moves = np.argwhere(eligible)
        if moves.size == 0:
            return SequentialResult(GameState(counts), step_index, True, potentials)
        move_gains = gains[moves[:, 0], moves[:, 1]]
        chosen = _select(move_gains, pivot, gen)
        origin, destination = moves[chosen]
        counts[origin] -= 1
        counts[destination] += 1
        if potentials is not None:
            potentials.append(game.potential(counts))
    if strict:
        raise ConvergenceError(f"sequential imitation did not stop within {max_steps} steps")
    logger.warning(
        "sequential imitation (symmetric) truncated after %d steps without "
        "reaching an imitation-stable state; the returned state is NOT "
        "converged (check SequentialResult.converged)", max_steps,
    )
    return SequentialResult(GameState(counts), max_steps, False, potentials)


def run_sequential_imitation_asymmetric(
    game: AsymmetricCongestionGame,
    profile: Sequence[int],
    *,
    max_steps: int = 1_000_000,
    pivot: str = "min-gain",
    min_gain: float = 0.0,
    rng: RngLike = None,
    record_potential: bool = False,
    strict: bool = False,
) -> SequentialResult:
    """Sequential imitation on an asymmetric game (Theorem 6 setting).

    Players may only copy players with an identical strategy space.  The
    default pivot is ``"min-gain"``: always scheduling the smallest available
    improvement is the adversarial choice under which the lower-bound
    instances exhibit their long sequences (any pivot gives a valid
    imitation sequence, so the measured length is a lower bound on the worst
    case).
    """
    current = game.validate_profile(profile).copy()
    gen = ensure_rng(rng)
    potentials = [game.potential(current)] if record_potential else None

    for step_index in range(max_steps):
        moves = game.imitation_moves(current, tolerance=min_gain)
        if not moves:
            return SequentialResult(current, step_index, True, potentials)
        gains = [gain for (_, _, gain) in moves]
        chosen = _select(gains, pivot, gen)
        player, new_strategy, _ = moves[chosen]
        current = game.apply_move(current, player, new_strategy)
        if potentials is not None:
            potentials.append(game.potential(current))
    if strict:
        raise ConvergenceError(f"sequential imitation did not stop within {max_steps} steps")
    logger.warning(
        "sequential imitation (asymmetric) truncated after %d steps without "
        "reaching an imitation-stable state; the returned profile is NOT "
        "converged (check SequentialResult.converged)", max_steps,
    )
    return SequentialResult(current, max_steps, False, potentials)


# ----------------------------------------------------------------------
# Replica-parallel driver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SequentialEnsembleResult:
    """Outcome of a fan-out of independent sequential trajectories.

    Attributes
    ----------
    results:
        One :class:`SequentialResult` per replica, in replica order
        (independent of the worker count that executed them).
    """

    results: list[SequentialResult]

    @property
    def num_replicas(self) -> int:
        """Number of trajectories in the ensemble."""
        return len(self.results)

    @property
    def steps(self) -> np.ndarray:
        """Per-replica move counts, shape ``(R,)``."""
        return np.array([result.steps for result in self.results], dtype=np.int64)

    @property
    def converged(self) -> np.ndarray:
        """Per-replica convergence mask, shape ``(R,)``."""
        return np.array([result.converged for result in self.results], dtype=bool)

    @property
    def num_truncated(self) -> int:
        """Replicas that exhausted their step budget without converging."""
        return int(np.sum(~self.converged))

    def converged_steps(self) -> np.ndarray:
        """Move counts of the converged replicas only (possibly empty)."""
        return self.steps[self.converged]


def _sequential_replica_worker(
    payload: tuple[object, StateLike, dict, np.random.SeedSequence],
) -> SequentialResult:
    """Worker entry point: run one self-contained sequential trajectory.

    The payload carries everything the replica needs (game, start, options,
    its own seed sequence), so the produced result depends only on the
    replica — never on which worker process ran it.
    """
    game, initial, options, seed_sequence = payload
    if isinstance(game, AsymmetricCongestionGame):
        return run_sequential_imitation_asymmetric(game, initial, rng=seed_sequence,
                                                   **options)
    return run_sequential_imitation_symmetric(game, initial, rng=seed_sequence,
                                              **options)


def run_sequential_ensemble(
    game: Union[CongestionGame, AsymmetricCongestionGame],
    initial_states: Sequence[StateLike],
    *,
    pivot: str = "min-gain",
    min_gain: float = 0.0,
    max_steps: int = 1_000_000,
    rng: RngLike = 0,
    workers: int = 1,
    record_potential: bool = False,
    strict: bool = False,
) -> SequentialEnsembleResult:
    """Run ``R`` independent sequential trajectories across a worker pool.

    The inner move loop of a sequential dynamics is serial by definition, so
    this driver parallelises over *replicas*: each entry of
    ``initial_states`` (a profile for asymmetric games, a count vector for
    symmetric ones) becomes one self-contained trajectory.  Per-replica seed
    sequences are spawned from ``rng`` via
    :func:`repro.rng.spawn_seed_sequences` *before* dispatch, and results
    are returned in replica order — the rows are therefore bit-identical
    for any ``workers`` value (the same guarantee the sweep scheduler
    gives sharded grids).
    """
    if pivot not in _PIVOTS:
        raise ValueError(f"unknown pivot rule {pivot!r}; expected one of {_PIVOTS}")
    from ..sweeps.scheduler import parallel_map  # local import, avoids cycle

    options = dict(pivot=pivot, min_gain=min_gain, max_steps=max_steps,
                   record_potential=record_potential, strict=strict)
    sequences = spawn_seed_sequences(rng, len(initial_states))
    payloads = [(game, initial, options, sequence)
                for initial, sequence in zip(initial_states, sequences)]
    results: list[Optional[SequentialResult]] = [None] * len(payloads)
    for index, result in parallel_map(_sequential_replica_worker, payloads,
                                      workers=workers):
        results[index] = result
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:  # parallel_map yields every index exactly once
        raise RuntimeError(f"sequential ensemble lost replica(s) {missing}")
    return SequentialEnsembleResult(results=list(results))  # type: ignore[arg-type]
