"""Epsilon-greedy sequential better-response dynamics.

Chien and Sinclair study sequential dynamics in which a player only deviates
when its latency decreases by a relative factor of at least ``1 + eps``; with
bounded-jump latency functions these dynamics reach an approximate Nash
equilibrium quickly.  The baseline is included to compare the *number of
moves* needed by a sequential epsilon-greedy process with the *number of
rounds* needed by the concurrent imitation protocol to reach comparable
approximation quality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConvergenceError
from ..games.base import CongestionGame
from ..games.state import GameState, StateLike
from ..rng import RngLike, ensure_rng
from .best_response import BaselineResult

__all__ = ["run_epsilon_greedy_baseline"]


def run_epsilon_greedy_baseline(
    game: CongestionGame,
    epsilon: float,
    initial_state: Optional[StateLike] = None,
    *,
    max_steps: int = 1_000_000,
    pivot: str = "max-gain",
    rng: RngLike = None,
    strict: bool = False,
) -> BaselineResult:
    """Sequential better-response with a relative improvement threshold.

    A move from ``P`` to ``Q`` is admissible when
    ``l_P(x) > (1 + eps) * l_Q(x + 1_Q - 1_P)``.  The dynamics stop when no
    admissible move remains — by construction the resulting state is a
    relative ``(1 + eps)``-approximate Nash equilibrium.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if initial_state is None:
        initial_state = game.uniform_random_state(rng)
    counts = game.validate_state(initial_state).copy()
    gen = ensure_rng(rng)

    for step_index in range(max_steps):
        latencies, post = game.migration_latencies(counts)
        admissible = latencies[:, np.newaxis] > (1.0 + epsilon) * post
        occupied = counts > 0
        admissible &= occupied[:, np.newaxis]
        np.fill_diagonal(admissible, False)
        moves = np.argwhere(admissible)
        if moves.size == 0:
            return BaselineResult(GameState(counts), step_index, True)
        if pivot == "max-gain":
            gains = latencies[moves[:, 0]] - post[moves[:, 0], moves[:, 1]]
            chosen = int(np.argmax(gains))
        elif pivot == "random":
            chosen = int(gen.integers(0, moves.shape[0]))
        else:
            raise ValueError(f"unknown pivot rule {pivot!r}")
        origin, destination = moves[chosen]
        counts[origin] -= 1
        counts[destination] += 1
    if strict:
        raise ConvergenceError(
            f"epsilon-greedy dynamics did not stop within {max_steps} steps"
        )
    return BaselineResult(GameState(counts), max_steps, False)
