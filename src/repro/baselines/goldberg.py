"""Goldberg-style randomized sequential local search.

Goldberg (PODC 2004) analyses a protocol for parallel-links load balancing in
which, in every step, a randomly selected player samples a resource uniformly
at random and migrates if that strictly improves its latency; the expected
time to reach a Nash equilibrium is pseudopolynomial.  We implement the
natural generalisation to arbitrary symmetric games (the sampled object is a
strategy) as a *sequential, uniform-sampling* comparator for the concurrent,
proportional-sampling IMITATION PROTOCOL.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConvergenceError
from ..games.base import CongestionGame
from ..games.nash import is_nash
from ..games.state import GameState, StateLike
from ..rng import RngLike, ensure_rng
from .best_response import BaselineResult

__all__ = ["run_goldberg_baseline"]


def run_goldberg_baseline(
    game: CongestionGame,
    initial_state: Optional[StateLike] = None,
    *,
    max_steps: int = 1_000_000,
    min_gain: float = 0.0,
    check_every: int = 64,
    rng: RngLike = None,
    strict: bool = False,
) -> BaselineResult:
    """Randomized sequential local search.

    Every step: pick a player uniformly at random (equivalently an occupied
    origin strategy with probability proportional to its count), pick a
    destination strategy uniformly at random, migrate if the latency gain
    exceeds ``min_gain``.  Nash equilibrium is checked every ``check_every``
    steps (a full check per step would dominate the running time).

    Returns the number of *elementary steps* (including the unsuccessful
    ones), which is the quantity Goldberg's analysis bounds.
    """
    if initial_state is None:
        initial_state = game.uniform_random_state(rng)
    counts = game.validate_state(initial_state).copy()
    gen = ensure_rng(rng)
    num_strategies = game.num_strategies

    for step_index in range(max_steps):
        if step_index % check_every == 0 and is_nash(game, counts, tolerance=min_gain):
            return BaselineResult(GameState(counts), step_index, True)
        # Origin strategy of the sampled player: proportional to counts.
        origin = int(gen.choice(num_strategies, p=counts / counts.sum()))
        destination = int(gen.integers(0, num_strategies))
        if destination == origin:
            continue
        latencies, post = game.migration_latencies(counts)
        gain = float(latencies[origin] - post[origin, destination])
        if gain > min_gain:
            counts[origin] -= 1
            counts[destination] += 1
    if is_nash(game, counts, tolerance=min_gain):
        return BaselineResult(GameState(counts), max_steps, True)
    if strict:
        raise ConvergenceError(f"Goldberg dynamics did not stop within {max_steps} steps")
    return BaselineResult(GameState(counts), max_steps, False)
