"""Nash equilibria and best-response machinery for symmetric games.

Rosenthal's theorem states that every congestion game possesses a pure Nash
equilibrium and that the set of Nash equilibria of a symmetric game is the
set of local minima of the potential ``Phi``.  This module provides

* equilibrium predicates (:func:`is_nash`, :func:`is_epsilon_nash`),
* sequential best-response dynamics (:func:`best_response_step`,
  :func:`run_best_response`) used both as a baseline and to compute exact
  equilibria,
* exhaustive state enumeration for small games
  (:func:`enumerate_states`), and
* :func:`best_response_potential_minimum`, the ``Phi*`` estimate needed by
  the Theorem 7 bound ``O(d/(eps^2 delta) log(Phi(x0)/Phi*))``.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from ..errors import ConvergenceError
from ..rng import RngLike, ensure_rng
from .base import CongestionGame
from .state import GameState, StateLike, as_counts

__all__ = [
    "is_nash",
    "is_epsilon_nash",
    "best_response_step",
    "run_best_response",
    "enumerate_states",
    "count_states",
    "exhaustive_minimum_potential",
    "best_response_potential_minimum",
    "compute_nash_equilibrium",
]


def _improvement_matrix(game: CongestionGame, counts: np.ndarray) -> np.ndarray:
    """Gain matrix ``G[P, Q] = l_P(x) - l_Q(x + 1_Q - 1_P)`` for occupied P."""
    latencies, post = game.migration_latencies(counts)
    return latencies[:, np.newaxis] - post


def is_nash(game: CongestionGame, state: StateLike, *, tolerance: float = 1e-9) -> bool:
    """True if no player can strictly decrease its latency by more than
    ``tolerance`` through a unilateral strategy change."""
    counts = game.validate_state(state)
    gains = _improvement_matrix(game, counts)
    occupied = counts > 0
    if not np.any(occupied):
        return True
    return float(np.max(gains[occupied])) <= tolerance


def is_epsilon_nash(game: CongestionGame, state: StateLike, epsilon: float) -> bool:
    """True if no player can improve its latency by more than ``epsilon``
    (additive) with a unilateral deviation."""
    return is_nash(game, state, tolerance=epsilon)


def best_response_step(
    game: CongestionGame,
    state: StateLike,
    *,
    tolerance: float = 1e-9,
    pivot: str = "max-gain",
    rng: RngLike = None,
) -> Optional[GameState]:
    """Perform one sequential best-response move.

    Returns the successor state, or ``None`` if the state is a Nash
    equilibrium (up to ``tolerance``).

    Parameters
    ----------
    pivot:
        ``"max-gain"`` moves the player with the largest available gain (a
        deterministic, fast-converging rule); ``"random"`` picks a uniformly
        random improving (origin, destination) pair, mimicking a random
        better-response scheduler.
    """
    counts = game.validate_state(state)
    latencies, post = game.migration_latencies(counts)
    occupied = counts > 0
    gains = np.where(occupied[:, np.newaxis], latencies[:, np.newaxis] - post,
                     -np.inf)
    if float(np.max(gains)) <= tolerance:
        return None

    if pivot == "max-gain":
        origin, destination = np.unravel_index(int(np.argmax(gains)), gains.shape)
    elif pivot == "random":
        gen = ensure_rng(rng)
        improving = np.argwhere(gains > tolerance)
        origin, destination = improving[gen.integers(0, improving.shape[0])]
    else:
        raise ValueError(f"unknown pivot rule {pivot!r}")

    # For the chosen origin, a *best* response moves to the destination with
    # the smallest post-migration latency (ties broken by index).
    if pivot == "max-gain":
        destination = int(np.argmin(post[origin]))
    new_counts = counts.copy()
    new_counts[origin] -= 1
    new_counts[destination] += 1
    return GameState(new_counts)


def run_best_response(
    game: CongestionGame,
    state: StateLike,
    *,
    max_steps: int = 1_000_000,
    tolerance: float = 1e-9,
    pivot: str = "max-gain",
    rng: RngLike = None,
    strict: bool = False,
) -> tuple[GameState, int]:
    """Run sequential best-response dynamics until a Nash equilibrium.

    Returns ``(final_state, steps_taken)``.  If the step budget is exhausted
    the current state is returned (or :class:`ConvergenceError` is raised
    when ``strict`` is True).
    """
    current = GameState(game.validate_state(state))
    gen = ensure_rng(rng)
    for step in range(max_steps):
        successor = best_response_step(game, current, tolerance=tolerance,
                                       pivot=pivot, rng=gen)
        if successor is None:
            return current, step
        current = successor
    if strict:
        raise ConvergenceError(
            f"best response did not converge within {max_steps} steps"
        )
    return current, max_steps


# ----------------------------------------------------------------------
# Exhaustive enumeration (small games)
# ----------------------------------------------------------------------

def count_states(num_players: int, num_strategies: int) -> int:
    """Number of states ``C(n + S - 1, S - 1)`` (compositions of n into S parts)."""
    return math.comb(num_players + num_strategies - 1, num_strategies - 1)


def enumerate_states(num_players: int, num_strategies: int) -> Iterator[np.ndarray]:
    """Yield every count vector with ``num_strategies`` entries summing to
    ``num_players`` (weak compositions, lexicographic order)."""
    counts = np.zeros(num_strategies, dtype=np.int64)

    def recurse(position: int, remaining: int) -> Iterator[np.ndarray]:
        if position == num_strategies - 1:
            counts[position] = remaining
            yield counts.copy()
            return
        for value in range(remaining + 1):
            counts[position] = value
            yield from recurse(position + 1, remaining - value)

    yield from recurse(0, num_players)


def exhaustive_minimum_potential(game: CongestionGame) -> tuple[np.ndarray, float]:
    """Exact ``argmin/min`` of the potential by enumerating all states."""
    best_counts: Optional[np.ndarray] = None
    best_value = np.inf
    for counts in enumerate_states(game.num_players, game.num_strategies):
        value = game.potential(counts)
        if value < best_value:
            best_value = value
            best_counts = counts
    assert best_counts is not None
    return best_counts, float(best_value)


def best_response_potential_minimum(
    game: CongestionGame,
    *,
    exhaustive_limit: int = 200_000,
    restarts: int = 3,
    rng: RngLike = 0,
) -> float:
    """Estimate ``Phi* = min_x Phi(x)``.

    Exact (by enumeration) when the state space has at most
    ``exhaustive_limit`` states; otherwise the minimum over best-response
    descents from a balanced state and ``restarts`` random states.  Because
    every Nash equilibrium of a symmetric congestion game is a global
    potential minimiser only in special cases, the descent value is an upper
    bound on ``Phi*`` — sufficient for the logarithmic convergence-time
    bounds this quantity feeds into.
    """
    if count_states(game.num_players, game.num_strategies) <= exhaustive_limit:
        _, value = exhaustive_minimum_potential(game)
        return value
    gen = ensure_rng(rng)
    candidates = [game.balanced_state()]
    candidates.extend(game.uniform_random_state(gen) for _ in range(restarts))
    best = np.inf
    for start in candidates:
        final, _ = run_best_response(game, start, max_steps=50_000)
        best = min(best, game.potential(final))
    return float(best)


def compute_nash_equilibrium(
    game: CongestionGame,
    *,
    start: Optional[StateLike] = None,
    rng: RngLike = 0,
    max_steps: int = 1_000_000,
) -> GameState:
    """Compute a pure Nash equilibrium by best-response descent."""
    if start is None:
        start = game.balanced_state()
    final, _ = run_best_response(game, start, max_steps=max_steps, rng=rng, strict=False)
    return final
