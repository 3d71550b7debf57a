"""Stability and equilibrium predicates.

Three nested solution concepts appear in the paper:

* **Nash equilibrium** — no player can improve by switching to *any*
  strategy (implemented in :mod:`repro.games.nash`, re-exported here);
* **imitation-stable state** — no player can improve by more than ``nu`` by
  switching to a strategy *currently in use* (the support restriction is
  what makes imitation non-innovative);
* **(delta, eps, nu)-equilibrium** (Definition 1) — at most a ``delta``
  fraction of the players uses a strategy whose latency deviates from the
  average by more than an ``eps`` fraction (plus the additive ``nu`` slack):
  expensive strategies have ``l_P > (1 + eps) L_av^+ + nu`` and cheap ones
  ``l_P < (1 - eps) L_av - nu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..games.base import CongestionGame
from ..games.nash import is_epsilon_nash, is_nash
from ..games.state import StateLike

__all__ = [
    "DeviationSets",
    "deviation_sets",
    "unsatisfied_fraction",
    "is_approx_equilibrium",
    "is_imitation_stable",
    "max_imitation_gain",
    "is_nash",
    "is_epsilon_nash",
]


@dataclass(frozen=True)
class DeviationSets:
    """The expensive/cheap strategy sets of Definition 1.

    Attributes
    ----------
    expensive:
        Boolean mask over strategies: ``l_P > (1 + eps) * L_av^+ + nu``.
    cheap:
        Boolean mask over strategies: ``l_P < (1 - eps) * L_av - nu``.
    average_latency:
        ``L_av(x)``.
    average_latency_after_join:
        ``L_av^+(x)``.
    """

    expensive: np.ndarray
    cheap: np.ndarray
    average_latency: float
    average_latency_after_join: float

    @property
    def deviating(self) -> np.ndarray:
        """Mask of strategies in ``P_{eps,nu} = P^+ union P^-``."""
        return self.expensive | self.cheap


def deviation_sets(
    game: CongestionGame,
    state: StateLike,
    epsilon: float,
    nu: Optional[float] = None,
) -> DeviationSets:
    """Compute the expensive/cheap strategy sets of Definition 1."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    counts = game.validate_state(state)
    if nu is None:
        nu = game.nu_bound
    latencies = game.strategy_latencies(counts)
    average = game.average_latency(counts)
    average_plus = game.average_latency_after_join(counts)
    expensive = latencies > (1.0 + epsilon) * average_plus + nu
    cheap = latencies < (1.0 - epsilon) * average - nu
    return DeviationSets(
        expensive=expensive,
        cheap=cheap,
        average_latency=float(average),
        average_latency_after_join=float(average_plus),
    )


def unsatisfied_fraction(
    game: CongestionGame,
    state: StateLike,
    epsilon: float,
    nu: Optional[float] = None,
) -> float:
    """Fraction of players on strategies in ``P_{eps,nu}``."""
    counts = game.validate_state(state)
    sets = deviation_sets(game, counts, epsilon, nu)
    return float(counts[sets.deviating].sum() / game.num_players)


def is_approx_equilibrium(
    game: CongestionGame,
    state: StateLike,
    delta: float,
    epsilon: float,
    nu: Optional[float] = None,
) -> bool:
    """Definition 1: at most a ``delta`` fraction of players deviates by more
    than ``eps`` (relative) plus ``nu`` (absolute) from the average latency."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return unsatisfied_fraction(game, state, epsilon, nu) <= delta


def max_imitation_gain(game: CongestionGame, state: StateLike) -> float:
    """Largest latency gain available by copying a *currently used* strategy.

    Only occupied origins and occupied destinations are considered (a player
    can only sample strategies that someone is playing).  Returns 0 if no
    such improvement exists.
    """
    counts = game.validate_state(state)
    latencies, post = game.migration_latencies(counts)
    gains = latencies[:, np.newaxis] - post
    occupied = counts > 0
    mask = occupied[:, np.newaxis] & occupied[np.newaxis, :]
    np.fill_diagonal(mask, False)
    if not np.any(mask):
        return 0.0
    return float(max(np.max(gains[mask]), 0.0))


def is_imitation_stable(
    game: CongestionGame,
    state: StateLike,
    nu: Optional[float] = None,
) -> bool:
    """True if no player can improve by more than ``nu`` by imitating a
    currently used strategy.

    With the game's own ``nu`` bound this is exactly the notion under which
    the IMITATION PROTOCOL halts with probability 1 (no migration probability
    is positive).  Passing ``nu = 0`` asks for stability under the
    threshold-free protocol, i.e. a Nash equilibrium restricted to the
    current support.
    """
    if nu is None:
        nu = game.nu_bound
    return max_imitation_gain(game, state) <= nu
