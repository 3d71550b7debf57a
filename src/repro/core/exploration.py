"""The EXPLORATION PROTOCOL (Protocol 2 of the paper, Section 6).

Imitation is not innovative: a strategy that loses its last user can never be
rediscovered.  The exploration protocol fixes this by sampling a *strategy*
uniformly at random instead of a *player*:

1. sample ``Q`` uniformly from the strategy set ``P`` (probability
   ``1 / |P|`` each),
2. if ``l_P(x) > l_Q(x + 1_Q - 1_P)`` migrate with probability

   ``mu_PQ = min{1, lambda * |P| * l_min / (beta * n)
                    * (l_P - l_Q(x + 1_Q - 1_P)) / l_P}``,

where ``beta`` is an upper bound on the maximum slope of the strategy
latencies and ``l_min = min_e l_e(1)``.  Because a sampled strategy may be
empty, the elasticity damping of the imitation protocol no longer controls
the expected inflow and the much stronger ``|P| l_min / (beta n)`` damping is
needed (Theorem 15: convergence to an exact Nash equilibrium, at the price of
a much larger convergence time).

:meth:`ExplorationProtocol.kernel_components` states this rule as one
uniform-sampling component; every engine evaluates it through
:func:`~repro.core.protocols.component_switch_probabilities`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..games.base import CongestionGame
from .imitation import DEFAULT_LAMBDA
from .protocols import KernelComponents, Protocol

__all__ = ["ExplorationProtocol"]


class ExplorationProtocol(Protocol):
    """Protocol 2 of the paper.

    Parameters
    ----------
    lambda_:
        Migration-probability constant ``lambda`` in ``(0, 1]``.
    min_gain:
        Minimum anticipated gain required to migrate.  The paper's protocol
        uses a strict improvement (``> 0``); a small positive value can be
        supplied to study epsilon-greedy exploration.
    beta_override, lmin_override:
        Explicit values for ``beta`` (maximum strategy slope) and ``l_min``
        replacing the game's own bounds.
    """

    name = "exploration"

    def __init__(
        self,
        lambda_: float = DEFAULT_LAMBDA,
        *,
        min_gain: float = 0.0,
        beta_override: Optional[float] = None,
        lmin_override: Optional[float] = None,
    ):
        if not 0.0 < lambda_ <= 1.0:
            raise ProtocolError("lambda must lie in (0, 1]")
        if min_gain < 0:
            raise ProtocolError("min_gain must be non-negative")
        if beta_override is not None and beta_override <= 0:
            raise ProtocolError("beta_override must be positive")
        if lmin_override is not None and lmin_override <= 0:
            raise ProtocolError("lmin_override must be positive")
        self.lambda_ = float(lambda_)
        self.min_gain = float(min_gain)
        self.beta_override = None if beta_override is None else float(beta_override)
        self.lmin_override = None if lmin_override is None else float(lmin_override)

    # ------------------------------------------------------------------
    def damping_factor(self, game: CongestionGame) -> float:
        """The factor ``lambda * |P| * l_min / (beta * n)`` for ``game``."""
        beta = self.beta_override if self.beta_override is not None else game.max_slope
        lmin = self.lmin_override if self.lmin_override is not None else game.min_resource_latency
        if beta <= 0:
            # A game where no strategy ever gets slower (all-constant
            # latencies): any migration probability is safe, use lambda.
            return self.lambda_
        return self.lambda_ * game.num_strategies * lmin / (beta * game.num_players)

    def kernel_components(self, game: CongestionGame) -> KernelComponents:
        """One uniform-strategy-sampling component with the exploration
        damping factor resolved against ``game``."""
        return KernelComponents(
            weights=np.array([1.0]),
            factors=np.array([self.damping_factor(game)]),
            thresholds=np.array([self.min_gain]),
            sampling_kinds=np.array([1], dtype=np.int64),
            sampling_virtual=np.array([0.0]),
        )

    def describe(self) -> str:
        return f"exploration(lambda={self.lambda_:g})"
