"""Revision-protocol interface.

A *protocol* describes how a single player revises its strategy in one round,
given only the information the paper allows (its own latency, the latency it
would experience on a sampled alternative, and coarse structural constants of
the game such as the elasticity bound).  The concurrent round dynamics
(:mod:`repro.core.dynamics`) only need one quantity from a protocol: the
matrix of *switch probabilities*

``R[P, Q]`` = probability that one specific player currently on strategy
``P`` ends the round on strategy ``Q != P``,

which already folds together the sampling step (who/what is sampled) and the
migration step (the coin flip with probability ``mu_PQ``).  Because players
are exchangeable and revise independently, the number of players moving from
``P`` to each ``Q`` is then multinomial with these probabilities.

Every protocol of the paper computes that matrix by one rule: sample a
destination ``Q``, then migrate with probability
``clip(factor * (l_P - l_Q(x+1_Q-1_P)) / l_P, 0, 1)`` when the gain beats a
threshold.  A protocol states its rule once, as :class:`KernelComponents`
(:meth:`Protocol.kernel_components`), and
:func:`component_switch_probabilities` evaluates it for the loop engine
(:meth:`Protocol.switch_probabilities`), the batched ensemble engine
(:meth:`Protocol.switch_probabilities_batch`, an ``(R, S)`` counts matrix to
an ``(R, S, S)`` stack of switch matrices) and the native engine's numpy
chunk alike; the numba loop kernel mirrors it.  docs/ENGINE.md
("Protocols") explains how to write a bespoke protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..games.base import CongestionGame
from ..games.state import BatchStateLike, StateLike

__all__ = ["KernelComponents", "Protocol", "SwitchProbabilities", "TIE_ULPS",
           "component_switch_probabilities", "quiescent_mask", "tie_scale"]


@dataclass(frozen=True)
class KernelComponents:
    """A protocol's rule as flat arrays: the definition every engine evaluates.

    Every protocol of the paper computes its switch probabilities as a
    weighted sum of components of one common shape:

    ``R[P, Q] = sum_c weights[c] * clip(factors[c] * relgain[P, Q], 0, 1)
                * 1[gain[P, Q] > thresholds[c] + TIE_ULPS * eps * l_P]
                * sampling_c[Q]``

    where ``relgain`` is the relative latency gain, the indicator applies
    the strict gain threshold (a margin of a few ulps of ``l_P`` is a
    round-off tie, not a gain), and the sampling distribution is either
    player-proportional (``sampling_kinds[c] = 0``:
    ``(x_Q + v_c) / (n + v_c * S)`` with ``v_c = sampling_virtual[c]``,
    covering plain/undamped/proportional imitation at ``v_c = 0`` and
    virtual-agent imitation at ``v_c > 0``) or uniform over strategies
    (``sampling_kinds[c] = 1``: ``1 / S``, the exploration protocol).
    Mixtures concatenate their components with scaled weights.  All arrays
    have one entry per component and plain numeric dtypes so nopython code
    can consume them directly.
    """

    weights: np.ndarray
    factors: np.ndarray
    thresholds: np.ndarray
    sampling_kinds: np.ndarray
    sampling_virtual: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "factors", np.asarray(self.factors, dtype=float))
        object.__setattr__(self, "thresholds",
                           np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "sampling_kinds",
                           np.asarray(self.sampling_kinds, dtype=np.int64))
        object.__setattr__(self, "sampling_virtual",
                           np.asarray(self.sampling_virtual, dtype=float))
        sizes = {arr.size for arr in (self.weights, self.factors,
                                      self.thresholds, self.sampling_kinds,
                                      self.sampling_virtual)}
        if len(sizes) != 1 or 0 in sizes:
            raise ProtocolError("kernel components need matching, non-empty arrays")

    @property
    def num_components(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class SwitchProbabilities:
    """Per-origin switch probabilities for one round.

    Attributes
    ----------
    matrix:
        ``(S, S)`` array; ``matrix[P, Q]`` is the probability that a player on
        ``P`` moves to ``Q`` this round.  The diagonal is zero, rows sum to at
        most 1 and the complement of the row sum is the probability of
        staying.
    gains:
        ``(S, S)`` array of anticipated latency gains
        ``l_P(x) - l_Q(x + 1_Q - 1_P)`` used to build the matrix (kept for
        diagnostics and the potential bookkeeping).
    """

    matrix: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ProtocolError("switch probability matrix must be square")
        if np.any(matrix < -1e-12):
            raise ProtocolError("switch probabilities must be non-negative")
        if np.any(np.diagonal(matrix) > 1e-12):
            raise ProtocolError("the diagonal of the switch matrix must be zero")
        row_sums = matrix.sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-9):
            raise ProtocolError("switch probabilities of an origin must sum to at most 1")
        object.__setattr__(self, "matrix", matrix)

    @property
    def stay_probabilities(self) -> np.ndarray:
        """Probability of staying on each origin strategy."""
        return np.clip(1.0 - self.matrix.sum(axis=1), 0.0, 1.0)

    def is_quiescent(self, counts: np.ndarray) -> bool:
        """True if no occupied strategy has any positive switch probability,
        i.e. the dynamics have stopped with probability 1."""
        occupied = np.asarray(counts) > 0
        if not np.any(occupied):
            return True
        return float(np.max(self.matrix[occupied])) <= 0.0


class Protocol:
    """Revision protocol.

    A protocol states its rule once, in :meth:`kernel_components`;
    :meth:`switch_probabilities` and :meth:`switch_probabilities_batch`
    evaluate those components with :func:`component_switch_probabilities`
    on one evaluation of the game.  A bespoke protocol whose rule does not
    fit the component form overrides :meth:`switch_probabilities` instead
    and leaves :meth:`kernel_components` returning ``None``: the batch
    method then falls back to the scalar one row by row, and the native
    backend refuses the protocol.
    """

    #: Short name used in reports.
    name: str = "protocol"

    def kernel_components(self, game: CongestionGame) -> Optional[KernelComponents]:
        """The protocol's rule with every game-dependent constant (damping
        denominators, thresholds) resolved against ``game``, or ``None`` for
        a bespoke protocol that overrides :meth:`switch_probabilities`."""
        return None

    def _components(self, game: CongestionGame) -> KernelComponents:
        components = self.kernel_components(game)
        if components is None:
            raise ProtocolError(
                f"protocol {type(self).__name__} ({self.describe()}) has no "
                f"kernel components: a bespoke protocol must override "
                f"switch_probabilities, and every component of a mixture "
                f"needs kernel components"
            )
        return components

    def switch_probabilities(self, game: CongestionGame, state: StateLike) -> SwitchProbabilities:
        """Compute the per-origin switch probabilities in ``state``."""
        components = self._components(game)
        counts = game.validate_state(state)
        gains, origin = _gains(game, counts)
        matrix = component_switch_probabilities(
            components, gains, origin, counts, game.num_players)
        np.fill_diagonal(matrix, 0.0)
        return SwitchProbabilities(matrix=matrix, gains=gains)

    def switch_probabilities_batch(self, game: CongestionGame,
                                   batch: BatchStateLike) -> np.ndarray:
        """Switch matrices for a whole batch of states, shape ``(R, S, S)``.

        ``result[r]`` equals ``switch_probabilities(game, batch[r]).matrix``
        bit for bit for every replica ``r``: one broadcasted evaluation of
        the components, or the scalar method row by row for a bespoke
        protocol.
        """
        counts = game.validate_batch_state(batch)
        components = self.kernel_components(game)
        if components is None:
            return np.stack([
                self.switch_probabilities(game, row).matrix for row in counts
            ])
        latencies, post = game.migration_latencies_batch(counts)
        origin = latencies[:, :, np.newaxis]
        matrices = component_switch_probabilities(
            components, origin - post, origin, counts[:, np.newaxis, :],
            game.num_players)
        return zero_diagonal(matrices)

    def migration_probabilities(self, game: CongestionGame, state: StateLike
                                ) -> np.ndarray:
        """The matrix ``mu_PQ`` of a one-component protocol: the probability
        of migrating to ``Q`` once ``Q`` is sampled, zero where the gain
        threshold is not met."""
        components = self._single_component(game)
        gains, origin = _gains(game, game.validate_state(state))
        mu = _gated_migration(gains, _relative_gains(gains, origin),
                              tie_scale(gains.dtype) * origin,
                              components.factors[0], components.thresholds[0])
        np.fill_diagonal(mu, 0.0)
        return mu

    def sampling_distribution(self, game: CongestionGame, counts: np.ndarray
                              ) -> np.ndarray:
        """Probability of sampling each strategy under a one-component
        protocol, shape ``(S,)``."""
        sampling = _sampling(self._single_component(game), 0,
                             np.asarray(counts), game.num_players,
                             game.num_strategies)
        return np.broadcast_to(sampling, (game.num_strategies,)).astype(float)

    def _single_component(self, game: CongestionGame) -> KernelComponents:
        components = self._components(game)
        if components.num_components != 1:
            raise ProtocolError(
                f"{self.describe()} mixes {components.num_components} rules; "
                f"it has no single migration rule or sampling distribution"
            )
        return components

    def expected_migration(self, game: CongestionGame, state: StateLike) -> np.ndarray:
        """Expected migration matrix ``E[Delta x_{PQ}] = x_P * R[P, Q]``."""
        counts = game.validate_state(state)
        probabilities = self.switch_probabilities(game, state)
        return counts[:, np.newaxis] * probabilities.matrix

    def supports_game(self, game: CongestionGame) -> bool:
        """Hook for protocols that only apply to particular game classes."""
        return True

    def describe(self) -> str:
        """Human-readable one-line description for experiment tables."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: A gain counts only if it beats the threshold by more than
#: ``TIE_ULPS * eps * l_P``: a smaller margin is round-off in the latency
#: evaluation (``0.2 * 3`` against ``0.3 * 2`` differs by one ulp), not an
#: improvement.  The numba loop kernel in :mod:`repro.core.native` applies
#: the same rule.
TIE_ULPS = 4.0


def tie_scale(dtype) -> float:
    """``TIE_ULPS * eps`` of ``dtype``: multiplied by ``l_P`` it gives the
    margin a gain must clear beyond the threshold."""
    return TIE_ULPS * float(np.finfo(dtype).eps)


def _gains(game: CongestionGame, counts: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Gains ``l_P - l_Q(x+1_Q-1_P)``, shape ``(S, S)``, and the origin
    latencies ``l_P`` as a column, from one evaluation of ``game``."""
    latencies, post = game.migration_latencies(counts)
    origin = latencies[:, np.newaxis]
    return origin - post, origin


def _relative_gains(gains: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """``gains / l_P`` with a safe zero where the current latency vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(origin > 0, gains / origin, 0.0)


def _gated_migration(gains: np.ndarray, relative: np.ndarray,
                     floor: np.ndarray, factor: float, threshold: float
                     ) -> np.ndarray:
    """``clip(factor * relative, 0, 1)`` where the gain clears ``threshold``
    by more than the round-off ``floor``, zero elsewhere."""
    mu = np.where(gains > threshold + floor, factor * relative, 0.0)
    return np.clip(mu, 0.0, 1.0, out=mu)


def _sampling(components: KernelComponents, c: int, counts: np.ndarray,
              num_players, num_strategies: int):
    """Sampling probability of each destination under component ``c``."""
    if components.sampling_kinds[c] == 0:
        virtual = components.sampling_virtual[c]
        return (counts + virtual) / (num_players + virtual * num_strategies)
    return 1.0 / num_strategies


def component_switch_probabilities(components: KernelComponents,
                                   gains: np.ndarray, origin: np.ndarray,
                                   counts: np.ndarray, num_players
                                   ) -> np.ndarray:
    """The one switch-probability formula of every protocol.

    ``gains`` holds one row of anticipated gains ``l_P - l_Q(x+1_Q-1_P)``
    per origin, shape ``(..., S)``; ``origin`` is ``l_P`` and ``counts`` the
    destination counts, both broadcastable against ``gains``.  Returns
    ``sum_c w_c * mu_c * sampling_c`` with the shape of ``gains`` (see
    :class:`KernelComponents`).  The entry of an origin's own strategy is
    left for the caller to zero.
    """
    num_strategies = gains.shape[-1]
    relative = _relative_gains(gains, origin)
    floor = tie_scale(gains.dtype) * origin
    out = None
    for c in range(components.num_components):
        # In place, term by term: w_c * (mu_c * sampling_c) as written, one
        # (..., S) temporary per component.
        term = _gated_migration(gains, relative, floor, components.factors[c],
                                components.thresholds[c])
        if components.sampling_kinds[c] == 0:
            term *= _sampling(components, c, counts, num_players,
                              num_strategies)
        else:
            term /= num_strategies
        if components.weights[c] != 1.0:
            term *= components.weights[c]
        if out is None:
            out = term
        else:
            out += term
    return out


def relative_gain_matrix(latencies: np.ndarray, post_migration: np.ndarray) -> np.ndarray:
    """Relative gains ``(l_P - l_Q(x + 1_Q - 1_P)) / l_P`` with a safe zero
    where the current latency vanishes."""
    origin = latencies[:, np.newaxis]
    return _relative_gains(origin - post_migration, origin)


def relative_gain_matrix_batch(latencies: np.ndarray, post_migration: np.ndarray) -> np.ndarray:
    """Batched :func:`relative_gain_matrix`: ``(R, S)`` latencies and
    ``(R, S, S)`` post-migration latencies give ``(R, S, S)`` relative gains."""
    origin = latencies[:, :, np.newaxis]
    return _relative_gains(origin - post_migration, origin)


def zero_diagonal(matrices: np.ndarray) -> np.ndarray:
    """Zero the diagonal of every matrix in an ``(R, S, S)`` stack, in place."""
    diag = np.arange(matrices.shape[-1])
    matrices[..., diag, diag] = 0.0
    return matrices


def quiescent_mask(matrices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-replica quiescence: True where no occupied strategy of replica
    ``r`` has a positive switch probability (the batched analogue of
    :meth:`SwitchProbabilities.is_quiescent`)."""
    occupied = np.asarray(counts) > 0  # (R, S)
    row_max = np.max(matrices, axis=2)  # (R, S): best switch prob per origin
    return ~np.any(occupied & (row_max > 0.0), axis=1)
