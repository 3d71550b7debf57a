"""Potential bookkeeping: Rosenthal potential, virtual gains and error terms.

This module implements the quantities around which the convergence proofs of
Section 3 revolve:

* the **virtual potential gain** of a migration vector,
  ``V_PQ(x, Delta x) = Delta x_PQ * (l_Q(x + 1_Q - 1_P) - l_P(x))`` — the
  potential change each migrating player *would* cause if it moved alone;
* the **error terms** ``F_e(x, Delta x)`` that account for players moving
  concurrently onto/off the same resource (Lemma 1's correction);
* the **true potential gain** ``Delta Phi = Phi(x + Delta x) - Phi(x)``.

Lemma 1 states ``Delta Phi <= sum V_PQ + sum F_e`` for *any* migration
vector; Lemma 2 states that under the IMITATION PROTOCOL the expectation of
the error terms eats at most half of the (negative) virtual gain, so
``E[Delta Phi] <= 1/2 E[sum V_PQ] <= 0``.  The functions here let tests and
experiments verify both statements numerically on sampled rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import StateError
from ..games.base import CongestionGame
from ..games.state import StateLike
from ..rng import RngLike, ensure_rng
from .protocols import Protocol

__all__ = [
    "PotentialBreakdown",
    "BatchPotentialBreakdown",
    "virtual_potential_gain",
    "error_terms",
    "true_potential_gain",
    "potential_breakdown",
    "potential_breakdown_batch",
    "expected_virtual_potential_gain",
    "estimate_expected_drift",
]


@dataclass(frozen=True)
class PotentialBreakdown:
    """Decomposition of a single round's potential change (Lemma 1).

    Attributes
    ----------
    virtual_gain:
        ``sum_{P,Q} V_PQ`` — the sum of per-player virtual potential gains
        (non-positive for migration vectors produced by the protocol).
    error_term:
        ``sum_e F_e`` — the concurrency correction (non-negative).
    true_gain:
        ``Phi(x + Delta x) - Phi(x)``.
    """

    virtual_gain: float
    error_term: float
    true_gain: float

    @property
    def lemma1_upper_bound(self) -> float:
        """The Lemma 1 right-hand side ``virtual_gain + error_term``."""
        return self.virtual_gain + self.error_term

    @property
    def lemma1_holds(self) -> bool:
        """True if ``true_gain <= virtual_gain + error_term`` (up to rounding).

        For singleton games the inequality is an equality, so the comparison
        uses a relative tolerance scaled by the magnitude of the involved
        quantities to stay robust against floating-point accumulation on
        steep latency functions.
        """
        scale = 1.0 + abs(self.virtual_gain) + abs(self.error_term) + abs(self.true_gain)
        return self.true_gain <= self.lemma1_upper_bound + 1e-9 * scale


def _validate_migration(game: CongestionGame, counts: np.ndarray,
                        migration: np.ndarray) -> np.ndarray:
    migration = np.asarray(migration, dtype=np.int64)
    expected_shape = (game.num_strategies, game.num_strategies)
    if migration.shape != expected_shape:
        raise StateError(f"migration matrix must have shape {expected_shape}")
    if np.any(migration < 0):
        raise StateError("migration counts must be non-negative")
    if np.any(np.diagonal(migration) != 0):
        raise StateError("the diagonal of a migration matrix must be zero")
    if np.any(migration.sum(axis=1) > counts):
        raise StateError("more players leave a strategy than are present")
    return migration


def migration_delta(migration: np.ndarray) -> np.ndarray:
    """Net per-strategy change ``Delta x_P`` induced by a migration matrix."""
    migration = np.asarray(migration, dtype=np.int64)
    return migration.sum(axis=0) - migration.sum(axis=1)


def virtual_potential_gain(game: CongestionGame, state: StateLike,
                           migration: np.ndarray) -> float:
    """``sum_{P,Q} Delta x_PQ * (l_Q(x + 1_Q - 1_P) - l_P(x))``."""
    counts = game.validate_state(state)
    migration = _validate_migration(game, counts, migration)
    latencies, post = game.migration_latencies(counts)
    per_move_gain = post - latencies[:, np.newaxis]  # negative when improving
    return float(np.sum(migration * per_move_gain))


def error_terms(game: CongestionGame, state: StateLike, migration: np.ndarray
                ) -> np.ndarray:
    """Per-resource error terms ``F_e(x, Delta x)`` of Lemma 1."""
    counts = game.validate_state(state)
    migration = _validate_migration(game, counts, migration)
    delta_strategies = migration_delta(migration)
    loads = np.rint(game.congestion(counts)).astype(int)
    delta_loads = np.rint(game.incidence.T @ delta_strategies.astype(float)).astype(int)

    errors = np.zeros(game.num_resources)
    for resource, (load, delta) in enumerate(zip(loads, delta_loads)):
        latency = game.latencies[resource]
        if delta > 0:
            arguments = np.arange(load + 1, load + delta + 1, dtype=float)
            errors[resource] = float(np.sum(latency.value(arguments)
                                            - latency.value(np.asarray(float(load + 1)))))
        elif delta < 0:
            arguments = np.arange(load + delta + 1, load + 1, dtype=float)
            errors[resource] = float(np.sum(latency.value(np.asarray(float(load)))
                                            - latency.value(arguments)))
    return errors


def true_potential_gain(game: CongestionGame, state: StateLike, migration: np.ndarray
                        ) -> float:
    """``Phi(x + Delta x) - Phi(x)`` for the migration matrix."""
    counts = game.validate_state(state)
    migration = _validate_migration(game, counts, migration)
    new_counts = counts + migration_delta(migration)
    return float(game.potential(new_counts) - game.potential(counts))


def potential_breakdown(game: CongestionGame, state: StateLike, migration: np.ndarray
                        ) -> PotentialBreakdown:
    """Compute all three quantities of Lemma 1 for one migration matrix."""
    return PotentialBreakdown(
        virtual_gain=virtual_potential_gain(game, state, migration),
        error_term=float(np.sum(error_terms(game, state, migration))),
        true_gain=true_potential_gain(game, state, migration),
    )


@dataclass(frozen=True)
class BatchPotentialBreakdown:
    """Per-sample Lemma 1 decompositions for a stack of migration matrices.

    All attributes are arrays of shape ``(N,)`` — one entry per sampled
    round against the *same* base state.
    """

    virtual_gains: np.ndarray
    error_sums: np.ndarray
    true_gains: np.ndarray

    @property
    def lemma1_holds(self) -> np.ndarray:
        """Per-sample Lemma 1 check (same tolerance as the scalar version)."""
        scale = (1.0 + np.abs(self.virtual_gains) + np.abs(self.error_sums)
                 + np.abs(self.true_gains))
        return self.true_gains <= self.virtual_gains + self.error_sums + 1e-9 * scale


def potential_breakdown_batch(game: CongestionGame, state: StateLike,
                              migrations: np.ndarray) -> BatchPotentialBreakdown:
    """Lemma 1 decomposition for ``N`` migration matrices at once.

    ``migrations`` has shape ``(N, S, S)``; every matrix is a migration of
    the same base ``state``.  The per-move gains are evaluated once, the
    error terms come from table lookups against per-resource latency value
    and prefix tables, and the true gains reuse the game's batched
    potential — no per-sample Python work.
    """
    counts = game.validate_state(state)
    migrations = np.asarray(migrations, dtype=np.int64)
    expected_shape = (game.num_strategies, game.num_strategies)
    if migrations.ndim != 3 or migrations.shape[1:] != expected_shape:
        raise StateError(f"migration stack must have shape (N, {expected_shape[0]}, "
                         f"{expected_shape[1]})")
    if np.any(migrations < 0):
        raise StateError("migration counts must be non-negative")
    diag = np.arange(game.num_strategies)
    if np.any(migrations[:, diag, diag] != 0):
        raise StateError("the diagonal of a migration matrix must be zero")
    if np.any(migrations.sum(axis=2) > counts[np.newaxis, :]):
        raise StateError("more players leave a strategy than are present")

    latencies, post = game.migration_latencies(counts)
    per_move_gain = post - latencies[:, np.newaxis]
    virtual = np.einsum("npq,pq->n", migrations.astype(float), per_move_gain)

    deltas = migrations.sum(axis=1) - migrations.sum(axis=2)  # (N, S)
    loads = np.rint(game.congestion(counts)).astype(int)  # (m,)
    delta_loads = np.rint(deltas.astype(float) @ game.incidence).astype(int)  # (N, m)
    new_loads = loads[np.newaxis, :] + delta_loads

    # Value/prefix tables: V[e, k] = l_e(k), C[e, k] = sum_{i<=k} l_e(i).
    arguments = np.arange(0, game.num_players + 1, dtype=float)
    values = np.stack([np.asarray(lat.value(arguments), dtype=float)
                       for lat in game.latencies])
    prefix = np.concatenate(
        [np.zeros((game.num_resources, 1)), np.cumsum(values[:, 1:], axis=1)], axis=1,
    )
    resource = np.arange(game.num_resources)[np.newaxis, :]
    base = np.broadcast_to(loads[np.newaxis, :], new_loads.shape)
    # delta > 0: sum_{u=load+1..load+delta} l(u) - delta * l(load+1)
    up = (prefix[resource, new_loads] - prefix[resource, base]
          - delta_loads * values[resource, np.minimum(base + 1, game.num_players)])
    # delta < 0: (-delta) * l(load) - sum_{u=load+delta+1..load} l(u)
    down = (-delta_loads * values[resource, base]
            - (prefix[resource, base] - prefix[resource, new_loads]))
    errors = np.where(delta_loads > 0, up, np.where(delta_loads < 0, down, 0.0))

    base_potential = game.potential(counts)
    new_counts = counts[np.newaxis, :] + deltas
    true = game.potential_batch(new_counts) - base_potential

    return BatchPotentialBreakdown(
        virtual_gains=virtual,
        error_sums=errors.sum(axis=1),
        true_gains=true,
    )


def expected_virtual_potential_gain(game: CongestionGame, protocol: Protocol,
                                    state: StateLike) -> float:
    """``E[sum_{P,Q} V_PQ]`` in closed form.

    The expectation of the migration matrix under any protocol is
    ``x_P * R[P, Q]`` and the per-move gains are deterministic given the
    state, so the expected virtual gain is available without sampling.
    """
    counts = game.validate_state(state)
    expected_moves = protocol.expected_migration(game, counts)
    latencies, post = game.migration_latencies(counts)
    per_move_gain = post - latencies[:, np.newaxis]
    return float(np.sum(expected_moves * per_move_gain))


def estimate_expected_drift(
    game: CongestionGame,
    protocol: Protocol,
    state: StateLike,
    *,
    samples: int = 200,
    rng: RngLike = None,
) -> dict[str, float]:
    """Monte-Carlo estimate of the one-round expected potential change.

    Returns a dictionary with the sampled mean of the true potential gain,
    the closed-form expected virtual gain, and the Lemma 2 bound (half the
    virtual gain).  Used by the martingale diagnostics and the corresponding
    tests.
    """
    from .dynamics import sample_migration_matrix  # local import, avoids cycle

    counts = game.validate_state(state)
    gen = ensure_rng(rng)
    probabilities = protocol.switch_probabilities(game, counts)
    total_true = 0.0
    for _ in range(samples):
        migration = sample_migration_matrix(counts, probabilities.matrix, gen)
        total_true += true_potential_gain(game, counts, migration)
    expected_virtual = expected_virtual_potential_gain(game, protocol, counts)
    return {
        "mean_true_gain": total_true / samples,
        "expected_virtual_gain": expected_virtual,
        "lemma2_bound": 0.5 * expected_virtual,
    }
