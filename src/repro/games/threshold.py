"""Threshold games and the Theorem 6 lower-bound construction.

*Threshold games* (paper, Section 3.2) are congestion games in which every
player ``i`` chooses between exactly two strategies: a private "out" resource
``r_i`` with a fixed threshold cost ``T_i``, and an "in" strategy ``S_i^in``
consisting of shared resources.  In *quadratic* threshold games the shared
resources are one resource ``r_{ij}`` per unordered player pair with linear
latency ``a_ij * x``, the "in" strategy of player ``i`` is
``{r_{ij} : j != i}`` and the threshold is ``T_i = 1/2 * sum_j a_ij`` (scaled
by the load on ``r_i``, which only player ``i`` can use).

Quadratic threshold games are PLS-equivalent to local MaxCut: the "in"/"out"
choice of each player corresponds to the side of the cut its node is on, and
improving moves correspond to moving a node across the cut.  The paper uses a
family of such games (via the constructions of Ackermann, Roeglin and
Voecking [1]) with *exponentially long* improvement sequences, and lifts each
player into three copies to turn best-response moves into imitation moves
(no copy ever wants to join the other two on the same strategy, so the third
copy keeps replaying the original best-response sequence).

This module implements:

* :class:`QuadraticThresholdGame` — construction of the asymmetric congestion
  game from a weight matrix ``a_ij``;
* :func:`lift_for_imitation` — the three-copies-per-player lifting from the
  proof of Theorem 6 (with the ``3/2 * sum_j a_ij`` offset added to the
  private resources);
* MaxCut helpers: conversion between cut assignments and profiles, local
  optimality checks, and a generator of weight matrices with geometrically
  growing weights for which improvement sequences become very long.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import GameDefinitionError
from ..rng import RngLike, ensure_rng
from .asymmetric import AsymmetricCongestionGame
from .latency import LinearLatency

__all__ = [
    "QuadraticThresholdGame",
    "lift_for_imitation",
    "random_weight_matrix",
    "geometric_weight_matrix",
    "maxcut_value",
    "is_local_maxcut_optimum",
    "longest_improvement_sequence",
]


class QuadraticThresholdGame(AsymmetricCongestionGame):
    """Quadratic threshold game built from a symmetric weight matrix.

    Parameters
    ----------
    weights:
        Symmetric non-negative ``(n, n)`` matrix ``a_ij`` (the diagonal is
        ignored).  ``weights[i, j]`` is the coefficient of the pair resource
        ``r_{ij}``.
    copies:
        Number of identical copies per original player (1 for the plain
        threshold game, 3 for the Theorem 6 lifting through
        :func:`lift_for_imitation`).
    threshold_slope_factor:
        Slope of the private "out" resource, expressed as a multiple of
        ``W_i = sum_j a_ij``.  The default ``3/2`` makes the single-copy game
        an exact local-MaxCut game under this module's resource-sharing
        semantics: player ``i`` strictly prefers ``S^in`` if and only if
        flipping node ``i`` to the IN side strictly increases the cut value.
        (The paper states the factor ``1/2`` under a slightly different
        accounting of the pair-resource latencies.)
    offset_factor:
        Constant offset added to the private "out" resources, expressed as a
        multiple of ``W_i``.  The plain game uses 0, the lifted 3-copy game
        uses ``1/2`` so that, with one copy pinned to OUT and one to IN, the
        remaining free copy keeps exactly the local-MaxCut preference of the
        original player (the role the ``3/2`` offset plays in the paper's
        proof of Theorem 6 for its accounting).

    Strategy indexing: for every player, strategy ``0`` is ``S^out`` (the
    private resource) and strategy ``1`` is ``S^in`` (all pair resources).
    """

    OUT = 0
    IN = 1

    #: Default slope of the private resource as a multiple of W_i.
    DEFAULT_THRESHOLD_SLOPE = 1.5

    def __init__(self, weights: np.ndarray, *, copies: int = 1,
                 threshold_slope_factor: float = DEFAULT_THRESHOLD_SLOPE,
                 offset_factor: float = 0.0,
                 name: str = "quadratic-threshold"):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise GameDefinitionError("weights must be a square matrix")
        if weights.shape[0] < 2:
            raise GameDefinitionError("need at least two base players")
        if np.any(weights < 0):
            raise GameDefinitionError("weights must be non-negative")
        if not np.allclose(weights, weights.T):
            raise GameDefinitionError("weights must be symmetric")
        if copies < 1:
            raise GameDefinitionError("copies must be at least 1")
        base_n = weights.shape[0]
        weights = weights.copy()
        np.fill_diagonal(weights, 0.0)

        # Resource layout: first the pair resources r_{ij} (i < j), then one
        # private resource per base player.
        pair_index: dict[tuple[int, int], int] = {}
        latencies = []
        resource_names = []
        for i in range(base_n):
            for j in range(i + 1, base_n):
                pair_index[(i, j)] = len(latencies)
                coefficient = max(weights[i, j], 1e-12)
                latencies.append(LinearLatency(coefficient, 0.0))
                resource_names.append(f"r({i},{j})")
        private_offset = len(latencies)
        row_sums = weights.sum(axis=1)
        for i in range(base_n):
            slope = threshold_slope_factor * row_sums[i]
            offset = offset_factor * row_sums[i]
            latencies.append(LinearLatency(max(slope, 1e-12), offset))
            resource_names.append(f"r({i})")

        strategy_spaces = []
        player_names = []
        for i in range(base_n):
            out_strategy = [private_offset + i]
            in_strategy = [pair_index[(min(i, j), max(i, j))] for j in range(base_n) if j != i]
            for copy in range(copies):
                strategy_spaces.append([out_strategy, in_strategy])
                player_names.append(f"p{i}" if copies == 1 else f"p{i}.{copy}")

        super().__init__(
            latencies,
            strategy_spaces,
            player_names=player_names,
            resource_names=resource_names,
            name=name,
        )
        self._weights = weights
        self._base_players = base_n
        self._copies = copies
        self._pair_index = pair_index
        self._private_offset = private_offset
        self.threshold_slope_factor = float(threshold_slope_factor)
        self.offset_factor = float(offset_factor)

    # ------------------------------------------------------------------
    @property
    def base_players(self) -> int:
        """Number of original (pre-lifting) players."""
        return self._base_players

    @property
    def copies(self) -> int:
        """Number of copies per original player."""
        return self._copies

    @property
    def weights(self) -> np.ndarray:
        """The symmetric weight matrix ``a_ij`` (diagonal zero)."""
        return self._weights.copy()

    def threshold(self, base_player: int) -> float:
        """Latency of the private resource when a single copy uses it,
        ``T_i = threshold_slope_factor * W_i + offset_factor * W_i``."""
        row_sum = float(self._weights[base_player].sum())
        return (self.threshold_slope_factor + self.offset_factor) * row_sum

    def copy_indices(self, base_player: int) -> list[int]:
        """Indices of the copies of ``base_player`` in the lifted game."""
        start = base_player * self._copies
        return list(range(start, start + self._copies))

    # ------------------------------------------------------------------
    # MaxCut correspondence
    # ------------------------------------------------------------------
    def profile_from_cut(self, cut: Sequence[int]) -> np.ndarray:
        """Build a profile from a cut assignment of the *base* players.

        ``cut[i] == 1`` means base player ``i`` plays ``S^in``; 0 means
        ``S^out``.  In a lifted game every copy adopts the base player's
        side.
        """
        cut_array = np.asarray(cut, dtype=np.int64)
        if cut_array.shape != (self._base_players,):
            raise GameDefinitionError("cut must have one entry per base player")
        if np.any((cut_array != 0) & (cut_array != 1)):
            raise GameDefinitionError("cut entries must be 0 or 1")
        profile = np.repeat(cut_array, self._copies)
        return profile

    def profile_from_cut_lifted(self, cut: Sequence[int]) -> np.ndarray:
        """The Theorem 6 initial state of a lifted (3-copy) game.

        Copy 0 of every base player is pinned to ``S^out``, copy 1 to
        ``S^in`` and copy 2 takes the side prescribed by ``cut``.  Requires
        ``copies == 3``.
        """
        if self._copies != 3:
            raise GameDefinitionError("the lifted initial state needs exactly 3 copies")
        cut_array = np.asarray(cut, dtype=np.int64)
        if cut_array.shape != (self._base_players,):
            raise GameDefinitionError("cut must have one entry per base player")
        profile = np.zeros(self.num_players, dtype=np.int64)
        for base in range(self._base_players):
            copies = self.copy_indices(base)
            profile[copies[0]] = self.OUT
            profile[copies[1]] = self.IN
            profile[copies[2]] = self.IN if cut_array[base] else self.OUT
        return profile

    def cut_from_profile(self, profile: Sequence[int]) -> np.ndarray:
        """Read off the side of every base player (majority over copies)."""
        arr = self.validate_profile(profile)
        sides = np.zeros(self._base_players, dtype=np.int64)
        for base in range(self._base_players):
            copies = self.copy_indices(base)
            sides[base] = 1 if np.mean(arr[copies]) >= 0.5 else 0
        return sides


def lift_for_imitation(weights: np.ndarray, *, name: str = "lifted-threshold"
                       ) -> QuadraticThresholdGame:
    """Build the Theorem 6 lifted game: three copies of every player plus an
    offset on each private resource.

    With one copy pinned to ``S^out`` and one to ``S^in``, the private
    resource of player ``i`` carries a base load of one and every pair
    resource ``r_{ij}`` carries a base load of two.  Choosing the offset
    ``W_i / 2`` on top of the default ``3/2 W_i`` slope makes the *free* copy
    prefer ``S^in`` exactly when flipping node ``i`` to the IN side increases
    the cut — the same improvement structure as the single-copy game, but now
    expressed through moves that imitate one of the other two copies.
    """
    return QuadraticThresholdGame(weights, copies=3, offset_factor=0.5, name=name)


# ----------------------------------------------------------------------
# Weight-matrix generators and MaxCut helpers
# ----------------------------------------------------------------------

def random_weight_matrix(base_players: int, *, low: float = 1.0, high: float = 10.0,
                         rng: RngLike = None) -> np.ndarray:
    """Symmetric weight matrix with i.i.d. uniform weights."""
    if base_players < 2:
        raise GameDefinitionError("need at least two base players")
    gen = ensure_rng(rng)
    upper = gen.uniform(low, high, size=(base_players, base_players))
    weights = np.triu(upper, k=1)
    weights = weights + weights.T
    return weights


def geometric_weight_matrix(base_players: int, *, ratio: float = 2.0) -> np.ndarray:
    """Weight matrix with geometrically spread pair weights.

    Pairs are ordered lexicographically and weighted ``ratio**k``; widely
    spread weights make local-search / imitation sequences long because
    flipping a heavy pair re-enables many light pairs, mimicking the
    exponential constructions of Ackermann, Roeglin and Voecking.  The growth
    of the measured sequence length with ``base_players`` is the quantity
    experiment E6 tracks.
    """
    if base_players < 2:
        raise GameDefinitionError("need at least two base players")
    if ratio <= 1.0:
        raise GameDefinitionError("ratio must exceed 1")
    weights = np.zeros((base_players, base_players))
    k = 0
    for i in range(base_players):
        for j in range(i + 1, base_players):
            weights[i, j] = weights[j, i] = ratio ** k
            k += 1
    return weights


def longest_improvement_sequence(weights: np.ndarray, *, start_cut: Optional[Sequence[int]] = None
                                 ) -> int:
    """Length of the longest sequence of strictly improving single flips.

    Every strictly improving flip increases the cut value, so the improvement
    graph over the ``2^k`` cuts is a DAG and the longest path can be computed
    exactly by memoised depth-first search.  With ``start_cut = None`` the
    maximum over all start cuts is returned — the exact worst-case length of
    a best-response (equivalently, free-copy imitation) schedule for this
    instance, the quantity Theorem 6 lower-bounds.  Exponential in ``k``
    (states) — intended for small instances (``k <= 12``).
    """
    weights = np.asarray(weights, dtype=float)
    base_players = weights.shape[0]
    if base_players > 16:
        raise GameDefinitionError("exhaustive search is limited to at most 16 base players")

    num_states = 2 ** base_players
    values = np.empty(num_states)
    for bits in range(num_states):
        cut = np.array([(bits >> node) & 1 for node in range(base_players)], dtype=np.int64)
        values[bits] = maxcut_value(weights, cut)

    # Improving flips strictly increase the cut value, so processing states in
    # decreasing value order gives an iterative longest-path DP over the DAG.
    longest = np.zeros(num_states, dtype=np.int64)
    for bits in sorted(range(num_states), key=lambda b: -values[b]):
        best = 0
        for node in range(base_players):
            flipped = bits ^ (1 << node)
            if values[flipped] > values[bits] + 1e-12:
                best = max(best, 1 + int(longest[flipped]))
        longest[bits] = best

    if start_cut is not None:
        start_array = np.asarray(start_cut, dtype=np.int64)
        start_bits = int(sum(int(bit) << node for node, bit in enumerate(start_array)))
        return int(longest[start_bits])
    return int(longest.max())


def maxcut_value(weights: np.ndarray, cut: Sequence[int]) -> float:
    """Total weight of edges crossing the cut."""
    weights = np.asarray(weights, dtype=float)
    cut_array = np.asarray(cut, dtype=np.int64)
    crossing = cut_array[:, None] != cut_array[None, :]
    return float(np.sum(np.triu(weights * crossing, k=1)))


def is_local_maxcut_optimum(weights: np.ndarray, cut: Sequence[int]) -> bool:
    """True if no single node can be flipped to strictly increase the cut."""
    weights = np.asarray(weights, dtype=float)
    cut_array = np.asarray(cut, dtype=np.int64)
    base_value = maxcut_value(weights, cut_array)
    for node in range(cut_array.size):
        flipped = cut_array.copy()
        flipped[node] = 1 - flipped[node]
        if maxcut_value(weights, flipped) > base_value + 1e-12:
            return False
    return True
