"""Row-for-row agreement of batched and scalar protocol evaluation.

`Protocol.switch_probabilities_batch` must agree with the scalar
`switch_probabilities` bit for bit on every replica for every protocol and
baseline (loop ≡ batch is the bit-identical parity tier), and the row-by-row
fallback of bespoke protocols must agree with the component evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.proportional_sampling import (
    ProportionalImitationProtocol,
    make_aggressive_proportional_protocol,
)
from repro.core.exploration import ExplorationProtocol
from repro.core.hybrid import MixtureProtocol, make_hybrid_protocol
from repro.core.imitation import ImitationProtocol, UndampedImitationProtocol
from repro.core.protocols import Protocol, quiescent_mask
from repro.core.virtual_agents import VirtualAgentImitationProtocol
from repro.games.generators import (
    random_linear_singleton,
    random_monomial_singleton,
)
from repro.games.network import braess_network_game, grid_network_game

PROTOCOLS = {
    "imitation": ImitationProtocol(),
    "imitation-no-threshold": ImitationProtocol(use_nu_threshold=False),
    "imitation-aggressive": ImitationProtocol(lambda_=1.0, use_nu_threshold=False),
    "imitation-undamped": UndampedImitationProtocol(),
    "exploration": ExplorationProtocol(),
    "exploration-min-gain": ExplorationProtocol(min_gain=0.05),
    "hybrid": make_hybrid_protocol(),
    "hybrid-25-75": make_hybrid_protocol(imitation_weight=0.25),
    "virtual-agents": VirtualAgentImitationProtocol(),
    "virtual-agents-v3": VirtualAgentImitationProtocol(virtual_agents_per_strategy=3),
    "proportional-baseline": ProportionalImitationProtocol(),
    "proportional-aggressive": make_aggressive_proportional_protocol(),
}


def _games(seed: int):
    return [
        random_linear_singleton(150, 7, rng=seed),
        random_monomial_singleton(80, 5, 2.0, rng=seed + 1),
        braess_network_game(24),
        grid_network_game(40, rows=2, cols=3, rng=seed + 2),
    ]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_batch_matches_scalar_row_for_row(name):
    protocol = PROTOCOLS[name]
    for game in _games(seed=3):
        batch = game.uniform_random_batch_state(6, rng=11).counts
        matrices = protocol.switch_probabilities_batch(game, batch)
        assert matrices.shape == (6, game.num_strategies, game.num_strategies)
        for row in range(6):
            expected = protocol.switch_probabilities(game, batch[row]).matrix
            np.testing.assert_array_equal(
                matrices[row], expected,
                err_msg=f"{name} on {game.name}, replica {row}")


def test_batch_rows_are_valid_switch_matrices():
    game = random_linear_singleton(100, 6, rng=4)
    batch = game.uniform_random_batch_state(8, rng=5).counts
    for name, protocol in PROTOCOLS.items():
        matrices = protocol.switch_probabilities_batch(game, batch)
        assert np.all(matrices >= -1e-12), name
        diag = np.arange(game.num_strategies)
        assert np.allclose(matrices[:, diag, diag], 0.0), name
        assert np.all(matrices.sum(axis=2) <= 1.0 + 1e-9), name


class _FallbackOnlyProtocol(Protocol):
    """A protocol without a batched override: exercises the base fallback."""

    name = "fallback-only"

    def __init__(self):
        self._inner = ImitationProtocol(use_nu_threshold=False)

    def switch_probabilities(self, game, state):
        return self._inner.switch_probabilities(game, state)


def test_base_class_fallback_is_row_by_row_scalar():
    game = random_linear_singleton(60, 5, rng=6)
    batch = game.uniform_random_batch_state(4, rng=7).counts
    fallback = _FallbackOnlyProtocol()
    matrices = fallback.switch_probabilities_batch(game, batch)
    native = ImitationProtocol(use_nu_threshold=False).switch_probabilities_batch(game, batch)
    np.testing.assert_allclose(matrices, native, atol=1e-12)


def test_quiescent_mask_matches_scalar_is_quiescent():
    game = random_linear_singleton(50, 4, rng=8)
    protocol = ImitationProtocol()
    # Mix moving states with an all-on-one state (quiescent for imitation).
    counts = game.uniform_random_batch_state(5, rng=9).to_array()
    counts[2] = 0
    counts[2, 1] = game.num_players
    matrices = protocol.switch_probabilities_batch(game, counts)
    mask = quiescent_mask(matrices, counts)
    for row in range(counts.shape[0]):
        scalar = protocol.switch_probabilities(game, counts[row]).is_quiescent(counts[row])
        assert mask[row] == scalar
    assert mask[2]
