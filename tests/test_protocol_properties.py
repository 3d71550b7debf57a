"""Additional property-based tests for the exploration, mixture and
virtual-agent protocols.

The imitation-protocol invariants live in ``test_properties.py``; this module
covers the remaining revision protocols with the same style of checks:
validity of the switch-probability matrices on arbitrary states, absence of
migrations towards strictly worse strategies, and player conservation under
full rounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dynamics import step
from repro.core.exploration import ExplorationProtocol
from repro.core.hybrid import make_hybrid_protocol
from repro.core.virtual_agents import VirtualAgentImitationProtocol
from repro.games.latency import MonomialLatency
from repro.games.singleton import SingletonCongestionGame

coefficients = st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=5)
degrees = st.integers(min_value=1, max_value=3)
player_counts = st.integers(min_value=2, max_value=50)
seeds = st.integers(min_value=0, max_value=2**31 - 1)

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_game(coeffs, degree, num_players) -> SingletonCongestionGame:
    latencies = [MonomialLatency(a, float(degree)) for a in coeffs]
    return SingletonCongestionGame(num_players, latencies, validate=False)


def protocol_instances():
    return [
        ExplorationProtocol(lambda_=1.0),
        make_hybrid_protocol(lambda_=1.0, use_nu_threshold=False),
        VirtualAgentImitationProtocol(lambda_=1.0),
    ]


@COMMON_SETTINGS
@given(coeffs=coefficients, degree=degrees, num_players=player_counts, seed=seeds)
def test_all_protocols_produce_valid_switch_matrices(coeffs, degree, num_players, seed):
    game = build_game(coeffs, degree, num_players)
    state = game.uniform_random_state(np.random.default_rng(seed))
    for protocol in protocol_instances():
        matrix = protocol.switch_probabilities(game, state).matrix
        assert np.all(matrix >= 0)
        assert np.all(np.diagonal(matrix) == 0)
        assert np.all(matrix.sum(axis=1) <= 1.0 + 1e-9)


@COMMON_SETTINGS
@given(coeffs=coefficients, degree=degrees, num_players=player_counts, seed=seeds)
def test_all_protocols_conserve_players_per_round(coeffs, degree, num_players, seed):
    game = build_game(coeffs, degree, num_players)
    state = game.uniform_random_state(np.random.default_rng(seed))
    for protocol in protocol_instances():
        outcome = step(game, protocol, state, rng=seed)
        assert outcome.state.counts.sum() == num_players
        assert np.all(outcome.state.counts >= 0)


@COMMON_SETTINGS
@given(coeffs=coefficients, degree=degrees, num_players=player_counts, seed=seeds)
# 0.2 * 3 against 0.3 * 2: a one-ulp "gain" that is a round-off tie.
@example(coeffs=[0.3, 0.2, 1.0, 1.0], degree=1, num_players=5, seed=1)
def test_no_protocol_migrates_towards_strictly_worse_strategies(coeffs, degree,
                                                                num_players, seed):
    game = build_game(coeffs, degree, num_players)
    state = game.uniform_random_state(np.random.default_rng(seed))
    latencies = game.strategy_latencies(state)
    post = game.post_migration_latency_matrix(state)
    for protocol in protocol_instances():
        matrix = protocol.switch_probabilities(game, state).matrix
        worse = post >= latencies[:, np.newaxis] - 1e-12
        assert np.all(matrix[worse] == 0.0)


@COMMON_SETTINGS
@given(coeffs=coefficients, degree=degrees, num_players=player_counts, seed=seeds,
       virtual=st.integers(min_value=1, max_value=3))
def test_virtual_agent_sampling_is_a_distribution(coeffs, degree, num_players, seed, virtual):
    game = build_game(coeffs, degree, num_players)
    state = game.uniform_random_state(np.random.default_rng(seed))
    protocol = VirtualAgentImitationProtocol(virtual_agents_per_strategy=virtual)
    distribution = protocol.sampling_distribution(game, state.counts)
    assert np.all(distribution > 0)
    np.testing.assert_allclose(distribution.sum(), 1.0)


@COMMON_SETTINGS
@given(coeffs=coefficients, degree=degrees, num_players=player_counts, seed=seeds)
def test_exploration_samples_empty_strategies_with_positive_probability(coeffs, degree,
                                                                        num_players, seed):
    game = build_game(coeffs, degree, num_players)
    # put everybody on the strategy with the largest coefficient so that some
    # cheaper strategy is empty and strictly better
    worst = int(np.argmax(coeffs))
    best = int(np.argmin(coeffs))
    if worst == best:
        return
    counts = np.zeros(len(coeffs), dtype=np.int64)
    counts[worst] = num_players
    protocol = ExplorationProtocol(lambda_=1.0)
    matrix = protocol.switch_probabilities(game, counts).matrix
    assert matrix[worst, best] > 0.0
