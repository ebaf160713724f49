from __future__ import annotations

import numpy as np
import pytest

import oracles
from p2psim import gossip, graph
from p2psim.gossip import GossipSnapshot


def test_exact_snapshot_matches_topology():
    t = graph.generate_regular(1000, 6, oracles.draws(2))
    rng = oracles.draws(3)
    s = gossip.take_snapshot(t, np.full(5, 0.5), 0.0, rng)
    assert rng.bit_generator.state == oracles.draws(3).bit_generator.state  # no draws
    assert s.node_count == 1000
    assert s.degree_sum == 6000
    assert gossip.snapshot_average_degree(s) == 6.0
    assert s.newcomer_mean_reputation == 0.5


def test_newcomer_mean_absent_without_eligible_nodes():
    # The engine's newcomer pool is empty until someone has been around for
    # NEWCOMER_MIN_TENURE iterations; the mean is then undefined.
    rng = oracles.draws(0)
    t = graph.generate_regular(10, 2, rng)
    assert gossip.take_snapshot(t, [], 0.0, rng).newcomer_mean_reputation is None
    assert gossip.take_snapshot(t, np.zeros(0), 0.0, rng).newcomer_mean_reputation is None


def test_newcomer_mean_over_eligible_only():
    # Eligibility is the engine's rule (its newcomer pool); the snapshot
    # averages every reputation it is handed and nothing else.
    rng = oracles.draws(0)
    t = graph.generate_regular(10, 2, rng)
    s = gossip.take_snapshot(t, [0.8, 0.4], 0.0, rng)
    assert s.newcomer_mean_reputation == pytest.approx((0.8 + 0.4) / 2)


def test_noise_bounds_and_independence():
    t = graph.generate_regular(1000, 6, oracles.draws(2))
    pop = [0.5]
    rng = np.random.default_rng(17)
    count_factors = []
    degree_factors = []
    for _ in range(1000):
        s = gossip.take_snapshot(t, pop, noise=0.05, rng=rng)
        assert 950 <= s.node_count <= 1050
        assert 5700 <= s.degree_sum <= 6300
        count_factors.append(s.node_count / 1000)
        degree_factors.append(s.degree_sum / 6000)
    # the two factors are drawn independently, so they rarely coincide
    same = sum(abs(a - b) < 1e-12 for a, b in zip(count_factors, degree_factors))
    assert same < 5
    assert np.std(count_factors) > 0.01


def test_negative_noise_is_rejected():
    rng = oracles.draws(0)
    t = graph.generate_regular(10, 2, rng)
    with pytest.raises(ValueError):
        gossip.take_snapshot(t, [], -0.1, rng)


def test_snapshot_average_degree_arithmetic():
    assert gossip.snapshot_average_degree(GossipSnapshot(1020, 6120, None)) == 6.0
    s = GossipSnapshot(1000, 5986, None)
    assert gossip.snapshot_average_degree(s) == pytest.approx(5.986)
