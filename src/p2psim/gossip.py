"""Idealized gossip layer: per-iteration network-wide aggregates.

Every node is assumed to learn the same snapshot (node count, degree sum,
and the mean reputation of recent newcomers). A multiplicative noise knob
stands in for aggregation error; noise 0 means exact values. Which nodes
count as recent newcomers is the engine's rule (`Simulation._newcomer_pool`);
the snapshot averages the reputations it is handed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .draws import Draws
from .graph import Topology


@dataclass(frozen=True)
class GossipSnapshot:
    node_count: float
    degree_sum: float
    newcomer_mean_reputation: float | None


def take_snapshot(
    t: Topology,
    newcomer_reps: Sequence[float] | np.ndarray,
    noise: float,
    rng: Draws,
) -> GossipSnapshot:
    """Aggregate the current network state and the newcomers' mean
    reputation (None when there are none).

    With noise > 0, node count and degree sum are each scaled by an
    independent factor drawn uniformly from [1-noise, 1+noise]. Noise 0
    consumes no randomness.
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    node_count = float(t.node_count)
    degree_sum = 2.0 * t.edge_count
    if noise > 0:
        node_count *= rng.uniform(1.0 - noise, 1.0 + noise)
        degree_sum *= rng.uniform(1.0 - noise, 1.0 + noise)
    newcomer_mean = float(np.mean(newcomer_reps)) if len(newcomer_reps) else None
    return GossipSnapshot(node_count, degree_sum, newcomer_mean)


def snapshot_average_degree(s: GossipSnapshot) -> float:
    if s.node_count < 1:
        raise ValueError("snapshot node count must be >= 1")
    return s.degree_sum / s.node_count
