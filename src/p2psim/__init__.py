"""Simulator and analytics for whitewashing defenses in unstructured
peer-to-peer resource-sharing networks.

Subpackages cover the overlay topology, agent behavior, the adaptive
initial-reputation estimator, payoff economics for identity churn, the
strategic rejoin-timing game, and the simulation engine that ties them
together and draws the gossip-based observation each iteration.
"""

__version__ = "0.1.0"
