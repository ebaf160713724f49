from __future__ import annotations

import numpy as np

from p2psim import agents
from p2psim.agents import AgentState, Role, WhitewashOutcome


def washer(honesty: float, attempts: int = 0, successes: int = 0) -> AgentState:
    return AgentState(honesty, attempts, successes)


# ---- population ------------------------------------------------------


def test_init_population_roles_follow_honesty():
    role_code, reputation, records = agents.init_population(10000, 0.5, np.random.default_rng(1))
    honesty = np.random.default_rng(1).uniform(0.0, 1.0, 10000)  # drawn first
    assert role_code.dtype == np.int8 and role_code.shape == (10000,)
    assert reputation.dtype == np.float64 and reputation.shape == (10000,)
    assert np.all((0 <= reputation) & (reputation <= 1))
    assert role_code.tolist() == [
        Role.POTENTIAL_WHITEWASHER if h < 0.5 else Role.COOPERATIVE for h in honesty.tolist()
    ]
    frac = np.mean(role_code == Role.POTENTIAL_WHITEWASHER)
    assert 0.48 <= frac <= 0.52
    # One record per potential whitewasher, in ascending id order.
    assert list(records) == np.flatnonzero(role_code == Role.POTENTIAL_WHITEWASHER).tolist()
    for v, a in records.items():
        assert a.honesty == honesty[v] < 0.5
        assert a.attempts == 0 and a.successes == 0 and a.grant is None


def test_init_population_deterministic():
    def build():
        role_code, reputation, records = agents.init_population(
            100, 0.5, np.random.default_rng(9)
        )
        return role_code.tolist(), reputation.tolist(), records

    assert build() == build()


def test_zero_ceiling_makes_everyone_cooperative():
    # A run with grants disabled (r_ini_max0 = 0) draws its population the
    # same way: honesty is never below zero, so nobody is a whitewasher.
    rng = np.random.default_rng(2)
    role_code, reputation, records = agents.init_population(1000, 0.0, rng)
    assert np.all(role_code == Role.COOPERATIVE)
    assert records == {}
    again = np.random.default_rng(2)
    again.uniform(0.0, 1.0, 1000)  # the honesties
    assert reputation.tolist() == again.uniform(0.0, 1.0, 1000).tolist()
    assert rng.bit_generator.state == again.bit_generator.state


# ---- attempt probability ---------------------------------------------


def test_attempt_probability():
    assert agents.attempt_probability(washer(0.2)) == 1.0
    assert agents.attempt_probability(washer(0.2, attempts=4, successes=3)) == 0.75
    assert agents.attempt_probability(washer(0.2, attempts=10, successes=0)) == 0.0


# ---- whitewash decision ----------------------------------------------


def test_first_attempt_is_certain_and_succeeds_on_generous_offer():
    a = washer(0.2)
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(a, 0.5, rng) is WhitewashOutcome.WHITEWASHED
    assert (a.attempts, a.successes) == (1, 1)


def test_attempt_fails_below_honesty():
    a = washer(0.2)
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(a, 0.03, rng) is WhitewashOutcome.ATTEMPT_FAILED
    assert (a.attempts, a.successes) == (1, 0)


def test_tie_counts_as_whitewash():
    a = washer(0.3)
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(a, 0.3, rng) is WhitewashOutcome.WHITEWASHED


def test_hopeless_agent_never_attempts():
    a = washer(0.2, attempts=10, successes=0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert agents.decide_whitewash(a, 0.9, rng) is WhitewashOutcome.NO_ATTEMPT
    assert (a.attempts, a.successes) == (10, 0)


def test_success_fraction_matches_uniform_cdf():
    """With uniform honesty, the fraction of first attempts that succeed at
    offer r converges to r."""
    rng = np.random.default_rng(5)
    offer = 0.35
    draws = 20000
    honesty = rng.uniform(0, 1, draws)
    wins = 0
    for h in honesty:
        a = washer(float(h))
        if agents.decide_whitewash(a, offer, rng) is WhitewashOutcome.WHITEWASHED:
            wins += 1
    se = np.sqrt(offer * (1 - offer) / draws)
    assert abs(wins / draws - offer) < 3 * se
