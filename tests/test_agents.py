from __future__ import annotations

import numpy as np
import pytest

from p2psim import agents
from p2psim.agents import (
    AgentState,
    Role,
    WhitewashOutcome,
    WrongRoleError,
)


def washer(honesty: float, attempts: int = 0, successes: int = 0) -> AgentState:
    return AgentState(0, honesty, Role.POTENTIAL_WHITEWASHER, attempts, successes)


# ---- population ------------------------------------------------------


def test_init_population_roles_follow_honesty():
    pop, reputation = agents.init_population(10000, 0.5, np.random.default_rng(1))
    assert len(pop) == 10000
    assert list(pop) == list(range(10000))
    assert reputation.dtype == np.float64 and reputation.shape == (10000,)
    assert np.all((0 <= reputation) & (reputation <= 1))
    frac = np.mean([a.role is Role.POTENTIAL_WHITEWASHER for a in pop.values()])
    assert 0.48 <= frac <= 0.52
    for a in pop.values():
        assert 0 <= a.honesty <= 1
        assert (a.role is Role.POTENTIAL_WHITEWASHER) == (a.honesty < 0.5)
        assert a.attempts == 0 and a.successes == 0


def test_init_population_deterministic():
    def build():
        pop, reputation = agents.init_population(100, 0.5, np.random.default_rng(9))
        return pop, reputation.tolist()

    assert build() == build()


def test_zero_ceiling_makes_everyone_cooperative():
    # A run with grants disabled (r_ini_max0 = 0) draws its population the
    # same way: honesty is never below zero, so nobody is a whitewasher.
    rng = np.random.default_rng(2)
    pop, reputation = agents.init_population(1000, 0.0, rng)
    assert all(a.role is Role.COOPERATIVE for a in pop.values())
    again = np.random.default_rng(2)
    assert [a.honesty for a in pop.values()] == again.uniform(0.0, 1.0, 1000).tolist()
    assert reputation.tolist() == again.uniform(0.0, 1.0, 1000).tolist()


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


def test_wrong_role_rejected():
    a = AgentState(0, 0.9, Role.COOPERATIVE)
    with pytest.raises(WrongRoleError):
        agents.decide_whitewash(a, 0.5, np.random.default_rng(0))


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


# ---- rejoin ----------------------------------------------------------


def test_rejoin_resets_identity_not_history():
    a = washer(0.2, attempts=4, successes=3)
    b = agents.rejoin_as_newcomer(a, new_id=77, offered_r_ini=0.4)
    assert b.node == 77
    assert b.honesty == a.honesty
    assert (b.attempts, b.successes) == (4, 3)
    assert b.grant == 0.4
    assert b is not a
