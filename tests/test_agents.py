from __future__ import annotations

import numpy as np

from p2psim import agents
from p2psim.agents import Role, WhitewashOutcome


# ---- population ------------------------------------------------------


def test_init_population_roles_follow_honesty():
    role_code, reputation, honesty = agents.init_population(10000, 0.5, np.random.default_rng(1))
    assert honesty.tolist() == np.random.default_rng(1).uniform(0.0, 1.0, 10000).tolist()
    assert role_code.dtype == np.int8 and role_code.shape == (10000,)
    assert reputation.dtype == np.float64 and reputation.shape == (10000,)
    assert np.all((0 <= reputation) & (reputation <= 1))
    assert role_code.tolist() == [
        Role.POTENTIAL_WHITEWASHER if h < 0.5 else Role.COOPERATIVE for h in honesty.tolist()
    ]
    frac = np.mean(role_code == Role.POTENTIAL_WHITEWASHER)
    assert 0.48 <= frac <= 0.52


def test_init_population_deterministic():
    def build():
        role_code, reputation, honesty = agents.init_population(
            100, 0.5, np.random.default_rng(9)
        )
        return role_code.tolist(), reputation.tolist(), honesty.tolist()

    assert build() == build()


def test_zero_ceiling_makes_everyone_cooperative():
    # A run with grants disabled (r_ini_max0 = 0) draws its population the
    # same way: honesty is never below zero, so nobody is a whitewasher.
    rng = np.random.default_rng(2)
    role_code, reputation, honesty = agents.init_population(1000, 0.0, rng)
    assert np.all(role_code == Role.COOPERATIVE)
    again = np.random.default_rng(2)
    assert honesty.tolist() == again.uniform(0.0, 1.0, 1000).tolist()
    assert reputation.tolist() == again.uniform(0.0, 1.0, 1000).tolist()
    assert rng.bit_generator.state == again.bit_generator.state


# ---- whitewash decision ----------------------------------------------


class OneDraw:
    """A draw source that yields one given value, once."""

    def __init__(self, value: float):
        self.values = [value]

    def random(self) -> float:
        return self.values.pop()


def test_attempt_probability():
    # The agent attempts iff the draw is below its success rate, 1 before
    # the first attempt.
    for attempts, successes, rate in [(0, 0, 1.0), (4, 3, 0.75), (10, 0, 0.0)]:
        below, at = OneDraw(np.nextafter(rate, 0.0)), OneDraw(rate)
        expected = WhitewashOutcome.NO_ATTEMPT if rate == 0 else WhitewashOutcome.WHITEWASHED
        assert agents.decide_whitewash(0.2, attempts, successes, 0.5, below) is expected
        assert agents.decide_whitewash(0.2, attempts, successes, 0.5, at) is (
            WhitewashOutcome.NO_ATTEMPT
        )
        assert below.values == at.values == []


def test_first_attempt_is_certain_and_succeeds_on_generous_offer():
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(0.2, 0, 0, 0.5, rng) is WhitewashOutcome.WHITEWASHED


def test_attempt_fails_below_honesty():
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(0.2, 0, 0, 0.03, rng) is WhitewashOutcome.ATTEMPT_FAILED


def test_tie_counts_as_whitewash():
    rng = np.random.default_rng(0)
    assert agents.decide_whitewash(0.3, 0, 0, 0.3, rng) is WhitewashOutcome.WHITEWASHED


def test_hopeless_agent_never_attempts():
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert agents.decide_whitewash(0.2, 10, 0, 0.9, rng) is WhitewashOutcome.NO_ATTEMPT


def test_success_fraction_matches_uniform_cdf():
    """With uniform honesty, the fraction of first attempts that succeed at
    offer r converges to r."""
    rng = np.random.default_rng(5)
    offer = 0.35
    draws = 20000
    honesty = rng.uniform(0, 1, draws)
    wins = 0
    for h in honesty.tolist():
        if agents.decide_whitewash(h, 0, 0, offer, rng) is WhitewashOutcome.WHITEWASHED:
            wins += 1
    se = np.sqrt(offer * (1 - offer) / draws)
    assert abs(wins / draws - offer) < 3 * se
