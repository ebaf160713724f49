from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles
from p2psim import payoff
from p2psim.payoff import (
    CrossoverCapExceeded,
    IdentityRegime,
    InfeasibleRegionError,
    PayoffParams,
)

PERM = IdentityRegime.PERMANENT
ZERO = IdentityRegime.ZERO_COST
FINITE = IdentityRegime.FINITE_COST


# ---- independent round-by-round ledger oracle -------------------------
#
# Accumulates per-round flows directly instead of using the closed forms:
# the cooperative node pays for m served requests and collects on m' own
# requests at whatever reputation it carried into the round; the defector
# variants collect their newcomer take once, every round, or every round
# minus the identity price.


def ledger_coop(p: PayoffParams, k: int, regime: IdentityRegime) -> float:
    total = 0.0
    for j in range(1, k + 1):
        rep_in = p.r_ini if j == 1 else p.mu**p.x
        total += -p.m * p.mu**p.x + p.m_prime * rep_in**p.x + p.delta
    if regime is FINITE:
        total -= p.z
    return total


def ledger_defector(p: PayoffParams, k: int, regime: IdentityRegime) -> float:
    total = 0.0
    for j in range(1, k + 1):
        take = p.m_prime * p.r_ini**p.x + p.delta
        if regime is PERM:
            total += take if j == 1 else 0.0
        elif regime is ZERO:
            total += take
        else:
            total += take - p.z
    return total


def random_params(rng: np.random.Generator, z_positive: bool) -> PayoffParams:
    return PayoffParams(
        mu=float(rng.uniform(0.05, 1.0)),
        x=float(rng.uniform(0.05, 1.0)),
        r_ini=float(rng.uniform(0.0, 1.0)),
        delta=float(rng.uniform(0.0, 0.01)),
        z=float(rng.uniform(0.01, 2.0)) if z_positive else 0.0,
        m=float(rng.integers(1, 5)),
        m_prime=float(rng.integers(1, 5)),
    )


# ---- params ------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        PayoffParams(mu=0.0)
    with pytest.raises(ValueError):
        PayoffParams(x=0.0)
    with pytest.raises(ValueError):
        PayoffParams(r_ini=1.5)
    with pytest.raises(ValueError):
        PayoffParams(delta=-1.0)
    PayoffParams(x=1.5)  # exponents above 1 are legal for analysis


def test_regime_consistency_enforced():
    with pytest.raises(ValueError):
        payoff.coop_payoff(PayoffParams(z=0.0), 1, FINITE)
    with pytest.raises(ValueError):
        payoff.defector_payoff(PayoffParams(z=0.5), 1, ZERO)


# ---- payoff ledgers ----------------------------------------------------


def test_coop_first_round():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=2e-3)
    expected = -p.m * p.mu**p.x + p.m_prime * p.r_ini**p.x + p.delta
    assert payoff.coop_payoff(p, 1, PERM) == pytest.approx(expected, abs=1e-15)


def test_coop_ideal_system_is_flat_zero():
    p = PayoffParams(mu=1.0, x=0.5, r_ini=1.0, delta=0.0)
    for k in (1, 5, 100):
        assert payoff.coop_payoff(p, k, PERM) == pytest.approx(0.0, abs=1e-12)


def test_coop_k10_frozen_value():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=0.0)
    assert payoff.coop_payoff(p, 10, PERM) == pytest.approx(
        0.6867365850280586, abs=1e-12
    )
    assert ledger_coop(p, 10, PERM) == pytest.approx(0.6867365850280586, abs=1e-12)


def test_defector_permanent_is_one_shot():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=1e-3)
    assert payoff.defector_payoff(p, 100, PERM) == payoff.defector_payoff(p, 1, PERM)


def test_defector_zero_cost_two_rounds():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=1e-3)
    expected = 2 * (p.m_prime * p.r_ini**p.x + p.delta)
    assert payoff.defector_payoff(p, 2, ZERO) == pytest.approx(expected, abs=1e-15)


def test_defector_finite_cost_cancels():
    p0 = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=1e-3)
    z = p0.m_prime * p0.r_ini**p0.x + p0.delta
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=1e-3, z=z)
    for k in (1, 7, 50):
        assert payoff.defector_payoff(p, k, FINITE) == pytest.approx(0.0, abs=1e-12)


def test_ledgers_match_oracle_on_random_grid():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        for regime in (PERM, ZERO, FINITE):
            p = random_params(rng, z_positive=regime is FINITE)
            k = int(rng.integers(1, 101))
            assert payoff.coop_payoff(p, k, regime) == pytest.approx(
                ledger_coop(p, k, regime), abs=1e-12, rel=1e-12
            )
            assert payoff.defector_payoff(p, k, regime) == pytest.approx(
                ledger_defector(p, k, regime), abs=1e-12, rel=1e-12
            )


# ---- crossover ---------------------------------------------------------


def test_crossover_ideal_network_unbounded():
    p = PayoffParams(mu=1.0, x=0.5, r_ini=0.036, delta=0.0)
    assert payoff.crossover_round(p, PERM) == math.inf


def test_crossover_permanent_default_point():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=0.0)
    assert payoff.crossover_round(p, PERM) == 7
    assert payoff.closed_form_threshold(p, PERM) == pytest.approx(
        6.2852135078832445, abs=1e-12
    )


def test_crossover_zero_cost_above_boundary_unbounded():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.05, delta=0.0)
    assert payoff.closed_form_threshold(p, ZERO) is None
    assert payoff.crossover_round(p, ZERO) == math.inf


def test_crossover_matches_closed_form_within_one_round():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        regime = [PERM, ZERO, FINITE][int(rng.integers(3))]
        p = random_params(rng, z_positive=regime is FINITE)
        p = PayoffParams(
            mu=p.mu, x=p.x, r_ini=p.r_ini, delta=0.0, z=p.z, m=p.m, m_prime=p.m_prime
        )
        th = payoff.closed_form_threshold(p, regime)
        if th is None or th > 5e5:
            continue
        k = payoff.crossover_round(p, regime)
        assert k != math.inf
        assert abs(k - th) <= 1.0, (p, regime, k, th)
        checked += 1
    assert checked > 50


def test_crossover_zero_cost_example():
    p = PayoffParams(mu=0.5, x=0.7, r_ini=0.02, delta=0.0)
    th = payoff.closed_form_threshold(p, ZERO)
    assert th == pytest.approx(20.36968273634687, abs=1e-9)
    assert payoff.crossover_round(p, ZERO) == 21


def test_crossover_cap_exceeded():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=0.0)
    with pytest.raises(CrossoverCapExceeded):
        payoff.crossover_round(p, PERM, cap=5)


def crossover_outcome(solve, p, regime, cap):
    try:
        return solve(p, regime, cap=cap)
    except CrossoverCapExceeded:
        return f">{cap}"


def assert_matches_scan(p, regime, caps):
    for cap in caps:
        got = crossover_outcome(payoff.crossover_round, p, regime, cap)
        want = crossover_outcome(oracles.crossover_round, p, regime, cap)
        assert got == want and type(got) is type(want), (p, regime, cap, got, want)


def test_crossover_matches_scan_on_random_params():
    rng = np.random.default_rng(11)
    outcomes = set()
    for i in range(900):
        regime = [PERM, ZERO, FINITE][i % 3]
        p = random_params(rng, z_positive=regime is FINITE)
        p = dataclasses.replace(
            p,
            mu=float(rng.choice([p.mu, 1.0])),
            delta=float(rng.choice([0.0, 1e-15, 1e-6, p.delta])),
            m=float(rng.choice([p.m, 0.0, float(rng.uniform(0, 3))])),
        )
        cap = int(rng.choice([1, 2, 5, 100, 10**4, 10**5]))
        assert_matches_scan(p, regime, [cap])
        outcomes.add(type(crossover_outcome(oracles.crossover_round, p, regime, cap)))
    assert outcomes == {int, float, str}  # a round, inf and >cap all occur


def affine_gap_params(rng, kind):
    """Params whose exact gap crosses 0 on or next to an integer, or whose
    slope is within a few ulps of 0 (delta = 0, c = m' = 1)."""
    mu, x = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 1.0))
    r = float(rng.uniform(0, 1)) * mu**x
    mu_x = mu**x
    d = mu_x**x - r**x  # zero-cost gap: -d + k (d - m mu^x)
    if kind == "integer root":  # root at an integer or just off one
        k0 = float(rng.integers(1, 5000)) + float(rng.choice([0.0, 1e-9, -1e-9, 0.5]))
        return PayoffParams(mu=mu, x=x, r_ini=r, delta=0.0, m=max(d - d / k0, 0.0) / mu_x), ZERO
    if kind == "flat":  # slope 0 up to a few ulps, intercept near 0 too
        r = mu**x
        ulps = float(rng.integers(-50, 50)) * 2.0**-52
        m = float(rng.choice([0.0, 2.0 ** -float(rng.integers(40, 60))])) * (1 + ulps)
        return PayoffParams(mu=mu, x=x, r_ini=r, delta=0.0, m=m), ZERO
    if kind == "nearly flat":  # relative slope 1e-13 .. 1e-8
        m = d / mu_x * (1 - float(rng.uniform(1e-13, 1e-8)))
        return PayoffParams(mu=mu, x=x, r_ini=r, delta=0.0, m=m), ZERO
    k0 = float(rng.integers(1, 5000))  # permanent: -mu^xx + k (mu^xx - m mu^x)
    return PayoffParams(mu=mu, x=x, r_ini=r, delta=0.0, m=(mu_x**x - mu_x**x / k0) / mu_x), PERM


@pytest.mark.parametrize("kind", ["integer root", "flat", "nearly flat", "permanent root"])
def test_crossover_matches_scan_at_the_edges(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(150):
        p, regime = affine_gap_params(rng, kind)
        k = crossover_outcome(oracles.crossover_round, p, regime, 10**5)
        caps = [10**5, 7, 1]
        if isinstance(k, int):  # the crossover exactly at cap, and one round past it
            caps += [k, max(k - 1, 1), k + 1]
        assert_matches_scan(p, regime, caps)


def test_crossover_window_is_a_few_rounds_on_the_default_sweep():
    for x in (0.25, 0.5, 0.75, 1.0):
        for r in (0.0, 0.03, 0.1, 0.3, 0.5):
            for regime in IdentityRegime:
                p = PayoffParams(x=x, r_ini=r, delta=0.0, z=1.0 if regime is FINITE else 0.0)
                lo, hi = payoff._crossover_window(p, regime, payoff.DEFAULT_CROSSOVER_CAP)
                assert hi - lo < 5, (x, r, regime, lo, hi)


def test_crossover_monotone_in_r_ini_and_z():
    ks = []
    for r in (0.001, 0.005, 0.01, 0.015, 0.017):
        p = PayoffParams(mu=0.5, x=0.5, r_ini=r, delta=0.0)
        ks.append(payoff.crossover_round(p, ZERO))
    assert ks == sorted(ks)
    ks = []
    for z in (0.05, 0.1, 0.2, 0.4):
        p = PayoffParams(mu=0.5, x=0.5, r_ini=0.05, delta=0.0, z=z)
        ks.append(payoff.crossover_round(p, FINITE))
    assert ks == sorted(ks, reverse=True)


def test_finite_cost_threshold_limits_to_one():
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.05, delta=0.0, z=1e6)
    assert payoff.closed_form_threshold(p, FINITE) == pytest.approx(1.0, abs=1e-4)


def test_steep_exponent_keeps_cooperation_underwater():
    for x in (1.1, 1.5, 2.0):
        for mu in (0.3, 0.5, 0.8):
            p = PayoffParams(mu=mu, x=x, r_ini=mu / 2, delta=0.0)
            ks = np.arange(1, 1001)
            assert np.all(payoff.coop_payoff(p, ks, PERM) < 0), (x, mu)


# ---- optimizers --------------------------------------------------------


def test_optimal_x_is_half():
    assert payoff.optimal_x_permanent() == 0.5
    for mu in (0.05, 0.2, 0.5, 0.9, 0.99):
        assert payoff.optimal_x_permanent(mu) == 0.5
        # The oracle's value-comparison search on a flat quadratic bottom
        # resolves x only to about sqrt(machine eps).
        assert oracles.optimal_x_permanent(mu) == pytest.approx(0.5, abs=1e-6), mu


def test_optimal_x_rejects_mu_outside_the_open_unit_interval():
    for mu in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            payoff.optimal_x_permanent(mu)


def test_threshold_unimodal_around_half():
    for mu in (0.2, 0.5, 0.9):
        def th(x):
            p = PayoffParams(mu=mu, x=x, r_ini=0.01, delta=0.0)
            return payoff.closed_form_threshold(p, PERM)

        assert th(0.5) < th(0.3)
        assert th(0.5) < th(0.7)


def test_feasibility_boundary_point():
    assert payoff.feasibility_boundary(0.5, 0.5) == pytest.approx(
        0.017899666183826463, abs=1e-12
    )
    assert payoff.feasibility_boundary(0.5, 0.5, m_ratio=2.0) == 0.0


def test_frontier_maximum():
    r_star, x_star = payoff.max_feasible_r_ini(0.5)
    assert r_star == pytest.approx(0.036, abs=0.002)
    assert 0.65 <= x_star <= 0.80


def test_frontier_vanishes_near_perfect_cooperation():
    r_star, _ = payoff.max_feasible_r_ini(0.999)
    assert r_star < 1e-3


def test_frontier_infeasible_when_serving_dominates():
    with pytest.raises(InfeasibleRegionError):
        payoff.max_feasible_r_ini(0.5, m_ratio=2.0)


def test_boundary_separates_finite_from_unbounded():
    b = payoff.feasibility_boundary(0.5, 0.5)
    below = PayoffParams(mu=0.5, x=0.5, r_ini=b * 0.9, delta=0.0)
    above = PayoffParams(mu=0.5, x=0.5, r_ini=b * 1.1, delta=0.0)
    assert payoff.crossover_round(below, ZERO) != math.inf
    assert payoff.crossover_round(above, ZERO) == math.inf
