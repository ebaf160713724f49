"""Walk through the economics that make whitewashing worth fighting.

A cooperative node pays to serve others and earns on its own requests once
its reputation settles; a free rider only ever collects the newcomer grant.
How long cooperation needs to catch up depends on what a fresh identity
costs: nothing, a finite price, or everything (identities are permanent).
"""

from __future__ import annotations

import math

from p2psim.payoff import (
    DEFAULT_ROUND_BUDGET,
    IdentityRegime,
    PayoffParams,
    closed_form_threshold,
    coop_payoff,
    crossover_round,
    defector_payoff,
    max_feasible_r_ini,
    r_ini_min_from_frontier,
)


def show_regime(p: PayoffParams, regime: IdentityRegime) -> None:
    k = crossover_round(p, regime)
    rounds = "never" if k == math.inf else f"round {k}"
    print(f"  {regime.value:12s} cooperation catches up: {rounds}")
    if k != math.inf:
        gap = coop_payoff(p, k, regime) - defector_payoff(p, k, regime)
        print(f"  {'':12s} lead at that round: {gap:+.4f}")


def main() -> None:
    p = PayoffParams(mu=0.5, x=0.5, r_ini=0.036, delta=0.0)
    print(f"newcomer grant {p.r_ini}, allocation exponent {p.x}, mean reputation {p.mu}")
    print()
    for regime in IdentityRegime:
        q = PayoffParams(mu=p.mu, x=p.x, r_ini=p.r_ini, delta=0.0,
                         z=1.0 if regime is IdentityRegime.FINITE_COST else 0.0)
        show_regime(q, regime)
        th = closed_form_threshold(q, regime)
        if th is not None:
            print(f"  {'':12s} closed-form threshold: {th:.4f} rounds")
    print()

    # The grant is the control knob: raise it too far and free identities
    # win forever. The frontier is the largest grant any exponent defends.
    r_star, x_star = max_feasible_r_ini(0.5)
    print(f"largest defensible grant: {r_star:.4f} (at exponent {x_star:.3f})")
    too_generous = PayoffParams(mu=0.5, x=x_star, r_ini=r_star + 0.01, delta=0.0)
    print(f"grant {too_generous.r_ini:.4f} instead: "
          f"crossover = {crossover_round(too_generous, IdentityRegime.ZERO_COST)}")

    # The estimator's offer floor is calibrated offline the same way, with a
    # deadline: the largest grant that some exponent still defends within
    # the round budget. The simulation's default floor is 0.03.
    floor = r_ini_min_from_frontier(0.5)
    print(f"offer floor for a {DEFAULT_ROUND_BUDGET}-round budget: {floor:.4f}")


if __name__ == "__main__":
    main()
