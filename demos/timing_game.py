"""The whitewash timing game: when should colluding resetters jump?

Offers fall quadratically with the number of simultaneous newcomers, so a
group of would-be whitewashers faces a lottery: rush together and split the
floor, or spread out and risk company anyway. Randomizing uniformly over
the rounds makes everyone exactly indifferent, and stretching the lottery
over more rounds never hurts.
"""

from __future__ import annotations

import numpy as np

from p2psim.game import (
    GameSpec,
    best_randomization_span,
    expected_payoffs,
    mixed_equilibrium,
    pure_strategy_analysis,
)


def main() -> None:
    spec = GameSpec(kappa=3, rounds=3)
    print(f"{spec.kappa} players, {spec.rounds} rounds, offers by co-arrival count:")
    for w, offer in enumerate(spec.schedule(), start=1):
        print(f"  {w} arriving together -> {offer:.4f}")
    print()

    pure = pure_strategy_analysis(spec)
    print(f"whitewashing weakly dominant: {pure.whitewash_weakly_dominant}")
    print(pure.collapse_note)
    print()

    residual = mixed_equilibrium(spec)
    lottery = np.full(spec.rounds, 1.0 / spec.rounds)
    print(f"equilibrium round lottery per player: {lottery.round(4)}")
    print(f"indifference residual: {residual:.2e}")
    payoffs = expected_payoffs(spec)
    for j, u in enumerate(payoffs):
        print(f"  player {j} (tolerance {spec.honesty[j]:.4f}): expected {u:.6f}")
    print()

    span = best_randomization_span(spec)
    print(f"best randomization span per player: {span.best_span_per_player}")
    print(f"full span weakly dominates shorter ones: {span.full_span_dominates}")
    for note in span.notes:
        print(f"note: {note}")


if __name__ == "__main__":
    main()
