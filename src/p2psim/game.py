"""Strategic analysis of whitewash timing.

When several low-honesty nodes could all reset their identities, each one's
newcomer grant depends on how many reset in the same round: offers fall
quadratically with the co-arrival count. This module states the one-shot
pure-strategy facts in closed form, checks the uniform mixed profile over a
window of rounds, computes exact expected payoffs by enumeration, and finds
the population-level operating point of the adaptive offer policy.

Every player draws its round from the uniform lottery, so every joint
assignment has one probability: 1/rounds multiplied in once per player, as
the scalar loops in tests/oracles.py multiply it. The enumeration runs in
blocks of at most ENUMERATION_BLOCK_ROWS joint assignments, in
itertools.product order, so memory stays flat as kappa grows. Each player's
terms are summed one at a time in enumeration order (np.cumsum along the
block, carried across blocks; np.sum may add pairwise), so every result is
the float those loops give, down to the rounding noise game-report prints
as the residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .estimator import offer_curve

ENUMERATION_TERM_CAP = 10**7  # terms one enumeration may form; see _check_enumerable
# Joint assignments enumerated per block: the enumeration's memory does not
# grow with kappa.
ENUMERATION_BLOCK_ROWS = 1 << 12
RESIDUAL_TOL = 1e-9


class NoEquilibriumError(RuntimeError):
    pass


class NoRootError(ValueError):
    pass


def reputation_schedule(kappa: int, r_ini_max: float, r_ini_min: float) -> list[float]:
    """Offer granted when w of kappa players whitewash together, for
    w = 1..kappa: quadratic decay with the floor applied at every step."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if not 0 <= r_ini_min < r_ini_max <= 1:
        raise ValueError("need 0 <= r_ini_min < r_ini_max <= 1")
    return [offer_curve(w / kappa, r_ini_max, r_ini_min) for w in range(1, kappa + 1)]


@dataclass(frozen=True)
class GameSpec:
    """kappa players choosing when (within `rounds` rounds) to whitewash.

    Player j accepts an offer only if it reaches j's honesty threshold;
    thresholds default to the schedule itself, so player j tolerates exactly
    the offers produced by up to j co-arrivals.
    """

    kappa: int
    rounds: int
    r_ini_max: float = 0.5
    r_ini_min: float = 0.03
    honesty: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kappa < 1 or self.rounds < 1:
            raise ValueError("kappa and rounds must be >= 1")
        if not 0 <= self.r_ini_min < self.r_ini_max <= 1:
            raise ValueError("need 0 <= r_ini_min < r_ini_max <= 1")
        if self.honesty is None:
            object.__setattr__(
                self,
                "honesty",
                tuple(reputation_schedule(self.kappa, self.r_ini_max, self.r_ini_min)),
            )
        if len(self.honesty) != self.kappa:
            raise ValueError("need one honesty threshold per player")
        if any(not 0 <= h <= 1 for h in self.honesty):
            raise ValueError("honesty thresholds must be in [0, 1]")
        if any(a < b for a, b in zip(self.honesty, self.honesty[1:])):
            raise ValueError("honesty thresholds must be non-increasing")

    def schedule(self) -> list[float]:
        return reputation_schedule(self.kappa, self.r_ini_max, self.r_ini_min)


@dataclass(frozen=True)
class PureStrategyReport:
    kappa: int
    whitewash_weakly_dominant: bool
    all_whitewash_payoff: float
    collapse_note: str


@dataclass(frozen=True)
class SpanReport:
    kappa: int
    spans: tuple[int, ...]
    payoffs_by_span: dict  # span -> payoff tuple
    best_span_per_player: tuple[int, ...]
    full_span_dominates: bool
    every_round_payoffs: tuple[float, ...]  # whitewash all rounds vs. randomizers
    notes: tuple[str, ...] = field(default=())


# ---- pure strategies ---------------------------------------------------


def pure_strategy_analysis(spec: GameSpec) -> PureStrategyReport:
    """Whether whitewashing weakly dominates in the one-shot whitewash/abstain
    game, and what everyone whitewashing pays.

    Payoffs are the raw offers (acceptance filtering belongs to the timing
    game). An abstainer gets 0 and a whitewasher among w (itself included)
    the schedule offer for w, so whitewashing weakly dominates exactly when
    no offer is below 0, as the floor r_ini_min >= 0 ensures, and everyone
    whitewashing pays the last offer. The 2^kappa payoff table is the oracle
    in tests/oracles.py.
    """
    if spec.kappa < 2:
        raise ValueError("dominance analysis needs at least 2 players")
    schedule = spec.schedule()
    all_w = schedule[-1]
    note = (
        f"all-whitewash pays the floor ({all_w:g}); an identity reset that "
        "only recovers the floor is not worth taking, so the realized payoff "
        "of the simultaneous rush collapses to 0"
    )
    return PureStrategyReport(spec.kappa, min(schedule) >= 0.0, all_w, note)


# ---- mixed strategies ---------------------------------------------------


def _check_enumerable(spec: GameSpec) -> None:
    """Refuse a spec whose enumeration forms more than ENUMERATION_TERM_CAP
    terms: kappa * rounds^kappa for the payoffs or the residual, plus kappa^2
    for the realized-offer table. kappa^2 and rounds are each at most that
    count, so testing them first keeps rounds^kappa small."""
    kappa, rounds, cap = spec.kappa, spec.rounds, ENUMERATION_TERM_CAP
    if max(kappa * kappa, rounds) > cap or kappa * (rounds**kappa + kappa) > cap:
        raise ValueError(f"enumeration supports at most {cap} terms")


def _assignment_prob(players: int, rounds: int) -> float:
    """The probability of each joint round assignment of `players` uniform
    players: 1/rounds multiplied in once per player, in player order."""
    prob = 1.0
    for _ in range(players):
        prob *= 1.0 / rounds
    return prob


def _blocks(players: int, rounds: int):
    """Every joint round assignment of `players` players, in
    itertools.product order, as blocks of at most ENUMERATION_BLOCK_ROWS
    rows.

    A block fixes the rounds of the leading "head" players and runs through
    every assignment of the last m, rounds^m rows. Yields (counts, head,
    tail_seat): the (rounds, rows) count of players per round, the head's
    rounds (a head player in round r arrives with counts[r]) and the (m, rows)
    flat index into counts of each tail player's own round."""
    m = 0
    while m < players and rounds ** (m + 1) <= ENUMERATION_BLOCK_ROWS:
        m += 1
    rows = rounds**m
    tail_seat = np.indices((rounds,) * m).reshape(m, rows) * rows + np.arange(rows)
    tail_counts = np.bincount(tail_seat.ravel(), minlength=rounds * rows).reshape(rounds, rows)
    for head in itertools.product(range(rounds), repeat=players - m):
        counts = tail_counts + np.bincount(head, minlength=rounds)[:, None]
        yield counts, head, tail_seat


def _realized_offers(spec: GameSpec) -> np.ndarray:
    """(kappa, kappa + 1) table of what player j realizes when c players
    arrive together: the schedule offer if it reaches j's honesty, else 0.0
    (column 0 is never read)."""
    offers = np.array([0.0] + spec.schedule())
    return np.where(offers >= np.array(spec.honesty, dtype=float)[:, None], offers, 0.0)


def _running_sum(carry: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """carry plus the rows of `terms` added one at a time in row order, per
    column, as `total += term` in a loop would (np.sum may add pairwise and
    round differently)."""
    terms[0] += carry
    return np.cumsum(terms, axis=0)[-1]


def expected_payoffs(spec: GameSpec) -> np.ndarray:
    """Exact per-player expected payoff under the uniform round lottery, by
    enumerating all rounds^kappa joint assignments. A player realizes the
    schedule offer for its round's co-arrival count, or 0 if that offer
    falls below its honesty."""
    _check_enumerable(spec)
    realized = _realized_offers(spec)
    row_start = (np.arange(spec.kappa) * realized.shape[1])[:, None]  # player j's row, flat
    prob = _assignment_prob(spec.kappa, spec.rounds)
    result = np.zeros(spec.kappa)
    for counts, head, tail_seat in _blocks(spec.kappa, spec.rounds):
        co = np.concatenate((counts[list(head)], counts.take(tail_seat)))
        terms = realized.take(row_start + co) * prob
        result = _running_sum(result, terms.T)
    return result


def indifference_residual(spec: GameSpec) -> float:
    """Worst per-player spread, across rounds, of the conditional expected
    payoff under the uniform round lottery; 0 at an exact mixed equilibrium.

    Every player faces the same kappa - 1 uniform others, so their
    rounds^(kappa-1) joint assignments are enumerated once, and each block
    adds its terms to every player's conditional payoff in each round, in
    the order expected_payoffs adds its terms."""
    _check_enumerable(spec)
    # Row c: what each player realizes when c others arrive in its round.
    arriving = _realized_offers(spec)[:, 1:].T
    prob = _assignment_prob(spec.kappa - 1, spec.rounds)
    conditional = np.zeros((spec.rounds, spec.kappa))
    for counts, _, _ in _blocks(spec.kappa - 1, spec.rounds):
        conditional = _running_sum(conditional, arriving.take(counts.T, axis=0) * prob)
    return float(np.ptp(conditional, axis=0).max())


def mixed_equilibrium(spec: GameSpec) -> float:
    """Check the uniform round lottery against the indifference system and
    return the residual it measured.

    With every opponent uniform, a player's co-arrival count has the same
    distribution whatever round it picks, so the uniform lottery should make
    everyone exactly indifferent; this is checked, not assumed.
    """
    if spec.rounds < 2:
        raise ValueError("mixed analysis needs at least 2 rounds")
    if spec.rounds > spec.kappa:
        raise ValueError("rounds must not exceed the player count")
    residual = indifference_residual(spec)
    if residual >= RESIDUAL_TOL:
        raise NoEquilibriumError(
            f"uniform profile misses indifference by {residual:g}"
        )
    return residual


def best_randomization_span(spec: GameSpec) -> SpanReport:
    """Compare uniform randomization over 2..kappa rounds.

    Reports per-player best spans, whether the full span weakly dominates
    shorter ones, and the payoff of defecting from the lottery by
    whitewashing in every round (each round is an independent draw of the
    same co-arrival distribution, so it is span times the one-shot value).
    """
    if spec.kappa < 2:
        raise ValueError("span comparison needs at least 2 players")
    spans = tuple(range(2, spec.kappa + 1))
    payoffs_by_span = {}
    for span in spans:
        sub = GameSpec(
            spec.kappa, span, spec.r_ini_max, spec.r_ini_min, honesty=spec.honesty
        )
        payoffs_by_span[span] = tuple(expected_payoffs(sub))
    best = tuple(
        max(spans, key=lambda s: payoffs_by_span[s][j]) for j in range(spec.kappa)
    )
    full = spec.kappa
    dominates = all(
        payoffs_by_span[full][j] >= payoffs_by_span[s][j] - 1e-12
        for s in spans
        for j in range(spec.kappa)
    )
    every_round = tuple(full * u for u in payoffs_by_span[full])
    notes = [
        "payoffs are exact enumerations over all joint round assignments",
        "whitewashing every round instead of once breaks the lottery's "
        "premise and pays span times the equilibrium value",
    ]
    if spec.kappa == 3 and spec.honesty == tuple(spec.schedule()):
        u3 = payoffs_by_span[3][2]
        shorthand = 18 / 81 * spec.r_ini_max + 1 / 9 * spec.r_ini_min
        notes.append(
            "three-player caution: hand tallies that credit the most tolerant "
            f"player only 18/81 of the ceiling ({shorthand:.6g}) undercount the "
            f"mixed co-arrival cases; enumeration gives 20/81 plus 1/9 of the "
            f"floor ({u3:.6g})"
        )
    return SpanReport(
        spec.kappa, spans, payoffs_by_span, best, dominates, every_round, tuple(notes)
    )


# ---- population operating point -----------------------------------------


def fixed_point(r_ini_max: float, r_ini_min: float, w_max: float) -> float:
    """Self-consistent whitewash level of the adaptive offer policy.

    With uniform honesty, the fraction of agents willing to reset at offer R
    is R itself, so the operating point solves
    W = max(r_ini_min, (1 - W/w_max)^2 * r_ini_max). Bisection to 1e-9.
    """
    if not 0 < w_max <= 1:
        raise ValueError("w_max must be in (0, 1]")
    if not 0 <= r_ini_min <= 1 or not 0 <= r_ini_max <= 1:
        raise ValueError("reputation bounds must be in [0, 1]")

    def f(w: float) -> float:
        return offer_curve(w / w_max, r_ini_max, r_ini_min) - w

    lo, hi = 0.0, w_max
    if f(lo) < 0 or f(hi) > 0:
        raise NoRootError("offer curve does not cross the diagonal in [0, w_max]")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
