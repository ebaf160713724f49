"""Closed-form payoff economics of cooperation versus identity churn.

Compares the expected cumulative payoff of a cooperative node against a
defector under three identity regimes: permanent (defect once, live with the
dead identity), zero-cost (dump the identity and rejoin every round for
free), and finite-cost (same, but each new identity costs z). Every flow
is counted in resource quanta, one per request served in full. The crossing
point of the two payoff curves is the number of rounds a newcomer must be
made to wait before cooperation wins.

In every regime the gap coop - defector is affine in the round k, so
crossover_round solves for the root from the gaps at k = 1, 2 and evaluates
the same vectorized gap only on the rounds around it that a float error
bound leaves undecided. It returns the round a walk over 1..cap would; the
walk itself is the oracle in tests/oracles.py.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_CROSSOVER_CAP = 1_000_000
DEFAULT_ROUND_BUDGET = 50

# Roundings of the gap's term magnitudes allowed per round by the crossover
# window: several times the worst case, about 20 for the gap and the line
# through gap(1) and gap(2) together.
_GAP_ERROR_ULPS = 128
# Rounds evaluated per vectorized block when the window is wide.
_SCAN_BLOCK = 65536

# grid resolution for the numeric optimizer, refined afterwards
_GRID_STEP = 1e-3
_REFINE_TOL = 1e-12
_FLOOR_X_GRID = np.arange(0.01, 1.0, 0.005)


class IdentityRegime(enum.Enum):
    PERMANENT = "permanent"
    ZERO_COST = "zero_cost"
    FINITE_COST = "finite_cost"


class CrossoverCapExceeded(RuntimeError):
    """The payoff gap is still closing at the iteration cap; the crossover
    exists but lies beyond it."""


class InfeasibleRegionError(ValueError):
    """No exponent admits a positive newcomer reputation under the given
    service ratio."""


@dataclass(frozen=True)
class PayoffParams:
    mu: float = 0.5  # mean reputation of cooperative peers
    x: float = 0.5  # allocation exponent
    r_ini: float = 0.03  # reputation granted to a newcomer
    delta: float = 1e-6  # per-round gain from simply being served at all
    z: float = 0.0  # price of a fresh identity, in request quanta
    m: float = 1.0  # requests served per round
    m_prime: float = 1.0  # requests issued per round

    def __post_init__(self):
        if not 0 < self.mu <= 1:
            raise ValueError("mu must be in (0, 1]")
        if self.x <= 0:
            raise ValueError("x must be positive")
        if not 0 <= self.r_ini <= 1:
            raise ValueError("r_ini must be in [0, 1]")
        if self.delta < 0 or self.z < 0:
            raise ValueError("delta and z must be non-negative")
        if self.m < 0 or self.m_prime < 0:
            raise ValueError("m and m_prime must be non-negative")


def _check_regime(p: PayoffParams, regime: IdentityRegime) -> None:
    if regime is IdentityRegime.FINITE_COST and p.z <= 0:
        raise ValueError("finite_cost regime requires z > 0")
    if regime is IdentityRegime.ZERO_COST and p.z != 0:
        raise ValueError("zero_cost regime requires z = 0")


def coop_payoff(p: PayoffParams, k, regime: IdentityRegime = IdentityRegime.PERMANENT):
    """Expected cumulative payoff of a cooperative node after k rounds.

    Each round it serves m requests (outflow m·μ^x) and issues m' requests,
    served at its own reputation: r_ini^x in the first round, (μ^x)^x after.
    Accepts a scalar or array k.
    """
    _check_regime(p, regime)
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("k must be >= 1")
    mu_x = p.mu**p.x
    total = (
        -k * p.m * mu_x
        + (k - 1) * p.m_prime * mu_x**p.x
        + p.m_prime * p.r_ini**p.x
        + k * p.delta
    )
    if regime is IdentityRegime.FINITE_COST:
        total = total - p.z
    return total if total.ndim else float(total)


def defector_payoff(p: PayoffParams, k, regime: IdentityRegime = IdentityRegime.PERMANENT):
    """Expected cumulative payoff of a free rider after k rounds.

    A permanent identity exploits its newcomer reputation once and is then
    starved; identity churn repeats the exploitation every round, paying z
    per fresh identity in the finite-cost regime. Accepts scalar or array k.
    """
    _check_regime(p, regime)
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("k must be >= 1")
    round_take = p.m_prime * p.r_ini**p.x + p.delta
    if regime is IdentityRegime.PERMANENT:
        total = np.full_like(k, round_take, dtype=float)
    elif regime is IdentityRegime.ZERO_COST:
        total = k * round_take
    else:
        total = k * (round_take - p.z)
    return total if total.ndim else float(total)


def _gap(p: PayoffParams, ks: np.ndarray, regime: IdentityRegime) -> np.ndarray:
    return coop_payoff(p, ks, regime) - defector_payoff(p, ks, regime)


def _gap_error_per_round(p: PayoffParams) -> float:
    """A bound, per unit of k, on how far the float gap at k can sit from
    the line through the float gaps at k = 1, 2: _GAP_ERROR_ULPS roundings
    of the sum of the magnitudes of every constant and per-round
    coefficient in coop_payoff and defector_payoff (at k >= 1 that sum
    times k bounds every partial sum), plus as many of the smallest
    subnormal for underflow."""
    mu_x = p.mu**p.x
    served = p.m_prime * mu_x**p.x  # per round, and once as a constant
    grant = p.m_prime * p.r_ini**p.x
    take = grant + p.delta
    scale = p.m * mu_x + 2 * served + grant + p.delta + p.z + take + abs(take - p.z)
    return _GAP_ERROR_ULPS * (sys.float_info.epsilon * scale + math.ulp(0.0))


def _reach(intercept: float, slope: float) -> tuple[float, float]:
    """(first, last): the real k >= 1 where intercept + slope * k >= 0 runs
    from first to last; (inf, -inf) when there is none."""
    if slope > 0:
        return max(1.0, -intercept / slope), math.inf
    if intercept + slope < 0:  # the line is highest at k = 1
        return math.inf, -math.inf
    return 1.0, math.inf if slope == 0 else intercept / -slope


def _crossover_window(p: PayoffParams, regime: IdentityRegime, cap: int) -> tuple[int, int]:
    """Rounds [lo, hi] within 1..cap that hold the first k with gap >= 0, if
    one exists: before lo the float gap is surely < 0, and at hi, when hi is
    below cap, surely >= 0. Empty (lo > hi) when no k in 1..cap can reach 0.

    The exact gap is affine in k. From g1 = gap(1) and slope = gap(2) - g1
    it crosses 0 at 1 - g1/slope; the window is that point widened by the
    float error bound, which keeps it a few rounds wide unless the slope is
    within rounding of 0."""
    g1, g2 = (float(g) for g in _gap(p, np.array([1, 2]), regime))
    slope = g2 - g1
    intercept = g1 - slope
    tol = _gap_error_per_round(p)
    if not all(map(math.isfinite, (g1, g2, slope, intercept, tol))):
        return 1, cap
    first, last = _reach(intercept, slope + tol)  # where the gap may be >= 0
    sure, _ = _reach(intercept, slope - tol)  # from where it surely is
    # One round of margin each way covers the rounding of these bounds.
    lo = max(1, math.floor(min(first, cap + 2.0)) - 1)
    hi = min(cap, math.ceil(max(min(last, sure, float(cap)), 0.0)) + 1)
    return lo, hi


def crossover_round(
    p: PayoffParams, regime: IdentityRegime, cap: int = DEFAULT_CROSSOVER_CAP
):
    """Smallest k in 1..cap where cooperation has caught up with defection.

    Solves the affine gap for its root and evaluates the vectorized gap on
    the window of rounds the float error bound leaves undecided
    (_crossover_window), so the result is the first k a walk over every
    round would find. Returns math.inf when the gap can never close; raises
    CrossoverCapExceeded when the gap is still closing at the cap.
    """
    _check_regime(p, regime)
    lo, hi = _crossover_window(p, regime, cap)
    for start in range(lo, hi + 1, _SCAN_BLOCK):
        ks = np.arange(start, min(start + _SCAN_BLOCK, hi + 1))
        hits = np.flatnonzero(_gap(p, ks, regime) >= 0)
        if hits.size:
            return int(ks[hits[0]])
    diff = _gap(p, np.array([cap, cap + 1]), regime)
    if diff[1] - diff[0] <= 0:
        return math.inf
    raise CrossoverCapExceeded(f"no crossover within {cap} rounds, gap still closing")


def closed_form_threshold(p: PayoffParams, regime: IdentityRegime) -> float | None:
    """Real-valued round threshold where the payoff curves cross, for the
    delta = 0 idealization. None when cooperation never catches up."""
    _check_regime(p, regime)
    if p.delta != 0:
        raise ValueError("closed forms hold for delta = 0")
    mu_x = p.mu**p.x
    mu_xx = mu_x**p.x
    r_x = p.r_ini**p.x
    if regime is IdentityRegime.PERMANENT:
        num = p.m_prime * mu_xx
        den = p.m_prime * mu_xx - p.m * mu_x
    elif regime is IdentityRegime.ZERO_COST:
        num = p.m_prime * mu_xx - p.m_prime * r_x
        den = p.m_prime * mu_xx - p.m * mu_x - p.m_prime * r_x
    else:
        num = p.m_prime * mu_xx - p.m_prime * r_x + p.z
        den = p.m_prime * mu_xx - p.m * mu_x - p.m_prime * r_x + p.z
    if den <= 0:
        return None
    return num / den


def _ternary_min(f, lo: float, hi: float) -> float:
    while hi - lo > _REFINE_TOL:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


def optimal_x_permanent(mu: float = 0.5) -> float:
    """Exponent minimizing the permanent-identity threshold: 1/2 for every mu
    in (0, 1), as mu^(x^2) / (mu^(x^2) - mu^x) = 1 / (1 - mu^(x(1 - x))) is
    least where x(1 - x) is largest. tests/oracles.py searches for it."""
    if not 0 < mu < 1:
        raise ValueError("mu must be in (0, 1)")
    return 0.5


def feasibility_boundary(mu: float, x: float, m_ratio: float = 1.0) -> float:
    """Largest newcomer reputation at which churning every round stops being
    strictly dominant, at a fixed exponent. Zero when no positive value works."""
    base = mu ** (x * x) - m_ratio * mu**x
    if base <= 0:
        return 0.0
    return base ** (1.0 / x)


def max_feasible_r_ini(mu: float, m_ratio: float = 1.0) -> tuple[float, float]:
    """Maximize the feasibility boundary over the exponent.

    Returns (r_star, x_star): the largest newcomer reputation that any
    exponent can defend, and the exponent achieving it.
    """
    if not 0 < mu < 1:
        raise ValueError("mu must be in (0, 1)")
    if m_ratio <= 0:
        raise ValueError("m_ratio must be positive")
    xs = np.arange(_GRID_STEP, 1.0, _GRID_STEP)
    values = [feasibility_boundary(mu, float(x), m_ratio) for x in xs]
    best_i = int(np.argmax(values))
    if values[best_i] <= 0:
        raise InfeasibleRegionError(
            f"no exponent admits a positive newcomer reputation at mu={mu}, m_ratio={m_ratio}"
        )
    lo = max(xs[best_i] - _GRID_STEP, 1e-9)
    hi = min(xs[best_i] + _GRID_STEP, 1 - 1e-9)
    x_star = _ternary_min(lambda x: -feasibility_boundary(mu, x, m_ratio), lo, hi)
    return feasibility_boundary(mu, x_star, m_ratio), x_star


def r_ini_min_from_frontier(
    mu: float, m_ratio: float = 1.0, round_budget: int = DEFAULT_ROUND_BUDGET
) -> float:
    """Offline calibration for the estimator's offer floor: the largest
    newcomer reputation at which some exponent still lets cooperation catch
    up with identity churn within `round_budget` rounds. Returns 0.0 when
    even a zero grant cannot meet the budget."""
    if not 0 < mu < 1:
        raise ValueError("mu must be in (0, 1)")
    if round_budget < 1:
        raise ValueError("round_budget must be >= 1")
    r_star, _ = max_feasible_r_ini(mu, m_ratio)

    def best_rounds(r: float) -> float:
        best = math.inf
        for x in _FLOOR_X_GRID:
            p = PayoffParams(mu=mu, x=float(x), r_ini=r, delta=0.0, m=m_ratio)
            th = closed_form_threshold(p, IdentityRegime.ZERO_COST)
            if th is not None:
                best = min(best, th)
        return best

    if best_rounds(0.0) > round_budget:
        return 0.0
    lo, hi = 0.0, r_star
    for _ in range(60):
        mid = (lo + hi) / 2
        if best_rounds(mid) <= round_budget:
            lo = mid
        else:
            hi = mid
    return lo
