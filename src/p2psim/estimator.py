"""Per-node whitewash-level estimation and adaptive newcomer reputation.

Each node watches its neighborhood for arrivals that growth and legitimate
departures cannot explain, folds the excess into a whitewash level, and
lowers the reputation it offers newcomers quadratically as that level
approaches the worst seen in a sliding window. A quiet neighborhood drifts
back to the most generous offer.

`offer_curve` is the one home of the quadratic offer formula. The
simulation's per-iteration sweep runs on `EstimatorArrays`; the scalar
`EstimatorState`, `update_w_max` and `whitewash_level` describe the same
rules one node at a time and serve as its reference.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import payoff
from .graph import DegenerateAverageError, NodeId

DEFAULT_WINDOW = 10
DEFAULT_ROUND_BUDGET = 50

_FRONTIER_X_GRID = np.arange(0.01, 1.0, 0.005)


class DepartureKind(enum.Enum):
    LEGITIMATE = "legitimate"
    POTENTIAL_WHITEWASHER = "potential_whitewasher"


class EmptyNeighborhoodError(ValueError):
    pass


@dataclass(frozen=True)
class NeighborhoodObservation:
    """One neighbor's churn report for the current iteration."""

    neighbor: NodeId
    prev_size: float  # neighborhood size at the previous iteration
    cur_size: float
    arrivals: float
    legit_departures: float
    local_growth: float  # growth rate attributed to this neighbor


@dataclass
class EstimatorState:
    """Whitewash bookkeeping owned by a single node.

    The window is primed with r_ini_max: before any real observation the
    worst imaginable wave is everyone being a fresh identity, which keeps
    early offers generous instead of collapsing on the first sample.
    """

    owner: NodeId
    r_ini_max: float
    r_ini_min: float
    window_size: int = DEFAULT_WINDOW
    w_window: deque = field(init=False)
    w_max: float = field(init=False)
    current_offer: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.r_ini_min <= self.r_ini_max <= 1:
            raise ValueError("need 0 <= r_ini_min <= r_ini_max <= 1")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.w_window = deque([self.r_ini_max], maxlen=self.window_size)
        self.w_max = self.r_ini_max
        self.current_offer = self.r_ini_max


def local_growth_rate(d_local: float, d_avg: float, n_cur: float, n_prev: float) -> float:
    """Network growth rescaled by how connected the observer is: a node of
    twice-average degree should see twice its share of new arrivals."""
    if d_avg <= 0:
        raise DegenerateAverageError("average degree must be positive")
    if n_prev < 1:
        raise ValueError("previous node count must be >= 1")
    return (d_local / d_avg) * (n_cur / n_prev)


def legitimacy_threshold(r_ini_max: float, r_ini_min: float) -> float:
    """Reputation an average newcomer would be granted: a node that leaves
    with at least this much (`>=`) leaves legitimately."""
    return (r_ini_max + r_ini_min) / 2


def classify_departure(rep: float, r_ini_max: float, r_ini_min: float) -> DepartureKind:
    """A departure is legitimate when the leaver had at least the reputation
    an average newcomer would be granted; leaving with less suggests the
    identity was headed for a reset anyway."""
    for v in (rep, r_ini_max, r_ini_min):
        if not 0 <= v <= 1:
            raise ValueError("inputs must be in [0, 1]")
    return (
        DepartureKind.LEGITIMATE
        if rep >= legitimacy_threshold(r_ini_max, r_ini_min)
        else DepartureKind.POTENTIAL_WHITEWASHER
    )


def whitewash_level(obs: list[NeighborhoodObservation]) -> float:
    """Fraction of current neighborhood mass that arrived unexplained:
    arrivals minus what growth predicts minus legitimate departures, summed
    over neighbors and normalized by their current sizes. Clamped to [0, 1];
    churn noise can push the raw value negative."""
    if not obs:
        raise EmptyNeighborhoodError("no neighbors to observe")
    denom = sum(o.cur_size for o in obs)
    if denom <= 0:
        raise EmptyNeighborhoodError("neighborhood sizes sum to zero")
    num = sum(
        o.arrivals - o.prev_size * (o.local_growth - 1.0) - o.legit_departures
        for o in obs
    )
    return min(max(num / denom, 0.0), 1.0)


def update_w_max(st: EstimatorState, w_new: float) -> float:
    """Push the latest level into the sliding window and return the window
    maximum; old peaks age out after window_size pushes."""
    if not 0 <= w_new <= 1:
        raise ValueError("whitewash level must be in [0, 1]")
    st.w_window.append(w_new)
    st.w_max = max(st.w_window)
    return st.w_max


def initial_reputation(st: EstimatorState, w: float) -> float:
    """Reputation to offer the next newcomer: full r_ini_max at zero
    whitewashing, decaying quadratically to the r_ini_min floor as w
    approaches the window maximum. Records the offer on the state."""
    if w < 0:
        raise ValueError("whitewash level must be >= 0")
    ratio = 0.0 if st.w_max <= 0 else min(w / st.w_max, 1.0)
    st.current_offer = offer_curve(ratio, st.r_ini_max, st.r_ini_min)
    return st.current_offer


def offer_curve(ratio: float, r_max: float, r_min: float) -> float:
    """The quadratic offer: r_max at ratio 0, falling to the r_min floor as
    ratio reaches 1. The square is Python's float power (libm pow), not
    x * x: the two differ in the last bit on about 0.1% of inputs, and
    recorded outputs depend on which one is used."""
    return max((1.0 - ratio) ** 2 * r_max, r_min)


def estimate_r_ini_max(newcomer_mean_rep: float | None, prev: float) -> float:
    """Track the ceiling other nodes grant newcomers by watching what recent
    arrivals actually carry; hold the last estimate through quiet spells."""
    return prev if newcomer_mean_rep is None else newcomer_mean_rep


def r_ini_min_from_frontier(
    mu: float, m_ratio: float = 1.0, round_budget: int = DEFAULT_ROUND_BUDGET
) -> float:
    """Offline calibration for the offer floor: the largest newcomer
    reputation at which some exponent still lets cooperation catch up with
    identity churn within `round_budget` rounds. Returns 0.0 when even a
    zero grant cannot meet the budget."""
    if not 0 < mu < 1:
        raise ValueError("mu must be in (0, 1)")
    if round_budget < 1:
        raise ValueError("round_budget must be >= 1")
    r_star, _ = payoff.max_feasible_r_ini(mu, m_ratio)

    def best_rounds(r: float) -> float:
        best = math.inf
        for x in _FRONTIER_X_GRID:
            p = payoff.PayoffParams(mu=mu, x=float(x), r_ini=r, delta=0.0, m=m_ratio)
            th = payoff.closed_form_threshold(p, payoff.IdentityRegime.ZERO_COST)
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


def _ordered_sum(values: np.ndarray) -> float:
    """Sum one element at a time in array order, as a Python loop would
    (np.sum adds pairwise and rounds differently)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class _SweepLevels(Mapping):
    """Read-only view of one sweep's levels by node id, over the sweep's
    ascending id array; nothing is copied until a value is read."""

    def __init__(self, ids: np.ndarray, levels: np.ndarray):
        self._ids = ids
        self._levels = levels

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids.tolist())

    def __getitem__(self, vid: NodeId) -> float:
        k = int(np.searchsorted(self._ids, vid))
        if k == len(self._ids) or self._ids[k] != vid:
            raise KeyError(vid)
        return float(self._levels[k])


class EstimatorArrays:
    """Every node's estimator state as arrays indexed by node id.

    Node ids are never reused, so the arrays only grow (doubling when an id
    outruns them) and a removed node's row is simply never read again.

    The sliding windows share one ring buffer of shape (capacity, window)
    and one global write slot. A node is swept on every step while its
    window holds a nonzero level; a node left out of a sweep has an all-zero
    window, so skipping it is the same as pushing the zero it would see. A
    new node is primed in the slot just before the next write, so the prime
    ages out after exactly `window` pushes.

    `offers` is dense: after a sweep, nodes it left out offer the ceiling
    estimate, and a node added since offers the ceiling it was primed with.
    Outputs match a per-node loop bit for bit: the quadratic is applied
    with `offer_curve` once per distinct ratio among the nodes with a
    positive level, and the sums run in ascending-id order one element at
    a time.
    """

    def __init__(self, window: int, ids: np.ndarray, r_est: float, ndsum: np.ndarray):
        if window < 1:
            raise ValueError("window must be >= 1")
        size = len(ndsum)
        self.window = window
        self._w = np.zeros((size, window))
        self._w[ids, window - 1] = r_est
        self._active = np.zeros(size, dtype=bool)
        self._active[ids] = r_est > 0
        self.offers = np.full(size, r_est)
        self._prev_ndsum = ndsum
        self._slot = 0
        self._swept = np.zeros(0, dtype=np.int64)
        self._swept_w = np.zeros(0)

    @property
    def capacity(self) -> int:
        return len(self._active)

    def prime(self, vid: NodeId, r_est: float) -> None:
        """Start a new node's window at the ceiling estimate."""
        if vid >= self.capacity:
            size = max(vid + 1, 2 * self.capacity)
            for name in ("_w", "_active", "offers", "_prev_ndsum"):
                old = getattr(self, name)
                new = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        self._w[vid, (self._slot - 1) % self.window] = r_est
        self._active[vid] = r_est > 0
        self.offers[vid] = r_est

    def retire(self, vid: NodeId) -> None:
        """Stop sweeping a removed node. Its last offer stays readable until
        the next sweep, as a probe drawn before the removal may still land
        on it."""
        self._active[vid] = False

    @property
    def last_sweep(self) -> Mapping[NodeId, float]:
        """Whitewash level of every node of the latest sweep, by node id."""
        return _SweepLevels(self._swept, self._swept_w)

    def sweep(
        self,
        ndsum: np.ndarray,
        gained: np.ndarray,
        lost: np.ndarray,
        coef: float,
        r_est: float,
        r_min: float,
    ) -> tuple[int, float, float, float]:
        """One estimator step over every node that saw churn or still holds
        a nonzero window.

        All three arrays are indexed by node id and `capacity` long, as
        `Topology.neighbor_degree_array` returns them. `ndsum` holds every
        node's neighbor-degree sum now; it also becomes the next sweep's
        baseline. `gained` and `lost` hold, per node, the new neighbors and
        the benign departures its neighbors saw since the previous sweep.
        `coef` is the expected growth arrivals per unit of the previous
        sweep's neighbor-degree sum. Returns the number of nodes swept and
        the sums of their levels, window peaks and offers.
        """
        ids = np.flatnonzero(self._active | (gained > 0) | (lost > 0))
        den = ndsum[ids]
        num = gained[ids] - coef * self._prev_ndsum[ids] - lost[ids]
        w = np.zeros(len(ids))
        seen = den > 0
        w[seen] = np.minimum(np.maximum(num[seen] / den[seen], 0.0), 1.0)

        self._w[ids, self._slot % self.window] = w
        self._slot += 1
        # Column by column: numpy reduces a short row axis slowly.
        wmax = self._w[ids, 0]
        for k in range(1, self.window):
            np.maximum(wmax, self._w[ids, k], out=wmax)
        self._active[ids] = wmax > 0

        offers = np.full(len(ids), r_est)
        hot = np.flatnonzero(w > 0)
        # Many nodes share a ratio (an untouched regular neighborhood sees
        # the same level and peak as the next), and offer_curve is pure.
        ratios, where = np.unique(np.minimum(w[hot] / wmax[hot], 1.0), return_inverse=True)
        curve = list(
            map(offer_curve, ratios.tolist(), itertools.repeat(r_est), itertools.repeat(r_min))
        )
        offers[hot] = np.array(curve, dtype=float)[where]
        self.offers.fill(r_est)
        self.offers[ids] = offers

        self._prev_ndsum = ndsum
        self._swept, self._swept_w = ids, w
        return len(ids), _ordered_sum(w), _ordered_sum(wmax), _ordered_sum(offers)
