"""Per-node whitewash-level estimation and adaptive newcomer reputation.

Each node watches its neighborhood for arrivals that growth and legitimate
departures cannot explain, folds the excess into a whitewash level, and
lowers the reputation it offers newcomers quadratically as that level
approaches the worst seen in a sliding window. A quiet neighborhood drifts
back to the most generous offer.

`offer_curve` is the one home of the quadratic offer formula, and
`legitimacy_threshold` the one home of the line between a legitimate
departure and a potential whitewasher. The simulation's per-iteration sweep
runs on `EstimatorArrays`, the only implementation of the window peak and
the whitewash level; `tests/oracles.py` states the same rules one node at a
time and checks the kernel against them. The kernel keeps each window's
peak, recounts it only where the slot it overwrites held it, and reads
only the rows of the ids issued.
"""

from __future__ import annotations

import numpy as np

from .graph import grown


def legitimacy_threshold(r_ini_max: float, r_ini_min: float) -> float:
    """Reputation an average newcomer would be granted: a node that leaves
    with at least this much (`>=`) leaves legitimately; leaving with less
    suggests the identity was headed for a reset anyway."""
    return (r_ini_max + r_ini_min) / 2


def offer_curve(ratio, r_max: float, r_min: float):
    """The quadratic offer: r_max at ratio 0, falling to the r_min floor as
    ratio reaches 1. A float ratio gives a float offer, computed with
    Python's float power; a 1-D array of ratios gives the array of their
    offers. `np.float_power` squares with libm's pow per element, as
    Python's float power does, so both give the same bits; `np.power` and
    `np.square` square as x * x, which differs in the last bit on about
    0.1% of bases, and recorded outputs depend on which one is used. The
    floor is `max`'s rule, r_min only where it is greater, so signed zeros
    come out as `max` gives them (`np.maximum` returns its second operand
    on a tie)."""
    if not isinstance(ratio, np.ndarray):
        return float(max((1.0 - float(ratio)) ** 2.0 * r_max, r_min))
    offers = np.float_power(1.0 - ratio, 2.0) * r_max
    return np.where(r_min > offers, r_min, offers)


def _ordered_sum(values: np.ndarray) -> float:
    """Sum one element at a time in array order, as a Python loop would
    (np.sum adds pairwise and rounds differently)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class EstimatorArrays:
    """Every node's estimator state as arrays indexed by node id.

    Node ids are never reused, so the arrays only grow, and a removed
    node's row is simply never read again. The constructor allocates zero
    windows over the first snapshot, its first baseline; `prime` starts
    every id, a founder included, and is the one place the rows grow
    (`graph.grown`, to the ids issued).

    The sliding windows share one ring of `window` slot arrays, each
    indexed by node id, and one global write slot. A node is swept on every
    step while its window holds a nonzero level, that is while its peak is
    positive, and whenever it sees churn; a node left out of a sweep
    has an all-zero window, so skipping it is the same as pushing the zero
    it would see (except that a shrinking overlay gives a swept node with no
    churn a positive level; see ROADMAP item 5). A new node is primed in the
    slot just before the next write, so the prime ages out after exactly
    `window` pushes.

    Each window's peak is kept beside the ring. A sweep raises it to
    max(peak, level), and counts it again over every slot only in the rows
    whose overwritten slot held the peak and got a lower level. max is
    exact, so the kept peak of every live node is its row max bit for bit.

    `offers` is dense: after a sweep, nodes it left out offer the ceiling
    estimate, and a node added since offers the ceiling it was primed with.
    Outputs match a per-node loop bit for bit: the quadratic is applied
    by one `offer_curve` call over the ratios of the nodes with a positive
    level, and the sums run in ascending-id order one element at a time.
    The next sweep's baseline `_prev_ndsum` is a copy, never a view.
    `swept` holds the latest sweep's ascending ids (empty before the first);
    a swept node's level stays in the ring's newest slot, as a prime after
    the sweep writes that slot only at ids issued since.
    """

    def __init__(self, window: int, ndsum: np.ndarray):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._ring = [np.zeros(len(ndsum)) for _ in range(window)]
        self._peak, self.offers = np.zeros(len(ndsum)), np.zeros(len(ndsum))
        self._prev_ndsum = np.array(ndsum)
        self._slot = 0
        self.swept = np.zeros(0, dtype=np.int64)

    def prime(self, ids: slice, r_est: float) -> None:
        """Start the windows of the new ids, a slice that ends at the last id
        issued, at the ceiling estimate: never written, so the prime is
        their peak."""
        end = ids.stop
        if end > len(self._peak):
            # One slot at a time, so each old slot is freed before the next
            # one grows.
            for k, column in enumerate(self._ring):
                self._ring[k] = grown(column, end)
            for name in ("_peak", "offers", "_prev_ndsum"):
                setattr(self, name, grown(getattr(self, name), end))
        self._ring[(self._slot - 1) % self.window][ids] = r_est
        self._peak[ids] = max(r_est, 0.0)
        self.offers[ids] = r_est

    def retire(self, ids) -> None:
        """Stop sweeping removed nodes, one id or a sequence of them: their
        peaks drop to zero, and a removed node sees no churn, so no sweep
        reaches its row again. Their last offers stay readable until the
        next sweep, as a probe drawn before a removal may still land on it."""
        self._peak[ids] = 0.0

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

        All three arrays are indexed by node id, one row per id issued
        (`Topology.next_id`); the estimator's own arrays may hold spare rows
        past them, which the sweep leaves alone. `ndsum` holds every node's
        neighbor-degree sum now; it is copied as the next sweep's baseline.
        `gained` and `lost` hold, per node, the new neighbors and the benign
        departures its neighbors saw since the previous sweep. `coef` is the
        expected growth arrivals per unit of the previous sweep's
        neighbor-degree sum. Returns the number of nodes swept and the sums
        of their levels, window peaks and offers.
        """
        issued = len(ndsum)
        ids = np.flatnonzero((self._peak[:issued] > 0) | (gained > 0) | (lost > 0))
        den = ndsum[ids]
        num = gained[ids] - coef * self._prev_ndsum[ids]
        num -= lost[ids]
        w = np.divide(num, den, out=np.zeros(len(ids)), where=den > 0)
        np.maximum(w, 0.0, out=w)
        np.minimum(w, 1.0, out=w)

        column = self._ring[self._slot % self.window]
        self._slot += 1
        evicted = column[ids]
        column[ids] = w
        # The peak can only fall where the overwritten slot held it.
        peak = self._peak[ids]
        fallen = np.flatnonzero((evicted == peak) & (w < peak))
        np.maximum(peak, w, out=peak)
        if len(fallen):
            rows = ids[fallen]
            top = self._ring[0][rows]
            for other in self._ring[1:]:
                np.maximum(top, other[rows], out=top)
            peak[fallen] = top
        self._peak[ids] = peak

        hot = np.flatnonzero(w > 0)
        w_hot = w[hot]
        self.offers[:issued] = r_est
        self.offers[ids[hot]] = offer_curve(np.minimum(w_hot / peak[hot], 1.0), r_est, r_min)

        self._prev_ndsum[:issued] = ndsum
        self.swept = ids
        # w holds no -0.0, and adding +0.0 leaves any other float as it is,
        # so the level sum can skip the zero levels.
        return (
            len(ids),
            _ordered_sum(w_hot),
            _ordered_sum(peak),
            _ordered_sum(self.offers[ids]),
        )
