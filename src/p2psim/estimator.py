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
peak, recounts it only where the slot it overwrites held it, and sweeps
its rows densely, one whole-array pass per step over the topology's rows.
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
    """Every node's estimator state as arrays indexed by row, the
    topology's rows (see `graph`): one per node, ascending in id.

    Between compactions rows only grow, and a removed node's row is simply
    never read again; `compact` drops such rows in one order-preserving
    pass. The constructor allocates zero windows over the first snapshot,
    its first baseline; `reserve` grows the arrays (`graph.grown`), and
    `prime` starts every row, a founder's included.

    The sliding windows share one ring of `window` slot arrays, each
    indexed by row, and one global write slot. A node is swept on every
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

    The sweep is dense: a membership mask over all rows picks the nodes it
    takes, each step's arithmetic runs over every row, and a node outside
    the mask gets level 0 and keeps its window slot as it was. `swept`
    holds the latest sweep's rows, ascending (empty before the first).
    `offers` is dense too: after a sweep, nodes it left out offer the
    ceiling estimate, and a node added since offers the ceiling it was
    primed with. Outputs match a per-node loop bit for bit: the quadratic
    is applied by one `offer_curve` call over the ratios of the nodes with
    a positive level, and the sums run over the swept nodes in ascending
    row order, which is ascending id order, one element at a time. The
    next sweep's baseline `_prev_ndsum` is a copy, never a view. A swept
    node's level stays in the ring's newest slot, as a prime after the
    sweep writes that slot only at rows added since.
    """

    def __init__(self, window: int, ndsum: np.ndarray):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._ring = [np.zeros(len(ndsum)) for _ in range(window)]
        self._peak, self.offers = np.zeros(len(ndsum)), np.zeros(len(ndsum))
        self._prev_ndsum = np.array(ndsum, dtype=float)
        self._slot = 0
        self.swept = np.zeros(0, dtype=np.int64)

    def reserve(self, size: int) -> None:
        """Give every array at least `size` rows, exactly `size` if it
        grows."""
        # One slot at a time, so each old slot is freed before the next one
        # grows.
        for k, column in enumerate(self._ring):
            self._ring[k] = grown(column, size, size)
        for name in ("_peak", "offers", "_prev_ndsum"):
            setattr(self, name, grown(getattr(self, name), size, size))

    def prime(self, rows: slice, r_est: float) -> None:
        """Start the windows of the new rows, a slice that ends at the last
        row, at the ceiling estimate: never written, so the prime is their
        peak. Arrays not reserved that far double."""
        if rows.stop > len(self._peak):
            self.reserve(max(rows.stop, 2 * len(self._peak)))
        self._ring[(self._slot - 1) % self.window][rows] = r_est
        self._peak[rows] = max(r_est, 0.0)
        self.offers[rows] = r_est

    def retire(self, rows) -> None:
        """Stop sweeping removed nodes, one row or a sequence of them: their
        peaks drop to zero, and a removed node sees no churn, so no sweep
        takes its row again. Their last offers stay readable until the
        next sweep, as a probe drawn before a removal may still land on it."""
        self._peak[rows] = 0.0

    def compact(self, kept: np.ndarray) -> None:
        """Keep only the rows `kept`, ascending, numbered from 0 in order
        (`graph.Topology.compact`). The rows swept last must be among them."""
        for k, column in enumerate(self._ring):
            self._ring[k] = column[kept]
        for name in ("_peak", "offers", "_prev_ndsum"):
            setattr(self, name, getattr(self, name)[kept])
        self.swept = np.searchsorted(kept, self.swept)

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

        All three arrays are indexed by row, one entry per row; the
        estimator's own arrays may hold spare rows past them, which the
        sweep leaves alone. `ndsum` holds every node's neighbor-degree sum
        now; it is copied as the next sweep's baseline. `gained` and `lost`
        hold, per node, the new neighbors and the benign departures its
        neighbors saw since the previous sweep. `coef` is the expected
        growth arrivals per unit of the previous sweep's neighbor-degree
        sum. Returns the number of nodes swept and the sums of their levels,
        window peaks and offers.
        """
        rows = len(ndsum)
        peak = self._peak[:rows]
        member = peak > 0
        member |= gained > 0
        member |= lost > 0
        w = coef * self._prev_ndsum[:rows]
        np.subtract(gained, w, out=w)
        w -= lost
        # Clamped at 0 before the division by a positive sum, which keeps
        # the quotient's sign; an infinite sum gives the level 0 outside the
        # sweep and over an empty neighborhood.
        np.maximum(w, 0.0, out=w)
        w /= np.where(member & (ndsum > 0), ndsum, np.inf)
        np.minimum(w, 1.0, out=w)

        column = self._ring[self._slot % self.window][:rows]
        self._slot += 1
        # The peak can only fall where the overwritten slot held it; outside
        # the mask the level is 0 and the peak is not above it.
        fallen = np.flatnonzero((column == peak) & (w < peak))
        np.putmask(column, member, w)
        np.maximum(peak, w, out=peak)
        if len(fallen):
            top = self._ring[0][fallen]
            for other in self._ring[1:]:
                np.maximum(top, other[fallen], out=top)
            peak[fallen] = top

        hot = np.flatnonzero(w > 0)
        w_hot = w[hot]
        offers = self.offers[:rows]
        offers[:] = r_est
        offers[hot] = offer_curve(np.minimum(w_hot / peak[hot], 1.0), r_est, r_min)

        self._prev_ndsum[:rows] = ndsum
        self.swept = swept = np.flatnonzero(member)
        # w holds no -0.0, and adding +0.0 leaves any other float as it is,
        # so the level sum can skip the zero levels.
        return (
            len(swept),
            _ordered_sum(w_hot),
            _ordered_sum(peak[swept]),
            _ordered_sum(offers[swept]),
        )
