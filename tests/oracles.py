"""Scalar reference implementations that the shipped code is checked against.

The simulation runs the estimator as one array kernel
(`p2psim.estimator.EstimatorArrays`). The per-node rules below state the
same arithmetic one node at a time, in the plainest form: the sliding-window
peak, the offer against that peak, and the whitewash level of a node's
neighborhood. Tests feed both the same churn and require equal results.

`read_records_csv` parses a `simulate` CSV back into records, for the
round-trip tests of the CLI's writer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from p2psim.cli import CSV_HEADER
from p2psim.engine import IterationRecord
from p2psim.estimator import offer_curve
from p2psim.graph import DegenerateAverageError, NodeId

DEFAULT_WINDOW = 10


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


def read_records_csv(path: Path) -> list[IterationRecord]:
    """Parse a file produced by `p2psim.cli.emit_csv` back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the simulate header")
    out = []
    for line in lines[1:]:
        it, nn, wa, ws, frac, off, west, wmax = line.split(",")
        out.append(
            IterationRecord(int(it), int(nn), int(wa), int(ws),
                            float(frac), float(off), float(west), float(wmax))
        )
    return out
