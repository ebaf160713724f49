"""Per-node behavioral state and the whitewash decision rule.

An agent's honesty is a fixed trait in [0, 1]. Agents whose honesty falls
below the advertised newcomer reputation are potential whitewashers: resetting
their identity would hand them more reputation than their behavior earns, so
they may dump a bad record and rejoin. Everyone else cooperates.

Only a potential whitewasher makes a decision, so only it has an
`AgentState`: its honesty, the attempt counters (which a rejoin carries
over) and the grant its current identity was born with (none for the
founding population). A cooperator is its role and its reputation, and
every identity's role, reputation and join iteration are the engine's,
held by node id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .draws import Draws
from .graph import NodeId


class Role(enum.IntEnum):
    """An id's role; the values are the codes the engine keeps per id, where
    0 marks an id that is gone or not issued yet. Compare an int8 code array
    with `.value`: numpy takes a member as an int64 scalar and would widen
    the whole array to compare."""

    COOPERATIVE = 1
    POTENTIAL_WHITEWASHER = 2


class WhitewashOutcome(enum.Enum):
    NO_ATTEMPT = "no_attempt"
    ATTEMPT_FAILED = "attempt_failed"
    WHITEWASHED = "whitewashed"


@dataclass
class AgentState:
    honesty: float
    attempts: int = 0
    successes: int = 0
    grant: float | None = None  # reputation this identity was born with


def init_population(
    size: int, r_ini_max: float, rng: Draws
) -> tuple[np.ndarray, np.ndarray, dict[NodeId, AgentState]]:
    """Create `size` agents on node ids 0..size-1: their role codes and
    starting reputations indexed by node id, and the potential
    whitewashers' records by node id.

    Honesty is i.i.d. Uniform[0,1]; an agent is a potential whitewasher iff
    its honesty is below r_ini_max, so a zero ceiling makes everyone
    cooperative. Starting reputations are also uniform, standing in for
    histories accumulated before the observation window. Draw order: all
    honesties first, then all reputations.
    """
    honesty = rng.uniform(0.0, 1.0, size)
    reputation = rng.uniform(0.0, 1.0, size)
    washer = honesty < r_ini_max
    role_code = np.where(washer, Role.POTENTIAL_WHITEWASHER, Role.COOPERATIVE).astype(np.int8)
    ids = np.flatnonzero(washer).tolist()
    records = {v: AgentState(h) for v, h in zip(ids, honesty[washer].tolist())}
    return role_code, reputation, records


def attempt_probability(a: AgentState) -> float:
    """Empirical success rate of past attempts; 1 before the first attempt,
    so fresh potential whitewashers always try once."""
    if a.attempts == 0:
        return 1.0
    return a.successes / a.attempts


def decide_whitewash(
    a: AgentState, offered_r_ini: float, rng: Draws
) -> WhitewashOutcome:
    """Let a potential whitewasher decide whether to reset its identity.

    The agent attempts with probability equal to its past success rate; an
    attempt succeeds iff the offered newcomer reputation is at least its
    honesty (a tie still pays). Counters update only when an attempt fires.
    """
    if rng.random() >= attempt_probability(a):
        return WhitewashOutcome.NO_ATTEMPT
    a.attempts += 1
    if offered_r_ini >= a.honesty:
        a.successes += 1
        return WhitewashOutcome.WHITEWASHED
    return WhitewashOutcome.ATTEMPT_FAILED
