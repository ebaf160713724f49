"""Per-node behavioral state and the whitewash decision rule.

An agent's honesty is a fixed trait in [0, 1]. Agents whose honesty falls
below the advertised newcomer reputation are potential whitewashers: resetting
their identity would hand them more reputation than their behavior earns, so
they may dump a bad record and rejoin. Everyone else cooperates.

An `AgentState` holds the person's traits (honesty, role and the attempt
counters, which a rejoin carries over) and the grant its current identity
was born with (none for the founding population). An identity's reputation
and join iteration are the engine's, held by node id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .draws import Draws
from .graph import NodeId


class Role(enum.Enum):
    COOPERATIVE = "cooperative"
    POTENTIAL_WHITEWASHER = "potential_whitewasher"


class WhitewashOutcome(enum.Enum):
    NO_ATTEMPT = "no_attempt"
    ATTEMPT_FAILED = "attempt_failed"
    WHITEWASHED = "whitewashed"


class WrongRoleError(ValueError):
    pass


@dataclass
class AgentState:
    node: NodeId
    honesty: float
    role: Role
    attempts: int = 0
    successes: int = 0
    grant: float | None = None  # reputation this identity was born with


Population = dict[NodeId, AgentState]


def init_population(size: int, r_ini_max: float, rng: Draws) -> tuple[Population, np.ndarray]:
    """Create `size` agents on node ids 0..size-1, and their starting
    reputations indexed by node id.

    Honesty is i.i.d. Uniform[0,1]; an agent is a potential whitewasher iff
    its honesty is below r_ini_max, so a zero ceiling makes everyone
    cooperative. Starting reputations are also uniform, standing in for
    histories accumulated before the observation window. Draw order: all
    honesties first, then all reputations.
    """
    honesty = rng.uniform(0.0, 1.0, size).tolist()
    reputation = rng.uniform(0.0, 1.0, size)
    washer, coop = Role.POTENTIAL_WHITEWASHER, Role.COOPERATIVE
    population = {
        i: AgentState(i, h, washer if h < r_ini_max else coop) for i, h in enumerate(honesty)
    }
    return population, reputation


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
    if a.role is not Role.POTENTIAL_WHITEWASHER:
        raise WrongRoleError(f"node {a.node} is {a.role.value}")
    if rng.random() >= attempt_probability(a):
        return WhitewashOutcome.NO_ATTEMPT
    a.attempts += 1
    if offered_r_ini >= a.honesty:
        a.successes += 1
        return WhitewashOutcome.WHITEWASHED
    return WhitewashOutcome.ATTEMPT_FAILED


def rejoin_as_newcomer(a: AgentState, new_id: NodeId, offered_r_ini: float) -> AgentState:
    """Re-enter the network under a fresh identity born with the offered
    grant; honesty and attempt counters carry over."""
    return AgentState(
        node=new_id,
        honesty=a.honesty,
        role=a.role,
        attempts=a.attempts,
        successes=a.successes,
        grant=offered_r_ini,
    )
