"""Agent roles, the founding population and the whitewash decision rule.

An agent's honesty is a fixed trait in [0, 1]. Agents whose honesty falls
below the advertised newcomer reputation are potential whitewashers: resetting
their identity would hand them more reputation than their behavior earns, so
they may dump a bad record and rejoin. Everyone else cooperates.

Every agent fact is the engine's, held in arrays indexed by row: role,
reputation, honesty, the attempt counters (which a rejoin carries over) and
the grant the current identity was born with. This module draws the
founders' facts, gives every founder and arrival its role (`role_codes`)
and states the decision as a pure function of them; the engine writes the
counters.
"""

from __future__ import annotations

import enum

import numpy as np

from .draws import Draws


class Role(enum.IntEnum):
    """A node's role; the values are the codes the engine keeps per row,
    where 0 marks a node that is gone or a row not in use. Compare an int8
    code array with `.value`: numpy takes a member as an int64 scalar and
    would widen the whole array to compare."""

    COOPERATIVE = 1
    POTENTIAL_WHITEWASHER = 2


class WhitewashOutcome(enum.Enum):
    NO_ATTEMPT = "no_attempt"
    ATTEMPT_FAILED = "attempt_failed"
    WHITEWASHED = "whitewashed"


def init_population(
    size: int, r_ini_max: float, rng: Draws
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Create `size` agents on node ids 0..size-1: their role codes,
    starting reputations and honesties, each indexed by node id.

    Honesty is i.i.d. Uniform[0,1] and sets the role against r_ini_max
    (`role_codes`), so a zero ceiling makes everyone cooperative. Starting
    reputations are also uniform, standing in for histories accumulated
    before the observation window. Draw order: all honesties first, then all
    reputations.
    """
    honesty = rng.uniform(0.0, 1.0, size)
    reputation = rng.uniform(0.0, 1.0, size)
    return role_codes(honesty, r_ini_max), reputation, honesty


def role_codes(honesty: np.ndarray, offered_r_ini: float) -> np.ndarray:
    """The int8 role codes of agents of these honesties joining under the
    newcomer reputation `offered_r_ini`: a potential whitewasher iff below it."""
    return np.where(
        honesty < offered_r_ini, Role.POTENTIAL_WHITEWASHER, Role.COOPERATIVE
    ).astype(np.int8)


def decide_whitewash(
    honesty: float, attempts: int, successes: int, offered_r_ini: float, rng: Draws
) -> WhitewashOutcome:
    """Let a potential whitewasher decide whether to reset its identity.

    The agent attempts with probability equal to its past success rate,
    `successes / attempts`, and 1 before the first attempt, so a fresh
    potential whitewasher always tries once. An attempt succeeds iff the
    offered newcomer reputation is at least its honesty (a tie still pays).
    One draw per call; the caller counts an attempt unless the outcome is
    NO_ATTEMPT, and a success on WHITEWASHED.
    """
    if rng.random() >= (successes / attempts if attempts else 1.0):
        return WhitewashOutcome.NO_ATTEMPT
    if offered_r_ini >= honesty:
        return WhitewashOutcome.WHITEWASHED
    return WhitewashOutcome.ATTEMPT_FAILED
