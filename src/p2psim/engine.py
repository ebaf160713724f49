"""Discrete-time simulator wiring topology, agents, gossip and the
adaptive newcomer-grant estimator into one loop.

Each `Simulation.step` is one iteration:

1. transaction start: the agents that joined two iterations earlier (at
   iteration 1, the ones that joined at 0) start serving, which sets their
   reputation for good to the expected per-round ratio, mu^x for a
   cooperator and 0 for a free rider;
2. gossip snapshot (`take_snapshot`: the node count and degree sum every
   node is assumed to learn, optionally noisy), per-node whitewash-level
   estimate, newcomer offers, and the shared estimate of the grant
   ceiling, read from the mean reputation of the newcomer pool: the live
   agents whose tenure lies in [NEWCOMER_MIN_TENURE, newcomer_window], one
   id range (the only place that tenure rule is applied);
3. resource allocation (folded into step 1: cooperative nodes provide the
   expected share of what they are asked, free riders provide nothing);
4. whitewash wave: each potential whitewasher may probe one uniformly
   chosen node and reset its identity against that node's current offer;
5. optional voluntary departures of reputable nodes, then population
   growth every tenth iteration;
6. per-iteration metrics.

A reset only looks attractive to an agent that has already cashed one in
if the probed offer strictly beats the grant its current identity was born
with; cheaper offers are declined without burning an attempt. That single
rule is what lets the estimator win: once offers collapse, the population
of past whitewashers has nothing left to gain and goes quiet.

Whether a leaver looks legitimate is one comparison against
`estimator.legitimacy_threshold`, for a whitewasher and for a voluntary
departure alike, and one helper removes a leaver with `graph.remove_node`,
benign when it looked legitimate. A whitewash rejoin and a growth arrival
enter the same way, one `Topology.attach` each, a growth arrival's honesty
drawn right after its attachment draws; the topology wires their rows at
its next read of them. It books the churn of both node events: one arrival
at each host, and one benign departure at each neighbor of a benign
leaver.

The estimator state of step 2 lives in `estimator.EstimatorArrays`: numpy
arrays indexed by node id, which only grow because ids are never reused. A
ring of `window` slot arrays with one global write slot holds every node's
recent whitewash levels; it works because a node is swept on every step
while its window holds a nonzero level. Each window's peak is kept beside
the ring and counted again only in the rows whose overwritten slot held
it. New nodes are primed with the ceiling estimate in the slot just before
the next write. A dense offer array answers probes, and nodes a sweep left
out offer the ceiling. Each sweep reads one snapshot of the neighbor-degree
sums, which is also the next sweep's baseline, and the churn sums (arrivals
and benign departures summed over each node's neighbors).
`Topology.neighbor_degree_array` computes all three in one vectorized
gather at the sweep over the neighbor rows of the nodes whose neighbors
changed since the previous sweep, and clears the booked churn. Node events
themselves keep no sums.
Outputs match the per-node formulas bit for bit: the quadratic offer goes
through `estimator.offer_curve` (Python's float power, which numpy's
square does not always equal) once per distinct ratio among the positive
levels, and the per-iteration sums add in ascending-id order one element
at a time, never pairwise.

Every identity gets a fresh id, ids only grow, and every id issued during
iteration n joins at n: the founding ids and a rejoin planted before the
first step at 0, wave rejoins and growth arrivals during their step, and a
rejoin planted between steps n and n + 1 at n. So the ids that joined at j
are one range, from `_first_id[j]` (the topology's next id at the start of
step j, 0 for j = 0) up to `_first_id[j + 1]`. Every agent fact is an array
indexed by node id, grown with `graph.grown` like the estimator's, all six
together when an id outruns them, and each is the only place its fact is
kept: `reputation` (drawn for the founders, the grant for a newcomer, then
the earned value from the transaction start); `role_code`, the id's
`agents.Role` value, written once when the id registers, and 0 from when
the node leaves (or before the id is issued), so it also marks liveness;
`honesty`; the attempt counters `attempts` and `successes`; and `grant`,
what the current identity was born with (0 for a founder, which never
reads it). New ids register through one path over an id range, one write
per array (`Simulation._register_newcomers`): a rejoin's one id, which
takes the person's role, honesty and counters and the offer as its grant,
or a whole growth batch, whose grants, the offers of each arrival's first
host, are read only once the batch is primed. The transaction start is two
masked writes on one id range, the newcomer pool is the live ids of one
range, and the departure candidates are one mask, the live cooperators at
or above the legitimacy threshold, in ascending order. The wave's pollers
are one mask too (`Simulation._pollers`), computed once per wave.

All randomness comes from one draw source per run, `Simulation.rng`, a
`draws.Draws` over the run's seeded PCG64 `Generator` that yields exactly
the plain `Generator`'s values and final state (see `draws`). Draw order
inside an iteration: the gossip noise factors of `take_snapshot` (node
count, then degree sum; only when noise > 0); the whitewash wave in
ascending node-id order (per agent: target index, then the attempt draw,
then attachment draws on a success); voluntary departures in ascending
node-id order (one draw per reputable candidate, only when enabled, and
none once the overlay is down to attach_edges + 1 nodes; the draws come in
batches of `random(k)`, the same stream as k scalar draws, each batch no
longer than the departures the floor still allows); growth arrivals (per
arrival: attachment draws, then honesty). Agents skipped before a target
was drawn consume no randomness, so runs with identical configurations
replay bit for bit.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from . import agents as agents_mod
from . import graph as graph_mod
from .agents import Role, WhitewashOutcome
from .draws import Draws
from .estimator import EstimatorArrays, legitimacy_threshold

TOPOLOGY_KINDS = ("scale_free", "regular")

# New nodes arrive in a batch every this many iterations.
GROWTH_PERIOD = 10

# A newcomer's reputation only counts toward the gossiped newcomer mean once
# it has been around for this many iterations (and at most newcomer_window).
NEWCOMER_MIN_TENURE = 3

# Grant improvements that matter are of order r_ini_min; this margin only
# has to swallow float jitter in gossip means (identical reputations can
# average to a value a few ulps off), never a real difference.
_GRANT_MARGIN = 1e-12

# The Simulation's arrays indexed by node id, one row per id issued.
_ID_ROWS = ("role_code", "reputation", "honesty", "attempts", "successes", "grant")


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. Defaults reproduce the reference scenario: a 1000
    node scale-free overlay, no growth, exact gossip, grants starting at
    0.5 with a 0.03 floor."""

    topology: str = "scale_free"
    n: int = 1000
    attach_edges: int = 3
    degree: int = 6
    growth_percent_per_10: float = 0.0
    iterations: int = 500
    r_ini_max0: float = 0.5
    r_ini_min: float = 0.03
    window_n_prime: int = 10
    x: float = 0.5
    mu: float = 0.5
    gossip_noise: float = 0.0
    seed: int = 0
    legit_departure_prob: float = 0.0
    newcomer_window: int = 10

    def __post_init__(self):
        problems = []
        for f in fields(self):  # annotations are strings: "int", "float", "str"
            name, value = f.name, getattr(self, f.name)
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    problems.append(f"{name}: must be an integer, got {value!r}")
            elif f.type == "float" and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                problems.append(f"{name}: must be a finite number, got {value!r}")
        if problems:  # the range checks below need numbers
            raise ValueError("invalid config: " + "; ".join(problems))
        if self.topology not in TOPOLOGY_KINDS:
            problems.append(f"topology: must be one of {TOPOLOGY_KINDS}, got {self.topology!r}")
        if self.n < 2:
            problems.append("n: must be >= 2")
        if self.attach_edges < 1:
            problems.append("attach_edges: must be >= 1")
        if self.degree < 1:
            problems.append("degree: must be >= 1")
        if self.growth_percent_per_10 < 0:
            problems.append("growth_percent_per_10: must be >= 0")
        if self.iterations < 0:
            problems.append("iterations: must be >= 0")
        if self.seed < 0:
            problems.append("seed: must be >= 0")
        degenerate = self.r_ini_max0 == 0 and self.r_ini_min == 0
        if not degenerate and not 0 <= self.r_ini_min < self.r_ini_max0 <= 1:
            problems.append(
                "r_ini_min/r_ini_max0: need 0 <= r_ini_min < r_ini_max0 <= 1 "
                "(or both zero to disable grants)"
            )
        if self.window_n_prime < 1:
            problems.append("window_n_prime: must be >= 1")
        if not 0 < self.x <= 1:
            problems.append("x: must be in (0, 1]")
        if not 0 < self.mu <= 1:
            problems.append("mu: must be in (0, 1]")
        if self.gossip_noise < 0:
            problems.append("gossip_noise: must be >= 0")
        if not 0 <= self.legit_departure_prob <= 1:
            problems.append("legit_departure_prob: must be in [0, 1]")
        if self.newcomer_window < NEWCOMER_MIN_TENURE:
            problems.append(f"newcomer_window: must be >= {NEWCOMER_MIN_TENURE}")
        # The gossiped node count is the live count times a factor of at
        # least 1 - gossip_noise, and the run needs it >= 1 at the smallest
        # live count it can reach: attach_edges + 1 once departures are on
        # (where they stop), else n (whitewashing keeps the count, growth
        # only adds). Past 2**64 nodes the product is >= 1 for any factor
        # above 0, so the floor is capped there to stay a float.
        floor = min(self.n, self.attach_edges + 1) if self.legit_departure_prob > 0 else self.n
        if (1.0 - self.gossip_noise) * min(floor, 2**64) < 1:
            problems.append(
                f"gossip_noise: {self.gossip_noise!r} can gossip fewer than 1 node "
                f"at {floor} live nodes; need (1 - gossip_noise) * {floor} >= 1"
            )
        # What the chosen generator needs to build the overlay at all.
        if self.topology == "scale_free" and self.n <= self.attach_edges:
            problems.append("n: a scale-free overlay needs n > attach_edges")
        if self.topology == "regular":
            if self.degree >= self.n:
                problems.append("degree: a regular overlay needs degree < n")
            if self.n * self.degree % 2:
                problems.append("n * degree: must be even for a regular overlay")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    n_nodes: int
    whitewash_attempts: int
    whitewash_successes: int
    whitewash_fraction: float
    mean_offered_r_ini: float
    mean_w_estimate: float
    mean_w_max: float


def take_snapshot(t: graph_mod.Topology, noise: float, rng: Draws) -> tuple[float, float]:
    """(node count, degree sum), the aggregates every node learns by gossip.
    With noise > 0 (aggregation error) each is scaled by its own factor drawn
    uniformly from [1 - noise, 1 + noise], the count's first; 0 draws nothing."""
    node_count = float(t.node_count)
    degree_sum = 2.0 * t.edge_count
    if noise > 0:
        node_count *= rng.uniform(1.0 - noise, 1.0 + noise)
        degree_sum *= rng.uniform(1.0 - noise, 1.0 + noise)
    return node_count, degree_sum


class Simulation:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = Draws(np.random.default_rng(cfg.seed))
        if cfg.topology == "scale_free":
            self.topology = graph_mod.generate_scale_free(cfg.n, cfg.attach_edges, self.rng)
        else:
            self.topology = graph_mod.generate_regular(cfg.n, cfg.degree, self.rng)
        self.role_code, self.reputation, self.honesty = agents_mod.init_population(
            cfg.n, cfg.r_ini_max0, self.rng
        )
        self.attempts = np.zeros(cfg.n, dtype=np.int64)
        self.successes = np.zeros(cfg.n, dtype=np.int64)
        self.grant = np.zeros(cfg.n)
        self.iteration = 0
        self._first_id = [0]
        # Shared estimate of the ceiling other nodes grant newcomers, held
        # at no less than twice the floor so offers never pin themselves
        # into a corner the estimate cannot recover from.
        self._est_floor = min(2 * cfg.r_ini_min, cfg.r_ini_max0)
        self.r_est = cfg.r_ini_max0
        self._mu_x = cfg.mu**cfg.x
        t = self.topology
        # The first snapshot also returns the churn the build booked, which
        # no estimate reads.
        self._est = EstimatorArrays(
            cfg.window_n_prime,
            t.live_ids(),
            self.r_est,
            t.neighbor_degree_array(t.next_id)[0],
        )
        self._prev_count = float(cfg.n)
        self.auto_whitewash = True

    # ---- per-phase helpers -------------------------------------------

    def _record_transactions(self, n: int) -> None:
        # Start the agents that joined at n - 2 (at n = 1, those that joined
        # at 0; they come round again at n = 2 and get the same values).
        # One expected service round sets the reputation for good: a
        # cooperator provides the mean share mu^x of what it is asked, a free
        # rider nothing, and later rounds scale both sides of that ratio.
        j = max(n - 2, 0)
        ids = slice(self._first_id[j], self._first_id[j + 1])
        code, reputation = self.role_code[ids], self.reputation[ids]
        reputation[code == Role.COOPERATIVE.value] = self._mu_x
        reputation[code == Role.POTENTIAL_WHITEWASHER.value] = 0.0

    def _newcomer_pool(self, n: int) -> np.ndarray:
        """Ascending ids of the live agents whose tenure at iteration n lies
        in [NEWCOMER_MIN_TENURE, newcomer_window]."""
        first = self._first_id[max(n - self.cfg.newcomer_window, 0)]
        end = self._first_id[max(n - NEWCOMER_MIN_TENURE + 1, 0)]
        return first + np.flatnonzero(self.role_code[first:end])

    def _estimate(self, n: int) -> tuple[float, float, float]:
        cfg = self.cfg
        t = self.topology
        node_count, degree_sum = take_snapshot(t, cfg.gossip_noise, self.rng)
        # The ceiling other nodes grant newcomers: the mean reputation recent
        # arrivals carry, held through quiet spells.
        pool = self._newcomer_pool(n)
        if len(pool):
            mean = float(np.mean(self.reputation[pool]))
            self.r_est = min(max(mean, self._est_floor), 1.0)
        d_avg = degree_sum / node_count  # SimConfig keeps node_count >= 1
        growth_ratio = node_count / self._prev_count
        # Expected share of the arrivals that plain growth explains: each
        # arrival brings attach_edges preferential edges, so a neighborhood
        # of summed degree S expects (g - 1) * attach_edges / d_avg * S new
        # members between estimates.
        coef = (growth_ratio - 1.0) * cfg.attach_edges / d_avg if d_avg > 0 else 0.0

        swept, w_sum, wmax_sum, offer_sum = self._est.sweep(
            *t.neighbor_degree_array(self._est.capacity),
            coef,
            self.r_est,
            cfg.r_ini_min,
        )
        n_now = t.node_count
        self._prev_count = node_count
        mean_offer = (offer_sum + (n_now - swept) * self.r_est) / n_now
        return mean_offer, w_sum / n_now, wmax_sum / n_now

    @property
    def last_w_sweep(self) -> Mapping[int, float]:
        """Most recent per-node whitewash levels, for inspection; nodes
        absent from the sweep saw no churn and sit at zero."""
        return self._est.last_sweep

    def _register_newcomers(self, ids: int | slice, role, honesty, attempts, successes) -> None:
        """Register the newest ids, up to the topology's next id: a rejoin's
        id (numpy writes through one index several times faster than through
        a slice) or a growth batch's slice. Grows the arrays indexed by node
        id once, primes the windows and writes each person's facts, one value
        or one per id; the caller then writes the grants, the reputations."""
        end = self.topology.next_id
        if end > len(self.role_code):
            for name in _ID_ROWS:
                setattr(self, name, graph_mod.grown(getattr(self, name), end))
        self._est.prime(ids if isinstance(ids, int) else ids.start, end, self.r_est)
        self.role_code[ids] = role
        self.honesty[ids] = honesty
        self.attempts[ids] = attempts
        self.successes[ids] = successes

    def _drop_node(self, vid: int, benign: bool) -> None:
        """Remove a node, booked as a benign departure at each neighbor if
        `benign`."""
        graph_mod.remove_node(self.topology, vid, benign)
        self.role_code[vid] = 0
        self._est.retire(vid)

    def _execute_whitewash(self, vid: int, offered: float) -> int:
        # A leaver that still looks reputable is booked as a benign
        # departure, so the rejoin slips past the estimator. The person
        # keeps its role, honesty and counters under the new id.
        person = (self.role_code[vid], self.honesty[vid], self.attempts[vid], self.successes[vid])
        threshold = legitimacy_threshold(self.r_est, self.cfg.r_ini_min)
        self._drop_node(vid, self.reputation[vid] >= threshold)
        new_id, _ = self.topology.attach(self.cfg.attach_edges, self.rng)
        self._register_newcomers(new_id, *person)
        self.reputation[new_id] = self.grant[new_id] = offered
        return new_id

    def _pollers(self) -> np.ndarray:
        """Ascending ids of the potential whitewashers the wave polls: the
        live ones that have not attempted yet, and the ones with a success
        whose grant the ceiling estimate beats by more than the margin. One
        with attempts but no success never attempts again (its success rate
        is 0), and while r_est <= grant + margin no offer anywhere can beat
        the grant it holds."""
        end = self.topology.next_id
        tried = self.attempts[:end] > 0
        better = (self.successes[:end] > 0) & (self.grant[:end] + _GRANT_MARGIN < self.r_est)
        washer = self.role_code[:end] == Role.POTENTIAL_WHITEWASHER.value
        return np.flatnonzero(washer & (~tried | better))

    def _whitewash_wave(self) -> tuple[int, int]:
        polled = self._pollers()
        if not len(polled):
            return 0, 0
        pool = self.topology.live_ids()
        attempts = 0
        successes = 0
        for vid, honesty, tried, won, grant in zip(
            polled.tolist(),
            self.honesty[polled].tolist(),
            self.attempts[polled].tolist(),
            self.successes[polled].tolist(),
            self.grant[polled].tolist(),
        ):
            target = pool[self.rng.integers(len(pool))]
            offered = float(self._est.offers[target])
            if tried and offered <= grant + _GRANT_MARGIN:
                continue  # probed a suppressed corner; not worth a reset
            outcome = agents_mod.decide_whitewash(honesty, tried, won, offered, self.rng)
            if outcome is WhitewashOutcome.NO_ATTEMPT:
                continue
            attempts += 1
            self.attempts[vid] += 1
            if outcome is WhitewashOutcome.WHITEWASHED:
                successes += 1
                self.successes[vid] += 1
                self._execute_whitewash(vid, offered)
        return attempts, successes

    def _voluntary_departures(self) -> None:
        cfg = self.cfg
        threshold = legitimacy_threshold(self.r_est, cfg.r_ini_min)
        candidates = np.flatnonzero(
            (self.role_code == Role.COOPERATIVE.value) & (self.reputation >= threshold)
        )
        # Departures stop at attach_edges + 1 nodes, and no draw is made
        # past that floor: a batch never holds more draws than departures
        # the floor still allows, so every draw in it is one a candidate
        # by candidate loop would make too.
        room = self.topology.node_count - cfg.attach_edges - 1
        leavers: list[int] = []
        done = 0
        while done < len(candidates) and len(leavers) < room:
            batch = candidates[done : done + room - len(leavers)]
            done += len(batch)
            leavers += batch[self.rng.random(len(batch)) < cfg.legit_departure_prob].tolist()
        for vid in leavers:
            self._drop_node(vid, True)

    def _grow_population(self) -> None:
        t, rng, k = self.topology, self.rng, self.cfg.attach_edges
        count = round(t.node_count * self.cfg.growth_percent_per_10 / 100)
        first = t.next_id
        first_hosts, honesty = [], []
        for _ in range(count):
            first_hosts.append(t.attach(k, rng)[1][0])
            honesty.append(rng.random())
        honesty, first_hosts = np.array(honesty), np.array(first_hosts, dtype=np.int64)
        washer = honesty < self.r_est
        role = np.where(washer, Role.POTENTIAL_WHITEWASHER.value, Role.COOPERATIVE.value)
        ids = slice(first, t.next_id)
        self._register_newcomers(ids, role, honesty, 0, 0)
        # The first host a newcomer contacts vouches for it: its offer, the
        # prime for a host of the same batch, is the newcomer's grant.
        self.reputation[ids] = self.grant[ids] = self._est.offers[first_hosts]

    # ---- public API ---------------------------------------------------

    def step(self) -> IterationRecord:
        self.iteration += 1
        n = self.iteration
        self._first_id.append(self.topology.next_id)
        self._record_transactions(n)
        mean_offer, mean_w, mean_wmax = self._estimate(n)
        attempts = successes = 0
        if self.auto_whitewash:
            attempts, successes = self._whitewash_wave()
        if self.cfg.legit_departure_prob > 0:
            self._voluntary_departures()
        if self.cfg.growth_percent_per_10 > 0 and n % GROWTH_PERIOD == 0:
            self._grow_population()
        n_nodes = self.topology.node_count
        return IterationRecord(
            iteration=n,
            n_nodes=n_nodes,
            whitewash_attempts=attempts,
            whitewash_successes=successes,
            whitewash_fraction=successes / n_nodes,
            mean_offered_r_ini=mean_offer,
            mean_w_estimate=mean_w,
            mean_w_max=mean_wmax,
        )

    def force_whitewash(self, vid: int) -> int:
        """Reset one agent's identity outside the decision machinery (the
        attempt counters stay untouched); used to plant ground-truth churn."""
        return self._execute_whitewash(vid, self.r_est)


class TooFewWhitewashers(ValueError):
    """`closed_world_estimator_check` was asked to plant more rejoins than
    the run has potential whitewashers."""


def run(cfg: SimConfig) -> list[IterationRecord]:
    sim = Simulation(cfg)
    return [sim.step() for _ in range(cfg.iterations)]


def closed_world_estimator_check(cfg: SimConfig, injected: int) -> tuple[float, float]:
    """Plant a known number of whitewash rejoins in an otherwise quiet run
    and compare the population-mean estimated level against the level
    computed directly from the planted arrivals.

    Returns (estimated, true). With zero growth the two agree to float
    precision; with growth the background-arrival correction leaves a
    residual error. injected = 0 returns (0.0, 0.0).
    """
    if injected < 0:
        raise ValueError("injected must be >= 0")
    if injected == 0:
        return 0.0, 0.0
    sim = Simulation(cfg)
    sim.auto_whitewash = False
    for _ in range(GROWTH_PERIOD):
        sim.step()
    washers = np.flatnonzero(sim.role_code == Role.POTENTIAL_WHITEWASHER.value).tolist()
    if len(washers) < injected:
        raise TooFewWhitewashers(
            f"injected: {injected} planted rejoins, but the population has only "
            f"{len(washers)} potential whitewashers after {GROWTH_PERIOD} steps"
        )
    t = sim.topology
    arrivals: dict[int, int] = {}
    for vid in washers[:injected]:
        new_id = sim.force_whitewash(vid)
        # Record the hosts right away: a later planted node may attach to
        # this one, and hosting an arrival is not the same as being one.
        for u in t.neighbors(new_id):
            arrivals[u] = arrivals.get(u, 0) + 1
    record = sim.step()

    contrib: dict[int, float] = {}
    for j, aj in arrivals.items():
        if j not in t:
            continue  # the host was washed by a later injection
        for i in t.neighbors(j):
            contrib[i] = contrib.get(i, 0.0) + aj
    total = 0.0
    for i in t.live_ids().tolist():
        den = sum(map(t.degree_of, t.neighbors(i)))
        if den > 0:
            total += min(max(contrib.get(i, 0.0) / den, 0.0), 1.0)
    return record.mean_w_estimate, total / t.node_count
