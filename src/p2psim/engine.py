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
departure alike; `graph.remove_node` books a legitimate leaver as benign.
A whitewash rejoin and a growth arrival enter the same way, one
`Topology.attach` each, a growth arrival's honesty drawn right after its
attachment draws; the topology wires their rows at its next read of them.
It books the churn of both node events: one arrival at each host, and one
benign departure at each neighbor of a benign leaver.

The estimator state of step 2 lives in `estimator.EstimatorArrays` (the
window ring, the kept peaks and a dense offer array that answers probes).
Each sweep reads one snapshot from `Topology.neighbor_degree_array`: the
neighbor-degree sums, those of the previous snapshot as its baseline, and
the churn sums (arrivals and benign departures summed over each node's
neighbors), gathered once over the nodes whose neighbors changed. Node
events themselves keep no sums. Outputs match the per-node formulas bit
for bit: one `estimator.offer_curve` call per sweep, and per-iteration sums
added in ascending-id order one element at a time, never pairwise. The
snapshot and the sweep span the topology's rows.

Every identity gets a fresh id, ids only grow, and every id issued during
iteration n joins at n: the founding ids and a rejoin planted before the
first step at 0, wave rejoins and growth arrivals during their step, and a
rejoin planted between steps n and n + 1 at n. Every agent fact is one
array indexed by row (`_ID_ROWS`), the topology's rows (see `graph`): one
per node, ascending in id, so the nodes that joined at j hold one range of
rows, from `_first_row[j]` (the topology's row count at the start of step
j, 0 for j = 0) up to `_first_row[j + 1]`. That array is the only place the
fact is kept: `reputation` (drawn for a founder, the grant for a newcomer,
then the earned value from the transaction start); `role_code`, the
node's `agents.Role` value, 0 once the phase in which the node leaves ends
(or past the rows in use), so it also marks liveness; `honesty`; the
attempt counters `attempts` and `successes`; and `grant`, what the current
identity was born with (0 for a founder, which never reads it). Every node
registers through one path, `Simulation._register_newcomers`, which grows
these arrays and the estimator's to the row count (`graph.grown`, with
room for twice the live nodes), primes the windows and makes one write per
array over one row range: the founders' at set-up, whose drawn
reputations are written after it; a growth batch, whose grants, the offers
of each arrival's first host, are read only once the batch is primed; or
the rejoins of a wave or of one planted reset (`_register_rejoins`), each
new row taking its person's role, honesty and counters and its offer as
grant. A wave's loop makes only the draws and the topology calls, and its
writes follow it: no read in the wave needs them, as it reads the
pollers' facts and the live rows at its start, and r_est and the ring's
write slot hold through it.
Departures write once too. The transaction start is two masked writes on
one row range, the newcomer pool is the live rows of one range, and the
departure candidates and the wave's pollers are one mask each.

Once dead rows make up a quarter of all rows, the end of the step's
estimate compacts them away (`Simulation._compact`): the topology, these
arrays, the estimator's and the join ranges drop the same rows in one
order-preserving pass. At that point the snapshot has just wired every
arrival and dropped every tombstone, and no wave, growth batch or draw
holds a row. Ids appear only at the edge: `Topology.attach`,
`force_whitewash` and `last_w_sweep` take or give them. `graph.remove_node`
takes the row the engine holds, and a planted rejoin (`Simulation._plant`,
which `closed_world_estimator_check` calls) the row it resets.

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
from dataclasses import dataclass, fields

import numpy as np

from . import agents as agents_mod
from . import graph as graph_mod
from .agents import Role, WhitewashOutcome
from .draws import Draws
from .estimator import EstimatorArrays, _ordered_sum, legitimacy_threshold

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

# Dead rows are compacted away once they make up this share of all rows.
_COMPACT_SHARE = 0.25

# The Simulation's arrays indexed by row, one entry per node, by dtype.
_ID_ROWS = {"role_code": np.int8, "reputation": np.float64, "honesty": np.float64,
            "attempts": np.int64, "successes": np.int64, "grant": np.float64}


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
        role, reputation, honesty = agents_mod.init_population(cfg.n, cfg.r_ini_max0, self.rng)
        for name, dtype in _ID_ROWS.items():
            setattr(self, name, np.zeros(0, dtype))
        self.iteration = 0
        self._first_row = [0]
        # Shared estimate of the ceiling other nodes grant newcomers, held
        # at no less than twice the floor so offers never pin themselves
        # into a corner the estimate cannot recover from.
        self._est_floor = min(2 * cfg.r_ini_min, cfg.r_ini_max0)
        self.r_est = cfg.r_ini_max0
        self._mu_x = cfg.mu**cfg.x
        # The first snapshot sets the first sweep's baseline and drops the build's churn.
        self.topology.neighbor_degree_array()
        self._est = EstimatorArrays(cfg.window_n_prime)
        # The founders register like every later id; their grant stays 0.
        self._register_newcomers(slice(0, cfg.n), role, honesty, 0, 0)
        self.reputation[:] = reputation
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
        rows = slice(self._first_row[j], self._first_row[j + 1])
        code, reputation = self.role_code[rows], self.reputation[rows]
        reputation[code == Role.COOPERATIVE.value] = self._mu_x
        reputation[code == Role.POTENTIAL_WHITEWASHER.value] = 0.0

    def _newcomer_pool(self, n: int) -> np.ndarray:
        """Ascending rows of the live agents whose tenure at iteration n lies
        in [NEWCOMER_MIN_TENURE, newcomer_window]."""
        first = self._first_row[max(n - self.cfg.newcomer_window, 0)]
        end = self._first_row[max(n - NEWCOMER_MIN_TENURE + 1, 0)]
        return first + np.flatnonzero(self.role_code[first:end])

    def _estimate(self, n: int) -> tuple[float, float, float]:
        cfg, t = self.cfg, self.topology
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
            *t.neighbor_degree_array(), coef, self.r_est, cfg.r_ini_min
        )
        n_now = t.node_count
        self._prev_count = node_count
        dead = t.rows - n_now
        if dead and dead >= _COMPACT_SHARE * t.rows:
            self._compact()
        mean_offer = (offer_sum + (n_now - swept) * self.r_est) / n_now
        return mean_offer, w_sum / n_now, wmax_sum / n_now

    def _compact(self) -> None:
        """Drop the dead rows everywhere in one order-preserving pass: the
        topology's, these arrays', the estimator's and the join ranges'.
        Right after the sweep, as `Topology.compact` requires."""
        kept = self.topology.compact()
        for name in _ID_ROWS:
            setattr(self, name, getattr(self, name)[kept])
        self._est.compact(kept)
        self._first_row = np.searchsorted(kept, self._first_row).tolist()

    @property
    def last_w_sweep(self) -> np.ndarray:
        """Ascending ids of the latest sweep, for inspection."""
        return self.topology.ids_at(self._est.swept)

    def _register_newcomers(self, rows: slice, role, honesty, attempts, successes) -> None:
        """Register the newest rows, a slice up to the topology's row count:
        the founders, a growth batch or a wave's rejoins. Grows the arrays
        indexed by row, primes the windows and writes each person's facts;
        the caller then writes the grants and the reputations."""
        t = self.topology
        if t.rows > len(self.role_code):
            for name in _ID_ROWS:
                setattr(self, name, graph_mod.grown(getattr(self, name), t.rows, 2 * t.node_count))
            self._est.reserve(len(self.role_code))
        self._est.prime(rows, self.r_est)
        self.role_code[rows] = role
        self.honesty[rows] = honesty
        self.attempts[rows] = attempts
        self.successes[rows] = successes

    def _register_rejoins(self, leavers: list[int], offers: list[float]) -> None:
        """Register the rejoins of the rows `leavers`, removed and attached
        in this order, as the newest rows: each takes its person's role,
        honesty and counters, and its offer as grant and reputation; the old
        rows retire."""
        end = self.topology.rows
        rows = slice(end - len(leavers), end)
        self._register_newcomers(rows, self.role_code[leavers], self.honesty[leavers],
                                 self.attempts[leavers], self.successes[leavers])
        self.reputation[rows] = self.grant[rows] = offers
        self.role_code[leavers] = 0
        self._est.retire(leavers)

    def _pollers(self) -> np.ndarray:
        """Ascending rows of the potential whitewashers the wave polls: the
        live ones that have not attempted yet, and the ones with a success
        whose grant the ceiling estimate beats by more than the margin. One
        with attempts but no success never attempts again (its success rate
        is 0), and while r_est <= grant + margin no offer anywhere can beat
        the grant it holds."""
        end = self.topology.rows
        tried = self.attempts[:end] > 0
        better = (self.successes[:end] > 0) & (self.grant[:end] + _GRANT_MARGIN < self.r_est)
        washer = self.role_code[:end] == Role.POTENTIAL_WHITEWASHER.value
        return np.flatnonzero(washer & (~tried | better))

    def _whitewash_wave(self) -> tuple[int, int]:
        polled = self._pollers()
        if not len(polled):
            return 0, 0
        t, pool = self.topology, self.topology.live_rows()
        threshold = legitimacy_threshold(self.r_est, self.cfg.r_ini_min)
        tried_rows, leavers, offers = [], [], []
        facts = (self.honesty, self.attempts, self.successes, self.grant, self.reputation)
        below, live, est_offers = self.rng.below, len(pool), self._est.offers
        for row, honesty, tried, won, grant, reputation in zip(
            polled.tolist(), *(a[polled].tolist() for a in facts)
        ):
            offered = float(est_offers[pool[below(live)]])
            if tried and offered <= grant + _GRANT_MARGIN:
                continue  # probed a suppressed corner; not worth a reset
            outcome = agents_mod.decide_whitewash(honesty, tried, won, offered, self.rng)
            if outcome is WhitewashOutcome.NO_ATTEMPT:
                continue
            tried_rows.append(row)
            if outcome is WhitewashOutcome.WHITEWASHED:
                # A leaver that still looks reputable is booked as a benign
                # departure, so the rejoin slips past the estimator.
                graph_mod.remove_node(t, row, reputation >= threshold)
                t._attach(self.cfg.attach_edges, self.rng)
                leavers.append(row)
                offers.append(offered)
        # Each poller appears once; the rejoins carry the raised counters.
        self.attempts[tried_rows] += 1
        self.successes[leavers] += 1
        self._register_rejoins(leavers, offers)
        return len(tried_rows), len(leavers)

    def _voluntary_departures(self) -> None:
        cfg = self.cfg
        threshold = legitimacy_threshold(self.r_est, cfg.r_ini_min)
        end = self.topology.rows
        candidates = np.flatnonzero(
            (self.role_code[:end] == Role.COOPERATIVE.value) & (self.reputation[:end] >= threshold)
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
        for row in leavers:
            graph_mod.remove_node(self.topology, row, True)
        self.role_code[leavers] = 0
        self._est.retire(leavers)

    def _grow_population(self) -> None:
        t, rng, k = self.topology, self.rng, self.cfg.attach_edges
        first = t.rows
        first_hosts, honesty = [], []
        for _ in range(round(t.node_count * self.cfg.growth_percent_per_10 / 100)):
            first_hosts.append(t._attach(k, rng)[0])
            honesty.append(rng.random())
        honesty, first_hosts = np.array(honesty), np.array(first_hosts, dtype=np.int64)
        rows = slice(first, t.rows)
        self._register_newcomers(rows, agents_mod.role_codes(honesty, self.r_est), honesty, 0, 0)
        # The first host a newcomer contacts vouches for it: its offer, the
        # prime for a host of the same batch, is the newcomer's grant.
        self.reputation[rows] = self.grant[rows] = self._est.offers[first_hosts]

    # ---- public API ---------------------------------------------------

    def step(self) -> IterationRecord:
        self.iteration += 1
        n = self.iteration
        self._first_row.append(self.topology.rows)
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

    def _plant(self, row: int) -> list[int]:
        """Plant a rejoin: reset the identity of the live node at `row` outside
        the decision machinery (the attempt counters stay untouched). Returns
        the new node's hosts, as rows in draw order."""
        t = self.topology
        benign = self.reputation[row] >= legitimacy_threshold(self.r_est, self.cfg.r_ini_min)
        graph_mod.remove_node(t, row, benign)
        hosts = t._attach(self.cfg.attach_edges, self.rng)
        self._register_rejoins([row], [self.r_est])
        return hosts

    def force_whitewash(self, vid: int) -> int:
        """`_plant` for the live node `vid`; returns the new id."""
        self._plant(self.topology.live_row(vid))
        return self.topology.next_id - 1


class TooFewWhitewashers(ValueError):
    """`closed_world_estimator_check` was asked to plant more rejoins than
    the run has potential whitewashers."""


def run(cfg: SimConfig) -> list[IterationRecord]:
    sim = Simulation(cfg)
    return [sim.step() for _ in range(cfg.iterations)]


def closed_world_estimator_check(cfg: SimConfig, injected: int) -> tuple[float, float]:
    """Plant a known number of whitewash rejoins in an otherwise quiet run
    and compare the population-mean estimated level against the level
    computed directly from the planted arrivals (`planted_level`), both on
    the overlay the rejoins leave, before the check step's own departures.

    Returns (estimated, true); injected = 0 returns (0.0, 0.0). Without
    growth or departures the two agree to float precision. Growth leaves the
    residual of the background-arrival correction, and departures leave the
    benign departures of the step before, read as churn, and the correction
    for a shrinking overlay (ROADMAP item 5).
    """
    if injected < 0:
        raise ValueError("injected must be >= 0")
    if injected == 0:
        return 0.0, 0.0
    sim = Simulation(cfg)
    sim.auto_whitewash = False
    for _ in range(GROWTH_PERIOD):
        sim.step()
    washers = np.flatnonzero(sim.role_code == Role.POTENTIAL_WHITEWASHER.value)
    if len(washers) < injected:
        raise TooFewWhitewashers(
            f"injected: {injected} planted rejoins, but the population has only "
            f"{len(washers)} potential whitewashers after {GROWTH_PERIOD} steps"
        )
    hosts = [u for row in washers[:injected].tolist() for u in sim._plant(row)]
    true_level = planted_level(sim.topology, hosts)
    return sim.step().mean_w_estimate, true_level


def planted_level(t: graph_mod.Topology, hosts: list[int]) -> float:
    """The true whitewash level of planted rejoins on the overlay as it
    stands, `hosts` being their hosts' rows, one per planted edge: each live
    node's arrivals at its live neighbors over its neighbor-degree sum,
    clipped to [0, 1], added in ascending row order one at a time and
    divided by the live count. A washed host adds nothing. A node with no
    arrival next to it is left out: its +0.0 would not change the sum."""
    booked, ndsum = t.neighbor_sums(np.bincount(hosts, minlength=t.rows))
    return _ordered_sum(np.clip(booked / ndsum, 0.0, 1.0)) / t.node_count
