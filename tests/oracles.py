"""Scalar reference implementations that the shipped code is checked against.

The simulation runs the estimator as one array kernel
(`p2psim.estimator.EstimatorArrays`). The per-node rules below state the
same arithmetic one node at a time, in the plainest form: the sliding-window
peak, the offer against that peak, and the whitewash level of a node's
neighborhood. Tests feed both the same churn and require equal results.

The timing game's enumerators (`expected_payoffs`, `indifference_residual`)
and the crossover search (`crossover_round`) are kept here as the scalar
loops and the block scan that the shipped array kernels and affine solve
must match bit for bit.

`pairing_attempt` is the pairing model one stub pair at a time, the
reference for the shuffle rounds of `graph.generate_regular`.

`RefTopology` is the reference model of `graph.Topology`: plain neighbor
sets per node, changed one node or edge at a time (`add_node`, `add_edge`,
`remove_edge`), with its own attachment pool, stale count and sampler. Its
node events (`attach`, `remove_node`) and builds (`by_edges`, `scale_free`,
`regular`) replay the topology's one-pass events edge by edge, and must
reach the same end state, the booked churn included. Its `snapshot`
recounts from the sets what `Topology.neighbor_degree_array` keeps up to
date. `adjacency`, `neighbor_degree_sum` and `churn_sums` read either
model through the read API they share (`neighbors`, `degree_of`,
`live_ids`, `in`). `books` reads the pool and the churn books of either
model in the reference's form: the topology keeps them as per-id arrays.

`grow_one_at_a_time` is a growth batch registered one arrival at a time,
the reference for the engine's registration of the whole batch in one write.

`JoinLog` records the iteration at which each id joined a run, watching the
topology's next id from outside the engine, and gathers the newcomer pool
from join-iteration buckets: the reference for the engine's id ranges.

`read_records_csv` parses a `simulate` CSV back into records, for the
round-trip tests of the CLI's writer.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from p2psim.cli import CSV_HEADER
from p2psim.draws import Draws
from p2psim.agents import Role
from p2psim.engine import _ID_ROWS, NEWCOMER_MIN_TENURE, IterationRecord, Simulation
from p2psim.estimator import offer_curve
from p2psim.game import GameSpec, MixedProfile
from p2psim.graph import (
    _PAIRING_RETRY_CAP,
    InfeasibleParametersError,
    InvalidParameterError,
    NodeId,
    UnknownNodeError,
    grown,
)
from p2psim.payoff import (
    DEFAULT_CROSSOVER_CAP,
    CrossoverCapExceeded,
    IdentityRegime,
    PayoffParams,
    coop_payoff,
    defector_payoff,
)

DEFAULT_WINDOW = 10


class EmptyNeighborhoodError(ValueError):
    pass


class DegenerateAverageError(ZeroDivisionError):
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


def draws(seed: int) -> Draws:
    """A fresh run's draw source at `seed`, for the graph and gossip calls
    that take the run's `Draws`."""
    return Draws(np.random.default_rng(seed))


def pairing_attempt(n: int, degree: int, rng) -> tuple[list[tuple[int, int]] | None, int]:
    """One attempt of the pairing model, one stub pair at a time: the
    reference for `graph._try_pairing`. Each round shuffles the stubs and
    walks the pairs in order; a self-loop or an edge already taken goes back
    as u, v into the next round's stubs. Returns the edges sorted, or None
    if a round accepted nothing, and the number of rounds."""
    stubs = np.repeat(np.arange(n), degree)
    edges: set[tuple[int, int]] = set()
    rounds = 0
    while len(stubs):
        rounds += 1
        rng.shuffle(stubs)
        leftover = []
        progress = False
        for i in range(0, len(stubs) - 1, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                leftover += [u, v]
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                leftover += [u, v]
                continue
            edges.add(key)
            progress = True
        if not progress:
            return None, rounds
        stubs = np.array(leftover, dtype=np.int64)
    return sorted(edges), rounds


class RefTopology:
    """Dict-of-sets reference model of `graph.Topology`. The pool, its
    copies and stale count, the isolated count, the marked nodes and the
    booked churn follow the same rules, written one edge at a time, under
    the topology's own attribute names, so that one `topology_state` reads
    both; the sampler is the topology's, written over the sets."""

    POOL_STALE_LIMIT = 0.25  # the topology's rebuild threshold, restated

    def __init__(self):
        self.adj: dict[NodeId, set[NodeId]] = {}
        self.next_id = 0
        self.edge_count = 0
        self.isolated_count = 0
        self._touched: set[NodeId] = set()
        self._arrived: dict[NodeId, int] = {}
        self._benign_gone: dict[NodeId, int] = {}
        self._pool: list[NodeId] = []
        self._pool_copies: dict[NodeId, int] = {}
        self._pool_stale = 0

    @classmethod
    def by_edges(cls, n: int, edges) -> RefTopology:
        """`n` nodes, then one `add_edge` per pair in order."""
        t = cls()
        for _ in range(n):
            t.add_node()
        for u, v in edges:
            t.add_edge(u, v)
        return t

    @classmethod
    def regular(cls, n: int, degree: int, rng) -> RefTopology:
        """`graph.generate_regular`: `pairing_attempt` until one succeeds,
        at most `graph._PAIRING_RETRY_CAP` times, then `by_edges`. Above
        degree (n - 1)/2 the attempts pair n - 1 - degree stubs per node,
        and `by_edges` takes the pairs left out, ascending."""
        dense = 2 * degree > n - 1
        for _ in range(_PAIRING_RETRY_CAP):
            edges, _ = pairing_attempt(n, n - 1 - degree if dense else degree, rng)
            if edges is not None:
                if dense:
                    taken = set(edges)
                    edges = [e for e in itertools.combinations(range(n), 2) if e not in taken]
                return cls.by_edges(n, edges)
        raise InfeasibleParametersError(f"pairing failed for n={n}, degree={degree}")

    @classmethod
    def scale_free(cls, n: int, attach_edges: int, rng) -> RefTopology:
        """`graph.generate_scale_free`: a clique of attach_edges + 1 nodes,
        then one `attach` per further node."""
        k = attach_edges + 1
        t = cls.by_edges(k, itertools.combinations(range(k), 2))
        for _ in range(n - k):
            t.attach(attach_edges, rng)
        return t

    # ---- the read API both models share ----------------------------------

    @property
    def node_count(self) -> int:
        return len(self.adj)

    def __contains__(self, v: NodeId) -> bool:
        return v in self.adj

    def live_ids(self) -> np.ndarray:
        return np.array(sorted(self.adj), dtype=np.int64)

    def degree_of(self, v: NodeId) -> int:
        return len(self.adj.get(v, ()))

    def neighbors(self, v: NodeId) -> list[NodeId]:
        if v not in self.adj:
            raise UnknownNodeError(v)
        return list(self.adj[v])

    # ---- edge events ------------------------------------------------------

    def add_node(self) -> NodeId:
        v = self.next_id
        self.next_id += 1
        self.adj[v] = set()
        self._pool_copies[v] = 0
        self.isolated_count += 1
        return v

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        if u == v:
            raise InvalidParameterError("self-loops are not allowed")
        au, av = self.adj.get(u), self.adj.get(v)
        if au is None or av is None:
            raise UnknownNodeError((u, v))
        if v in au:
            return
        self.isolated_count -= (not au) + (not av)
        au.add(v)
        av.add(u)
        self._touched.update((u, v))
        self.edge_count += 1
        self._pool += (u, v)
        self._pool_copies[u] += 1
        self._pool_copies[v] += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        au, av = self.adj.get(u), self.adj.get(v)
        if au is None or av is None or v not in au:
            raise UnknownNodeError((u, v))
        au.discard(v)
        av.discard(u)
        self.isolated_count += (not au) + (not av)
        self._touched.update((u, v))
        self.edge_count -= 1
        self._pool_stale += 2

    # ---- node events -------------------------------------------------------

    def attach(self, count: int, rng) -> tuple[NodeId, list[NodeId]]:
        """`Topology.attach` one edge at a time: the same draws, then a new
        node and one `add_edge` per host in draw order, each booking one
        arrival at its host."""
        targets = self.sample_attachment_targets(count, rng)
        v = self.add_node()
        for u in targets:
            self.add_edge(v, u)
            self._arrived[u] = self._arrived.get(u, 0) + 1
        return v, targets

    def remove_node(self, v: NodeId, benign: bool = False) -> None:
        """`graph.remove_node` one edge at a time, ascending neighbor ids
        first, each booking one benign departure at the neighbor if
        `benign`. `remove_edge` marks both ends of each edge stale, and the
        node's pool copies are then counted as stale once more."""
        for u in sorted(self.adj[v]):
            self.remove_edge(v, u)
            if benign:
                self._benign_gone[u] = self._benign_gone.get(u, 0) + 1
        self._pool_stale += self._pool_copies.pop(v)
        self.isolated_count -= 1
        del self.adj[v]
        self._touched.add(v)

    # ---- preferential attachment ---------------------------------------------

    def _rebuild_pool(self) -> None:
        self._pool = [v for v in sorted(self.adj) for _ in self.adj[v]]
        self._pool_copies = {v: len(nbrs) for v, nbrs in self.adj.items()}
        self._pool_stale = 0

    def sample_attachment_targets(self, count: int, rng) -> list[NodeId]:
        adj = self.adj
        if not adj:
            raise InvalidParameterError("no attachment targets available")
        count = min(count, len(adj))
        if self._pool and self._pool_stale > self.POOL_STALE_LIMIT * len(self._pool):
            self._rebuild_pool()
        chosen: list[NodeId] = []
        while len(chosen) < min(count, len(adj) - self.isolated_count):
            v = self._pool[rng.integers(len(self._pool))]
            if v in chosen or v not in adj or not adj[v]:
                continue
            d, c = len(adj[v]), self._pool_copies[v]
            if d < c and rng.random() >= d / c:
                continue
            chosen.append(v)
        if len(chosen) < count:
            isolated = [v for v in sorted(adj) if not adj[v]]
            order = rng.permutation(len(isolated))
            chosen += [isolated[i] for i in order[: count - len(chosen)]]
        return chosen

    # ---- snapshot ----------------------------------------------------------------

    def snapshot(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What `Topology.neighbor_degree_array(size)` returns, counted from
        the sets; clears the marks and the booked churn the same way."""
        ndsum = np.zeros(size, dtype=np.int64)
        for v in self.adj:
            ndsum[v] = neighbor_degree_sum(self, v)
        gained, lost = (churn_sums(self, m, size) for m in (self._arrived, self._benign_gone))
        self._touched, self._arrived, self._benign_gone = set(), {}, {}
        return ndsum, gained, lost


@dataclass(frozen=True)
class Books:
    """The attachment pool and the churn booked since the last snapshot, as
    `RefTopology` keeps them: the pool as a list, the marked ids (whose
    neighbors changed) as a set, and the arrivals and benign departures as
    counts by host, holding only the hosts with a booking."""

    pool: list[NodeId]
    touched: set[NodeId]
    arrived: dict[NodeId, int]
    benign_gone: dict[NodeId, int]


def books(t) -> Books:
    """The pool and the books of `graph.Topology` or `RefTopology`. The
    topology keeps a per-id mark and two per-id counters, zero where
    nothing is booked; each is read here as the reference's set or dict,
    once the topology has wired its arrival log (`Topology._settle`)."""
    if isinstance(t, RefTopology):
        return Books(t._pool, t._touched, t._arrived, t._benign_gone)
    t._settle()
    return Books(
        list(t._pool),
        {v for v, mark in enumerate(t._touched) if mark},
        {v: c for v, c in enumerate(t._arrived) if c},
        {v: c for v, c in enumerate(t._benign_gone) if c},
    )


def topology_state(t) -> dict:
    """Everything a node event writes, read alike from `graph.Topology` and
    `RefTopology`: the neighbor sets (the order within a row or a set is
    free), the pool with each live id's copies and the stale count, the
    counters, the marked nodes and the booked churn. It wires the
    topology's arrival log first (see `books`)."""
    b = books(t)
    return {
        "adj": adjacency(t),
        "pool": b.pool,
        "pool_copies": {v: t._pool_copies[v] for v in t.live_ids().tolist()},
        "pool_stale": t._pool_stale,
        "node_count": t.node_count,
        "isolated_count": t.isolated_count,
        "edge_count": t.edge_count,
        "touched": b.touched,
        "arrived": b.arrived,
        "benign_gone": b.benign_gone,
        "next_id": t.next_id,
    }


def assert_same_topology(got, want, where="") -> None:
    a, b = topology_state(got), topology_state(want)
    for key in a:
        assert a[key] == b[key], f"{key} differs {where}"


def adjacency(t) -> dict[NodeId, set[NodeId]]:
    """Each live node's neighbor set, read through the shared read API."""
    return {v: set(t.neighbors(v)) for v in t.live_ids().tolist()}


def neighbor_degree_sum(t, v: NodeId) -> int:
    """The sum of the degrees of `v`'s neighbors, each counted from its
    neighbor list."""
    return sum(len(t.neighbors(u)) for u in t.neighbors(v))


def churn_sums(t, counts: dict[NodeId, int], size: int) -> np.ndarray:
    """For each live host j, counts[j] added to every current neighbor of
    j, as a float array indexed by node id and `size` long; hosts that are
    gone add nothing."""
    sums = np.zeros(size)
    for j, c in counts.items():
        if j in t:
            for i in t.neighbors(j):
                sums[i] += c
    return sums


def grow_one_at_a_time(sim: Simulation) -> list[tuple[NodeId, NodeId]]:
    """`Simulation._grow_population` with each arrival registered as it
    attaches. Per arrival: the attachment draws, then the honesty draw; the
    grant is the offer its first host makes right then, which for a host of
    the same batch is the prime; the arrays indexed by node id grow when the
    id outruns them; then its facts are written and its window is primed.
    Returns each arrival's id and first host."""
    t, rng = sim.topology, sim.rng
    count = round(t.node_count * sim.cfg.growth_percent_per_10 / 100)
    arrivals = []
    for _ in range(count):
        vid, hosts = t.attach(sim.cfg.attach_edges, rng)
        honesty = rng.random()
        grant = float(sim._est.offers[hosts[0]])
        role = Role.POTENTIAL_WHITEWASHER if honesty < sim.r_est else Role.COOPERATIVE
        if vid >= len(sim.role_code):
            for name in _ID_ROWS:
                setattr(sim, name, grown(getattr(sim, name), vid + 1))
        sim.reputation[vid] = sim.grant[vid] = grant
        sim.role_code[vid] = role
        sim.honesty[vid] = honesty
        sim.attempts[vid] = sim.successes[vid] = 0
        sim._est.prime(vid, vid + 1, sim.r_est)
        arrivals.append((vid, hosts[0]))
    return arrivals


class JoinLog:
    """The iteration at which each id joined a run, seen from outside the
    engine: the founding ids join at 0; after step n, every id at or above
    the topology's next id before the step joined at n; and an id that
    `force_whitewash` returns joined at `sim.iteration`. Step the run and
    plant rejoins through the log, so that it sees every id issued."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.joined_at = dict.fromkeys(range(sim.topology.next_id), 0)

    def step(self) -> IterationRecord:
        sim = self.sim
        first = sim.topology.next_id
        assert first == len(self.joined_at), "an id was issued outside the log"
        record = sim.step()
        for v in range(first, sim.topology.next_id):
            self.joined_at[v] = sim.iteration
        return record

    def force_whitewash(self, vid: NodeId) -> NodeId:
        new_id = self.sim.force_whitewash(vid)
        assert new_id == len(self.joined_at), "an id was issued outside the log"
        self.joined_at[new_id] = self.sim.iteration
        return new_id

    def newcomer_pool(self, n: int) -> list[NodeId]:
        """The live ids whose tenure at iteration n lies in
        [NEWCOMER_MIN_TENURE, newcomer_window], gathered as join-iteration
        buckets, each in the order its ids were issued."""
        buckets: dict[int, list[NodeId]] = {}
        for v, j in self.joined_at.items():
            buckets.setdefault(j, []).append(v)
        pool = []
        for j in range(max(n - self.sim.cfg.newcomer_window, 0), n - NEWCOMER_MIN_TENURE + 1):
            pool += [v for v in buckets.get(j, ()) if v in self.sim.topology]
        return pool


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


# ---- timing game and crossover -------------------------------------------


def expected_payoffs(spec: GameSpec, profile: MixedProfile) -> np.ndarray:
    """Per-player expected payoff, one joint assignment at a time."""
    schedule = spec.schedule()
    result = np.zeros(spec.kappa)
    for assignment in itertools.product(range(spec.rounds), repeat=spec.kappa):
        prob = 1.0
        for j, r in enumerate(assignment):
            prob *= profile.probs[j, r]
        if prob == 0.0:
            continue
        counts = [0] * spec.rounds
        for r in assignment:
            counts[r] += 1
        for j, r in enumerate(assignment):
            offer = schedule[counts[r] - 1]
            if offer >= spec.honesty[j]:
                result[j] += prob * offer
    return result


def indifference_residual(spec: GameSpec, profile: MixedProfile) -> float:
    """Worst per-player spread of conditional expected payoffs across
    rounds, one assignment of the other players at a time."""
    schedule = spec.schedule()
    worst = 0.0
    others = list(itertools.product(range(spec.rounds), repeat=spec.kappa - 1))
    for j in range(spec.kappa):
        conditional = []
        for i in range(spec.rounds):
            total = 0.0
            for rest in others:
                prob = 1.0
                idx = 0
                counts = [0] * spec.rounds
                counts[i] += 1
                for other in range(spec.kappa):
                    if other == j:
                        continue
                    r = rest[idx]
                    prob *= profile.probs[other, r]
                    counts[r] += 1
                    idx += 1
                offer = schedule[counts[i] - 1]
                if offer >= spec.honesty[j]:
                    total += prob * offer
            conditional.append(total)
        worst = max(worst, max(conditional) - min(conditional))
    return worst


def crossover_round(p: PayoffParams, regime: IdentityRegime, cap: int = DEFAULT_CROSSOVER_CAP):
    """Smallest k in 1..cap with coop - defector >= 0, walking the rounds in
    vectorized blocks; math.inf when the gap never closes, and
    CrossoverCapExceeded when it is still closing at the cap."""
    block = 65536
    start = 1
    while start <= cap:
        stop = min(start + block, cap + 1)
        ks = np.arange(start, stop)
        gap = coop_payoff(p, ks, regime) - defector_payoff(p, ks, regime)
        hits = np.nonzero(gap >= 0)[0]
        if hits.size:
            return int(ks[hits[0]])
        start = stop
    probe = np.array([cap, cap + 1])
    diff = coop_payoff(p, probe, regime) - defector_payoff(p, probe, regime)
    if diff[1] - diff[0] <= 0:
        return math.inf
    raise CrossoverCapExceeded(f"no crossover within {cap} rounds, gap still closing")
