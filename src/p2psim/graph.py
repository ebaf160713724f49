"""Mutable unstructured-overlay topologies with preferential-attachment growth.

Node ids are monotonically increasing and never reused, so identity churn
(a node leaving and rejoining) is visible in the id space, `adj` iterates
in ascending id order, and an array indexed by node id only ever grows
(`grown`). Every mutation is a node event or a whole build, each one pass
over the edges it wires or unhooks: `Topology.attach` wires a new node to
all its hosts, `remove_node` unhooks one from all its neighbors and
`Topology.from_edges` builds a whole overlay (the scale-free seed clique and
every regular overlay). Each leaves the state that adding or removing the
same edges one at a time would leave; the per-edge reference lives with the
tests. Node events also book the churn the estimator reads: `attach` one
arrival at each host, and a benign `remove_node` one departure at each
neighbor. Edge events only mutate the neighbor sets, the attachment pool
and its counters, and mark the nodes whose sets changed. Once per sweep,
one pass over the marked nodes' neighbor sets brings the dense
neighbor-degree snapshot up to date and sums the booked churn over each
node's neighbors (see `Topology.neighbor_degree_array`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .draws import Draws

NodeId = int

# Rebuild the attachment pool once this fraction of entries has gone stale
# (entries pointing at removed nodes or at degrees that no longer exist).
_POOL_STALE_LIMIT = 0.25

_PAIRING_RETRY_CAP = 100


class InvalidParameterError(ValueError):
    pass


class InfeasibleParametersError(ValueError):
    pass


class UnknownNodeError(KeyError):
    pass


def grown(a: np.ndarray, size: int) -> np.ndarray:
    """`a` itself if it has at least `size` rows; otherwise a copy with at
    least twice as many, the new rows zero. Arrays indexed by node id grow
    this way, as ids only grow."""
    if size <= len(a):
        return a
    # np.zeros, not np.full: pages of new rows stay unallocated until written.
    new = np.zeros((max(size, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    new[: len(a)] = a
    return new


class Topology:
    """Undirected simple graph with churn-friendly bookkeeping."""

    def __init__(self):
        self.adj: dict[NodeId, set[NodeId]] = {}
        self.next_id: NodeId = 0
        self.edge_count: int = 0
        self.isolated_count: int = 0  # nodes of degree zero
        # Degree and neighbor-degree sum of every id as of the last
        # snapshot; since then, the nodes whose neighbor sets changed, and
        # the arrivals and benign departures booked per host.
        self._deg = np.zeros(0, dtype=np.int64)
        self._nds = np.zeros(0, dtype=np.int64)
        self._touched: set[NodeId] = set()
        self._arrived: dict[NodeId, int] = {}
        self._benign_gone: dict[NodeId, int] = {}
        # preferential-attachment pool: one entry per degree unit, lazily pruned
        self._pool: list[NodeId] = []
        self._pool_copies: dict[NodeId, int] = {}
        self._pool_stale: int = 0

    # ---- read side -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.adj)

    def neighbor_degree_array(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ndsum, gained, lost), each indexed by node id and `size` long;
        `size` must exceed every live id. `ndsum` is every node's
        neighbor-degree sum, zero where no node is. `gained` and `lost` are
        the churn since the previous snapshot: per node, the arrivals and
        the benign departures booked at its current neighbors. They are
        floats holding integers, so they are exact in any order. The first
        snapshot of a `generate_scale_free` overlay also returns the
        arrivals its build booked, which `engine.Simulation.__init__`
        discards. A snapshot clears the marks and the bookings.

        One chain serves all three: the neighbor sets of the live nodes
        whose neighbor sets changed since the previous snapshot, which
        include every live host, as booking a host changes its neighbor set.
        A changed node is counted again as the sum of its neighbors'
        degrees. Any other node kept its neighbors, so its sum moves by
        exactly the degree changes of its changed neighbors, handed out over
        their neighbor sets. A changed neighbor set, not a changed degree, is
        what marks a node: one that lost an edge and gained another keeps
        its degree but not its sum."""
        self._deg = grown(self._deg, max(size, self.next_id))
        self._nds = grown(self._nds, max(size, self.next_id))
        adj, deg, nds = self.adj, self._deg, self._nds
        touched, self._touched = self._touched, set()
        churn = self._arrived, self._benign_gone
        self._arrived, self._benign_gone = {}, {}
        live = [v for v in touched if v in adj]
        gone = list(touched.difference(adj))
        live_degs = np.fromiter((len(adj[v]) for v in live), np.int64, len(live))
        nbrs = np.fromiter(
            itertools.chain.from_iterable(map(adj.__getitem__, live)),
            np.int64,
            int(live_degs.sum()),
        )
        ids = np.array(live, dtype=np.int64)
        # A removed node's neighbors all lost an edge to it, so every node
        # it reached is counted again below: only live nodes hand out.
        np.add.at(nds, nbrs, np.repeat(live_degs - deg[ids], live_degs))
        deg[ids] = live_degs
        recount = np.zeros(len(ids), dtype=np.int64)
        np.add.at(recount, np.repeat(np.arange(len(ids)), live_degs), deg[nbrs])
        nds[ids] = recount
        deg[gone] = nds[gone] = 0
        gained, lost = (
            np.bincount(
                nbrs,
                np.repeat(
                    np.fromiter(map(counts.get, live, itertools.repeat(0)), float, len(live)),
                    live_degs,
                ),
                minlength=size,
            )
            for counts in churn
        )
        return nds[:size].copy(), gained, lost

    # ---- preferential attachment ------------------------------------

    def _rebuild_pool(self) -> None:
        self._pool = []
        self._pool_copies = {v: 0 for v in self.adj}
        for v, nbrs in self.adj.items():
            d = len(nbrs)
            if d:
                self._pool.extend([v] * d)
                self._pool_copies[v] = d
        self._pool_stale = 0

    def attach(self, count: int, rng: Draws) -> tuple[NodeId, list[NodeId]]:
        """Add a node wired to `count` distinct hosts drawn by degree, and
        book one arrival at each host. Returns the new id and its hosts in
        draw order. Same end state as adding the node and then the edge
        (v, u) for each host in draw order."""
        targets = self.sample_attachment_targets(count, rng)
        v = self.next_id
        self.next_id += 1
        adj, pool, copies, arrived = self.adj, self._pool, self._pool_copies, self._arrived
        adj[v] = set(targets)
        copies[v] = len(targets)
        isolated = 0 if targets else 1  # v, until its first edge
        for u in targets:
            au = adj[u]
            isolated -= not au
            au.add(v)
            pool += (v, u)
            copies[u] += 1
            arrived[u] = arrived.get(u, 0) + 1
        self.isolated_count += isolated
        self.edge_count += len(targets)
        if targets:
            self._touched.update(targets)
            self._touched.add(v)
        return v, targets

    def sample_attachment_targets(self, count: int, rng: Draws) -> list[NodeId]:
        """Sample `count` distinct existing nodes with probability proportional
        to current degree. If fewer than `count` nodes have edges (none at
        all in an edgeless graph), all of those are drawn that way and the
        rest come uniformly from the isolated nodes."""
        adj = self.adj
        if not adj:
            raise InvalidParameterError("no attachment targets available")
        count = min(count, len(adj))
        if self._pool and self._pool_stale > _POOL_STALE_LIMIT * len(self._pool):
            self._rebuild_pool()
        pool, copies, neighbors = self._pool, self._pool_copies, adj.get
        integers, random, size = rng.integers, rng.random, len(pool)
        chosen: list[NodeId] = []
        wanted = min(count, len(adj) - self.isolated_count)
        while len(chosen) < wanted:
            v = pool[integers(size)]
            if v in chosen:  # at most `count` long
                continue
            nbrs = neighbors(v)
            if nbrs is None:
                continue  # stale entry for a removed node
            d = len(nbrs)
            if d == 0:
                continue
            c = copies[v]
            if d < c and random() >= d / c:
                continue  # stale excess copies: thin back to the true degree
            chosen.append(v)
        if len(chosen) < count:
            isolated = [v for v, nbrs in adj.items() if not nbrs]
            order = rng.permutation(len(isolated))
            chosen += [isolated[i] for i in order[: count - len(chosen)]]
        return chosen

    @classmethod
    def from_edges(cls, n: int, edges) -> Topology:
        """Nodes 0..n-1 wired by `edges`, distinct (u, v) pairs without
        self-loops. Same end state as adding `n` nodes and then the edge
        (u, v) for each pair in order."""
        t = cls()
        adj = t.adj = {v: set() for v in range(n)}
        pool = t._pool
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
            pool += (u, v)
        t.next_id = n
        t.edge_count = len(pool) // 2
        t._pool_copies = {v: len(nbrs) for v, nbrs in adj.items()}
        t._touched = {v for v, nbrs in adj.items() if nbrs}
        t.isolated_count = n - len(t._touched)
        return t


# ---- generators ------------------------------------------------------


def generate_scale_free(n: int, attach_edges: int, rng: Draws) -> Topology:
    """Preferential-attachment graph grown from a (attach_edges+1)-clique,
    so minimum degree is attach_edges and the graph is connected."""
    if attach_edges < 1:
        raise InvalidParameterError("attach_edges must be >= 1")
    if n <= attach_edges:
        raise InvalidParameterError("need n > attach_edges")
    k = attach_edges + 1
    t = Topology.from_edges(k, itertools.combinations(range(k), 2))
    for _ in range(n - k):
        t.attach(attach_edges, rng)
    return t


def _try_pairing(n: int, degree: int, rng: Draws):
    stubs = np.repeat(np.arange(n), degree)
    edges: set[tuple[int, int]] = set()
    while len(stubs):
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
            return None
        stubs = np.array(leftover, dtype=np.int64)
    return edges


def generate_regular(n: int, degree: int, rng: Draws) -> Topology:
    """Random regular graph via the pairing model, rejecting self-loops and
    multi-edges, with a bounded number of restarts."""
    if n < 1 or degree < 1:
        raise InvalidParameterError("need n >= 1 and degree >= 1")
    if degree >= n:
        raise InfeasibleParametersError("degree must be < n for a simple graph")
    if (n * degree) % 2 != 0:
        raise InfeasibleParametersError("n * degree must be even")
    for _ in range(_PAIRING_RETRY_CAP):
        edges = _try_pairing(n, degree, rng)
        if edges is not None:
            return Topology.from_edges(n, sorted(edges))
    raise InfeasibleParametersError(
        f"pairing model failed {_PAIRING_RETRY_CAP} times for n={n}, degree={degree}"
    )


# ---- mutation ops ----------------------------------------------------


def remove_node(t: Topology, v: NodeId, benign: bool = False) -> None:
    """Remove `v` and every edge it had; if `benign`, book one benign
    departure at each neighbor. Same end state as removing each of its
    edges and then dropping the node, whose pool copies count as stale once
    more (see ROADMAP item 5)."""
    adj = t.adj
    nbrs = adj.pop(v, None)
    if nbrs is None:
        raise UnknownNodeError(v)
    if benign:
        gone = t._benign_gone
        for u in nbrs:
            gone[u] = gone.get(u, 0) + 1
    emptied = 0
    for u in nbrs:
        au = adj[u]
        au.discard(v)
        emptied += not au
    # A node with edges ends isolated by its last removal, which dropping it
    # takes back; one without edges was isolated all along.
    t.isolated_count += emptied - (not nbrs)
    t.edge_count -= len(nbrs)
    t._pool_stale += 2 * len(nbrs) + t._pool_copies.pop(v, 0)
    t._touched.update(nbrs)
    t._touched.add(v)
