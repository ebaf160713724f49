"""Mutable unstructured-overlay topologies with preferential-attachment growth.

Node ids are monotonically increasing and never reused, so identity churn
(a node leaving and rejoining) is visible in the id space. The structure
keeps per-node neighbor-degree sums incrementally, which makes local average
degree an O(1) query even under heavy churn.
"""

from __future__ import annotations

import numpy as np

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


class DegenerateAverageError(ZeroDivisionError):
    pass


def _rng(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class Topology:
    """Undirected simple graph with churn-friendly bookkeeping."""

    def __init__(self, kind: str, seed_label: int = -1):
        self.kind = kind
        self.seed_label = seed_label
        self.adj: dict[NodeId, set[NodeId]] = {}
        self.iteration_created: dict[NodeId, int] = {}
        self.next_id: NodeId = 0
        self.edge_count: int = 0
        self.isolated_count: int = 0  # nodes of degree zero
        # neighbor-degree sums: _ndsum[v] == sum(degree(u) for u in adj[v])
        self._ndsum: dict[NodeId, int] = {}
        # preferential-attachment pool: one entry per degree unit, lazily pruned
        self._pool: list[NodeId] = []
        self._pool_copies: dict[NodeId, int] = {}
        self._pool_stale: int = 0

    # ---- read side -------------------------------------------------

    def node_ids(self) -> list[NodeId]:
        return list(self.adj.keys())

    @property
    def node_count(self) -> int:
        return len(self.adj)

    def has_node(self, v: NodeId) -> bool:
        return v in self.adj

    def degree(self, v: NodeId) -> int:
        try:
            return len(self.adj[v])
        except KeyError:
            raise UnknownNodeError(v) from None

    def neighbors(self, v: NodeId) -> set[NodeId]:
        try:
            return self.adj[v]
        except KeyError:
            raise UnknownNodeError(v) from None

    def neighbor_degree_sum(self, v: NodeId) -> int:
        try:
            return self._ndsum[v]
        except KeyError:
            raise UnknownNodeError(v) from None

    def neighbor_degree_array(self, size: int) -> np.ndarray:
        """Snapshot of every node's neighbor-degree sum indexed by node id,
        zero where no node is; `size` must exceed every live id."""
        out = np.zeros(size, dtype=np.int64)
        n = len(self._ndsum)
        out[np.fromiter(self._ndsum, np.int64, n)] = np.fromiter(self._ndsum.values(), np.int64, n)
        return out

    # ---- write side ------------------------------------------------

    def add_node(self, iteration: int = 0) -> NodeId:
        v = self.next_id
        self.next_id += 1
        self.adj[v] = set()
        self._ndsum[v] = 0
        self._pool_copies[v] = 0
        self.iteration_created[v] = iteration
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
        ndsum = self._ndsum
        for w in au:
            ndsum[w] += 1
        for w in av:
            ndsum[w] += 1
        au.add(v)
        av.add(u)
        ndsum[u] += len(av)
        ndsum[v] += len(au)
        self.edge_count += 1
        self._pool.append(u)
        self._pool.append(v)
        self._pool_copies[u] += 1
        self._pool_copies[v] += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        au, av = self.adj.get(u), self.adj.get(v)
        if au is None or av is None or v not in au:
            raise UnknownNodeError((u, v))
        au.discard(v)
        av.discard(u)
        self.isolated_count += (not au) + (not av)
        ndsum = self._ndsum
        for w in au:
            ndsum[w] -= 1
        for w in av:
            ndsum[w] -= 1
        ndsum[u] -= len(av) + 1
        ndsum[v] -= len(au) + 1
        self.edge_count -= 1
        self._pool_stale += 2

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

    def sample_attachment_targets(
        self, count: int, rng: np.random.Generator, exclude: set[NodeId] | None = None
    ) -> list[NodeId]:
        """Sample `count` distinct existing nodes with probability proportional
        to current degree. If fewer than `count` nodes have edges (none at
        all in an edgeless graph), all of those are drawn that way and the
        rest come uniformly from the isolated nodes."""
        exclude = exclude or set()
        n_candidates = len(self.adj) - sum(1 for v in exclude if v in self.adj)
        if n_candidates <= 0:
            raise InvalidParameterError("no attachment targets available")
        count = min(count, n_candidates)
        if self._pool and self._pool_stale > _POOL_STALE_LIMIT * len(self._pool):
            self._rebuild_pool()
        chosen: list[NodeId] = []
        picked: set[NodeId] = set()
        linked = len(self.adj) - self.isolated_count
        if exclude:
            linked -= sum(1 for v in exclude if self.adj.get(v))
        while len(chosen) < min(count, linked):
            v = self._pool[int(rng.integers(len(self._pool)))]
            if v in picked or v in exclude:
                continue
            nbrs = self.adj.get(v)
            if nbrs is None:
                continue  # stale entry for a removed node
            d = len(nbrs)
            copies = self._pool_copies[v]
            if d == 0:
                continue
            if d < copies and rng.random() >= d / copies:
                continue  # stale excess copies: thin back to the true degree
            chosen.append(v)
            picked.add(v)
        if len(chosen) < count:
            isolated = [v for v, nbrs in self.adj.items() if not nbrs and v not in exclude]
            order = rng.permutation(len(isolated))
            chosen += [isolated[i] for i in order[: count - len(chosen)]]
        return chosen


# ---- generators ------------------------------------------------------


def generate_scale_free(n: int, attach_edges: int, seed) -> Topology:
    """Preferential-attachment graph grown from a (attach_edges+1)-clique,
    so minimum degree is attach_edges and the graph is connected."""
    if attach_edges < 1:
        raise InvalidParameterError("attach_edges must be >= 1")
    if n <= attach_edges:
        raise InvalidParameterError("need n > attach_edges")
    rng = _rng(seed)
    t = Topology("scale_free", seed if isinstance(seed, int) else -1)
    clique = [t.add_node() for _ in range(attach_edges + 1)]
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            t.add_edge(u, v)
    for _ in range(n - attach_edges - 1):
        targets = t.sample_attachment_targets(attach_edges, rng)
        v = t.add_node()
        for u in targets:
            t.add_edge(v, u)
    return t


def _try_pairing(n: int, degree: int, rng: np.random.Generator):
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


def generate_regular(n: int, degree: int, seed) -> Topology:
    """Random regular graph via the pairing model, rejecting self-loops and
    multi-edges, with a bounded number of restarts."""
    if n < 1 or degree < 1:
        raise InvalidParameterError("need n >= 1 and degree >= 1")
    if degree >= n:
        raise InfeasibleParametersError("degree must be < n for a simple graph")
    if (n * degree) % 2 != 0:
        raise InfeasibleParametersError("n * degree must be even")
    rng = _rng(seed)
    for _ in range(_PAIRING_RETRY_CAP):
        edges = _try_pairing(n, degree, rng)
        if edges is not None:
            t = Topology("regular", seed if isinstance(seed, int) else -1)
            for _ in range(n):
                t.add_node()
            for u, v in sorted(edges):
                t.add_edge(u, v)
            return t
    raise InfeasibleParametersError(
        f"pairing model failed {_PAIRING_RETRY_CAP} times for n={n}, degree={degree}"
    )


# ---- mutation ops ----------------------------------------------------


def grow(t: Topology, new_nodes: int, attach_edges: int, seed, iteration: int = 0) -> list[NodeId]:
    """Attach `new_nodes` arrivals, each wiring attach_edges distinct edges to
    existing nodes chosen proportionally to degree. Returns the new ids."""
    if new_nodes < 0 or attach_edges < 1:
        raise InvalidParameterError("need new_nodes >= 0 and attach_edges >= 1")
    if t.node_count == 0:
        raise InvalidParameterError("cannot grow an empty topology")
    rng = _rng(seed)
    created = []
    for _ in range(new_nodes):
        targets = t.sample_attachment_targets(attach_edges, rng)
        v = t.add_node(iteration)
        for u in targets:
            t.add_edge(v, u)
        created.append(v)
    return created


def remove_node(t: Topology, v: NodeId) -> None:
    if v not in t.adj:
        raise UnknownNodeError(v)
    for u in sorted(t.adj[v]):
        t.remove_edge(v, u)
    stale = t._pool_copies.pop(v, 0)
    t._pool_stale += stale
    t.isolated_count -= 1
    del t.adj[v]
    del t._ndsum[v]


# ---- metrics ---------------------------------------------------------


def average_degree(t: Topology) -> float:
    if t.node_count == 0:
        raise DegenerateAverageError("average degree of an empty topology")
    return 2.0 * t.edge_count / t.node_count


def local_average_degree(t: Topology, v: NodeId) -> float:
    """Mean degree over v's neighbors; an isolated node reports the global
    average (it has no better local information)."""
    d = t.degree(v)
    if d == 0:
        return average_degree(t)
    return t.neighbor_degree_sum(v) / d


def dump_edge_list(t: Topology, path) -> None:
    lines = [f"# nodes={t.node_count} kind={t.kind} seed={t.seed_label}\n"]
    seen = set()
    for u in sorted(t.adj):
        for v in sorted(t.adj[u]):
            if (u, v) not in seen:
                seen.add((v, u))
                lines.append(f"{u} {v}\n")
    with open(path, "w", newline="\n") as fh:
        fh.writelines(lines)
