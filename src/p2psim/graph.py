"""Mutable unstructured-overlay topologies with preferential-attachment growth.

Node ids are monotonically increasing and never reused, so identity churn
(a node leaving and rejoining) is visible in the id space, and an array
indexed by node id only ever grows (`grown`). Every mutation is a node event
or a whole build: `Topology.attach` joins a new node to all its hosts,
`remove_node` unhooks one from all its neighbors and `Topology.from_edges`
builds a whole overlay from an edge array (the scale-free seed clique and
every regular overlay). A regular overlay's edges come from the pairing
model, one numpy pass per shuffle round over the stubs left
(`generate_regular`); a scale-free one grows from its clique one `attach` at
a time (`generate_scale_free`). Each leaves the state that adding or
removing the same edges one at a time would leave; the per-edge reference
model lives with the tests. Node events also book the churn the estimator
reads: an arrival one at each host, and a benign `remove_node` one
departure at each neighbor.

Every arrival, a growth arrival or a whitewasher's rejoin under a fresh id,
takes the one path `attach`. It makes only the writes the sampler reads, in
draw order: the node counts, the degrees, the pool and its copies. Its
hosts go to an arrival log. The rows and the books, which the sampler never
reads, are wired for the whole log in one numpy pass (`Topology._settle`)
at the next read of them: a snapshot, a pool rebuild, or the neighbors of
a logged id or of one of its hosts, which is how `remove_node` sees the
edges of an arrival still in the log.

Every node's neighbors are one row of a flat slab, an `array('q')`. Arrays
indexed by node id beside it hold each wired row's start, fill and
capacity, the node's exact degree (0 once it is removed) and a live mask.
A row with room takes its new entries in place; a full one moves to the
end of the slab once per pass, an old row at twice the capacity it needs
and a new one at exactly that. `remove_node` only lowers its live
neighbors' degrees and clears its live bit, so its id stays in their rows
as a tombstone. The books are per-id arrays too: the arrivals and the
benign departures booked at each host (two `array('q')` counters), and a
`bytearray` marking each node whose neighbors changed, every booked host
and every neighbor of a removed node among them. Once per sweep one
vectorized gather over the marked nodes' rows drops the tombstones,
compacts the rows in place, brings the dense neighbor-degree snapshot up to
date, sums the booked churn over each node's neighbors and zeroes the
counters and marks at the marked ids (see
`Topology.neighbor_degree_array`). Each rebuild of the attachment pool, an
`array('q')`, also rewrites the whole slab without dead rows, tombstones or
spare room. The numpy views of these arrays live only inside one call: an
`array` or a `bytearray` that exports its buffer cannot grow. Readers
outside go through `neighbors`, `degree_of`, `live_ids` and `in`.
"""

from __future__ import annotations

from array import array

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


def _int64(a) -> np.ndarray:
    """A numpy view of an `array('q')`; it must not outlive the call."""
    return np.frombuffer(a, np.int64)


def _row_positions(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Slab positions of rows that begin at `start` and hold `length`
    entries each, concatenated in order."""
    first = np.cumsum(length) - length
    return np.repeat(start - first, length) + np.arange(int(length.sum()))


class Topology:
    """Undirected simple graph with churn-friendly bookkeeping."""

    def __init__(self):
        self.next_id: NodeId = 0
        self.node_count: int = 0
        self.edge_count: int = 0
        self.isolated_count: int = 0  # live nodes of degree zero
        # Node v's row is _slab[_start[v] : _start[v] + _fill[v]], with room
        # for _cap[v] entries; until the next snapshot it may still hold ids
        # removed since (tombstones), which _degree does not count.
        self._slab = array("q")
        self._start = array("q")
        self._fill = array("q")
        self._cap = array("q")
        self._degree = array("q")
        self._live = bytearray()
        # Degree and neighbor-degree sum of every id as of the last
        # snapshot; since then, per id, a mark if its neighbors changed, and
        # the arrivals and benign departures booked at it as a host.
        self._deg = np.zeros(0, dtype=np.int64)
        self._nds = np.zeros(0, dtype=np.int64)
        self._touched = bytearray()
        self._arrived = array("q")
        self._benign_gone = array("q")
        # preferential-attachment pool: one entry per degree unit, lazily
        # pruned; copies counts each id's entries (0 once it is removed)
        self._pool = array("q")
        self._pool_copies = array("q")
        self._pool_stale: int = 0
        # The arrivals since the last settle, the ids from len(_fill) on:
        # their hosts in draw order, concatenated, how many each has, and
        # the hosts as a set.
        self._log_hosts = array("q")
        self._log_counts = array("q")
        self._pending_hosts: set[NodeId] = set()

    # ---- read side -------------------------------------------------

    def __contains__(self, v: NodeId) -> bool:
        return 0 <= v < self.next_id and self._live[v] == 1

    def live_ids(self) -> np.ndarray:
        """The live ids, ascending."""
        return np.flatnonzero(np.frombuffer(self._live, bool))

    def degree_of(self, v: NodeId) -> int:
        """The number of live neighbors of `v`; 0 once `v` is removed."""
        if not 0 <= v < self.next_id:
            raise UnknownNodeError(v)
        return self._degree[v]

    def neighbors(self, v: NodeId) -> list[NodeId]:
        """The live neighbors of the live node `v`, in no particular order.
        Wires the arrival log first if `v` or a host of `v` is in it."""
        if v not in self:
            raise UnknownNodeError(v)
        if v >= len(self._fill) or v in self._pending_hosts:
            self._settle()
        live, s = self._live, self._start[v]
        return [u for u in self._slab[s : s + self._fill[v]] if live[u]]

    def _live_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the wired nodes `ids` concatenated, tombstones
        dropped, and a mask over the rows' entries, False at each
        tombstone."""
        entries = _int64(self._slab)[
            _row_positions(_int64(self._start)[ids], _int64(self._fill)[ids])
        ]
        keep = np.frombuffer(self._live, bool)[entries]
        return entries[keep], keep

    def neighbor_degree_array(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ndsum, gained, lost), each indexed by node id and `size` long;
        `size` must exceed every live id. `ndsum` is every node's
        neighbor-degree sum, zero where no node is. `gained` and `lost` are
        the churn since the previous snapshot: per node, the arrivals and
        the benign departures booked at its current neighbors. They are
        floats holding integers, so they are exact in any order. The first
        snapshot of a `generate_scale_free` overlay also returns the
        arrivals its build booked, which `engine.Simulation.__init__`
        discards. A snapshot wires the arrival log first (`_settle`), and
        clears the marks and the bookings.

        One gather serves all three: the rows of the live nodes whose
        neighbors changed since the previous snapshot, which include every
        live host, as booking a host changes its neighbors, and every live
        neighbor of a removed node. The gather drops the tombstones and
        writes those rows back compacted. A changed node is counted again as
        the sum of its neighbors' degrees. Any other node kept its
        neighbors, so its sum moves by exactly the degree changes of its
        changed neighbors, handed out over their rows. Changed neighbors,
        not a changed degree, are what mark a node: one that lost an edge
        and gained another keeps its degree but not its sum."""
        self._settle()
        self._deg = grown(self._deg, max(size, self.next_id))
        self._nds = grown(self._nds, max(size, self.next_id))
        deg, nds = self._deg, self._nds
        marks = np.frombuffer(self._touched, bool)
        touched = np.flatnonzero(marks)
        alive = np.frombuffer(self._live, bool)[touched]
        ids, gone = touched[alive], touched[~alive]
        nbrs, keep = self._live_rows(ids)
        live_degs = _int64(self._degree)[ids]
        if len(nbrs) < len(keep):  # tombstones to drop: compact the rows in place
            _int64(self._slab)[_row_positions(_int64(self._start)[ids], live_degs)] = nbrs
            _int64(self._fill)[ids] = live_degs
        # A removed node's neighbors all lost an edge to it, so every node
        # it reached is counted again below: only live nodes hand out.
        np.add.at(nds, nbrs, np.repeat(live_degs - deg[ids], live_degs))
        deg[ids] = live_degs
        recount = np.zeros(len(ids), dtype=np.int64)
        np.add.at(recount, np.repeat(np.arange(len(ids)), live_degs), deg[nbrs])
        nds[ids] = recount
        deg[gone] = nds[gone] = 0
        # Every booked host is marked, so clearing the marked ids clears
        # every booking, those at hosts removed since included.
        gained, lost = (
            np.bincount(nbrs, np.repeat(book[ids], live_degs), minlength=size)
            for book in (_int64(self._arrived), _int64(self._benign_gone))
        )
        _int64(self._arrived)[touched] = _int64(self._benign_gone)[touched] = 0
        marks[touched] = False
        return nds[:size].copy(), gained, lost

    # ---- preferential attachment ------------------------------------

    def _rebuild_pool(self) -> None:
        """One pool entry per degree unit, ascending ids, and the slab
        rewritten as the live rows back to back, each at capacity equal to
        its degree. The arrival log is wired first, so that each row holds
        as many live entries as its degree counts."""
        self._settle()
        ids = self.live_ids()
        degree = _int64(self._degree)[ids]
        nbrs, _ = self._live_rows(ids)
        start = np.zeros(self.next_id, np.int64)
        start[ids] = np.cumsum(degree) - degree
        self._slab = array("q", nbrs.tobytes())
        self._start = array("q", start.tobytes())
        self._fill, self._cap, self._pool_copies = self._degree[:], self._degree[:], self._degree[:]
        self._pool = array("q", np.repeat(ids, degree).tobytes())
        self._pool_stale = 0

    def attach(self, count: int, rng: Draws) -> tuple[NodeId, list[NodeId]]:
        """Add a node joined to `count` distinct hosts drawn by degree, and
        book one arrival at each host. Returns the new id and its hosts in
        draw order. Same end state as adding the node and then the edge
        (v, u) for each host in draw order.

        The writes the sampler reads are made here: the counters, the live
        bit, the degrees and pool copies of both ends and the pool entries
        (v, u) per host in order. The rows and the books wait in the arrival
        log until `_settle`."""
        targets = self.sample_attachment_targets(count, rng)
        v = self.next_id
        self.next_id = v + 1
        self.node_count += 1
        k = len(targets)
        degree, copies, pool = self._degree, self._pool_copies, self._pool
        self._live.append(1)
        degree.append(k)
        copies.append(k)
        isolated = 0 if targets else 1  # v, until its first edge
        for u in targets:
            d = degree[u]
            isolated -= not d
            degree[u] = d + 1
            copies[u] += 1
            pool.append(v)
            pool.append(u)
        self.isolated_count += isolated
        self.edge_count += k
        self._log_hosts.extend(targets)
        self._log_counts.append(k)
        self._pending_hosts.update(targets)
        return v, targets

    def _settle(self) -> None:
        """Wire the rows and the books of every logged arrival in one pass,
        and empty the log: a row per logged id, every host row's appends,
        one arrival booked per edge at its host and a mark on every row that
        changed. A row with room takes its entries in place; a full one
        moves once to the end of the slab, an old row at twice the capacity
        it needs and a new one at exactly that."""
        if not self._log_counts:
            return
        first, n = len(self._fill), len(self._log_counts)
        u = _int64(self._log_hosts)
        v = np.repeat(np.arange(first, first + n), _int64(self._log_counts))
        for a in (self._start, self._fill, self._cap, self._arrived, self._benign_gone):
            a.frombytes(bytes(8 * n))
        self._touched += bytes(n)
        # Each edge is an entry in both rows; group the entries by row.
        rows = np.concatenate((v, u))
        order = np.argsort(rows, kind="stable")
        rows, entries = rows[order], np.concatenate((u, v))[order]
        at = np.flatnonzero(np.diff(rows, prepend=-1))  # where each row's run begins
        ids, added = rows[at], np.diff(at, append=len(rows))
        start, fill, cap = _int64(self._start), _int64(self._fill), _int64(self._cap)
        old = fill[ids]
        need = old + added
        full = need > cap[ids]
        movers, size = ids[full], need[full] * np.where(ids[full] < first, 2, 1)
        dest = len(self._slab) + np.cumsum(size) - size
        self._slab.frombytes(bytes(8 * int(size.sum())))
        slab = _int64(self._slab)
        slab[_row_positions(dest, old[full])] = slab[_row_positions(start[movers], old[full])]
        start[movers], cap[movers] = dest, size
        slab[np.repeat(start[ids] + old - at, added) + np.arange(len(rows))] = entries
        fill[ids] = need
        np.add.at(_int64(self._arrived), u, 1)
        np.frombuffer(self._touched, bool)[ids] = True
        self._log_hosts, self._log_counts = array("q"), array("q")
        self._pending_hosts = set()

    def sample_attachment_targets(self, count: int, rng: Draws) -> list[NodeId]:
        """Sample `count` distinct existing nodes with probability proportional
        to current degree. If fewer than `count` nodes have edges (none at
        all in an edgeless graph), all of those are drawn that way and the
        rest come uniformly from the isolated nodes."""
        if not self.node_count:
            raise InvalidParameterError("no attachment targets available")
        count = min(count, self.node_count)
        if self._pool and self._pool_stale > _POOL_STALE_LIMIT * len(self._pool):
            self._rebuild_pool()
        pool, copies, degree = self._pool, self._pool_copies, self._degree
        integers, random, size = rng.integers, rng.random, len(pool)
        chosen: list[NodeId] = []
        wanted = min(count, self.node_count - self.isolated_count)
        while len(chosen) < wanted:
            v = pool[integers(size)]
            if v in chosen:  # at most `count` long
                continue
            d = degree[v]
            if d == 0:
                continue  # stale entry for a removed or isolated node
            c = copies[v]
            if d < c and random() >= d / c:
                continue  # stale excess copies: thin back to the true degree
            chosen.append(v)
        if len(chosen) < count:
            isolated = np.flatnonzero(
                np.frombuffer(self._live, bool) & (_int64(self._degree) == 0)
            )
            order = rng.permutation(len(isolated))
            chosen += isolated[order[: count - len(chosen)]].tolist()
        return chosen

    @classmethod
    def from_edges(cls, n: int, edges) -> Topology:
        """Nodes 0..n-1 wired by `edges`, distinct (u, v) pairs without
        self-loops, as an (m, 2) array or a sequence of pairs. Same end
        state as adding `n` nodes and then the edge (u, v) for each pair in
        order."""
        t = cls()
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        ends = pairs.ravel()  # u0, v0, u1, v1, ...: the pool's order
        degree = np.bincount(ends, minlength=n)
        by_row = np.argsort(ends, kind="stable")
        t._slab = array("q", pairs[:, ::-1].ravel()[by_row].tobytes())
        t._start = array("q", (np.cumsum(degree) - degree).tobytes())
        t._degree = array("q", degree.tobytes())
        t._fill, t._cap, t._pool_copies = t._degree[:], t._degree[:], t._degree[:]
        t._live = bytearray(b"\x01") * n
        t._touched = bytearray((degree > 0).tobytes())
        t._arrived, t._benign_gone = array("q", bytes(8 * n)), array("q", bytes(8 * n))
        t._pool = array("q", ends.tobytes())
        t.next_id = t.node_count = n
        t.edge_count = len(pairs)
        t.isolated_count = n - int(np.count_nonzero(degree))
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
    # The clique's pairs in itertools.combinations order.
    t = Topology.from_edges(k, np.column_stack(np.triu_indices(k, 1)))
    for _ in range(n - k):
        t.attach(attach_edges, rng)
    return t


def _try_pairing(n: int, degree: int, rng: Draws) -> np.ndarray | None:
    """One attempt of the pairing model: its edges as an (m, 2) array of
    (lo, hi) rows in ascending order, or None if a round accepts nothing.

    Each round shuffles the stubs and pairs them off in order, pair i being
    stubs 2i and 2i + 1. A pair is rejected if it is a self-loop or its edge
    is already taken, in an earlier round or by an earlier pair of this
    one; the rejected pairs' stubs, in pair order, are the next round's.
    An edge's key is lo * n + hi, below n * n, which `generate_regular`
    keeps inside int64."""
    stubs = np.repeat(np.arange(n), degree)
    taken = np.zeros(0, dtype=np.int64)  # the accepted keys, ascending
    while len(stubs):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = lo * n + hi
        # Stable, so the first pair of each key leads its run of equals.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        ok = (lo != hi)[order]
        ok[1:] &= sorted_keys[1:] != sorted_keys[:-1]
        at = np.searchsorted(taken, sorted_keys)
        if len(taken):
            ok &= taken[np.minimum(at, len(taken) - 1)] != sorted_keys
        if not ok.any():
            return None
        taken = np.insert(taken, at[ok], sorted_keys[ok])
        rejected = np.ones(len(pairs), dtype=bool)
        rejected[order[ok]] = False
        stubs = pairs[rejected].ravel()
    return np.column_stack(np.divmod(taken, n))


def _complement(n: int, edges: np.ndarray) -> np.ndarray:
    """The (lo, hi) pairs of nodes 0..n-1 that `edges`, (lo, hi) rows,
    leaves out, as an (m, 2) array in ascending order."""
    out = np.ones((n, n), dtype=bool)
    out[edges[:, 0], edges[:, 1]] = False
    return np.argwhere(np.triu(out, 1))


def generate_regular(n: int, degree: int, rng: Draws) -> Topology:
    """Random regular graph via the pairing model (Bollobás 1980), rejecting
    self-loops and multi-edges, with a bounded number of restarts: each
    shuffle round is one numpy pass over its stubs (see `_try_pairing`).
    Above degree (n - 1)/2, where the pairing model stalls, the overlay is
    the complement of an (n - 1 - degree)-regular one built that way, so
    the dense degrees take the sparse ones' distribution; degree n - 1 is
    the complete graph, built with no draws."""
    if n < 1 or degree < 1:
        raise InvalidParameterError("need n >= 1 and degree >= 1")
    if degree >= n:
        raise InfeasibleParametersError("degree must be < n for a simple graph")
    if (n * degree) % 2 != 0:
        raise InfeasibleParametersError("n * degree must be even")
    if n * n > np.iinfo(np.int64).max:
        # Edge keys lo * n + hi would overflow; the stubs alone would need
        # more than 24 GB.
        raise InfeasibleParametersError("n must be below 3,037,000,500 for int64 edge keys")
    dense = 2 * degree > n - 1
    for _ in range(_PAIRING_RETRY_CAP):
        edges = _try_pairing(n, n - 1 - degree if dense else degree, rng)
        if edges is not None:
            return Topology.from_edges(n, _complement(n, edges) if dense else edges)
    raise InfeasibleParametersError(
        f"pairing model failed {_PAIRING_RETRY_CAP} times for n={n}, degree={degree}"
    )


# ---- mutation ops ----------------------------------------------------


def remove_node(t: Topology, v: NodeId, benign: bool = False) -> None:
    """Remove `v` and every edge it had; if `benign`, book one benign
    departure at each neighbor. Its id stays in its neighbors' rows as a
    tombstone until the next snapshot. Same end state as removing each of
    its edges and then dropping the node, whose pool copies count as stale
    once more (see ROADMAP item 5)."""
    nbrs = t.neighbors(v)  # raises UnknownNodeError unless v is live
    if benign:
        gone = t._benign_gone
        for u in nbrs:
            gone[u] += 1
    degree, touched = t._degree, t._touched
    emptied = 0
    for u in nbrs:
        d = degree[u] - 1
        degree[u] = d
        emptied += not d
        touched[u] = 1
    touched[v] = 1
    t._live[v] = 0
    degree[v] = 0
    t.node_count -= 1
    # A node with edges ends isolated by its last removal, which dropping it
    # takes back; one without edges was isolated all along.
    t.isolated_count += emptied - (not nbrs)
    t.edge_count -= len(nbrs)
    t._pool_stale += 2 * len(nbrs) + t._pool_copies[v]
    t._pool_copies[v] = 0
