"""Mutable unstructured-overlay topologies with preferential-attachment growth.

Node ids are monotonically increasing and never reused, so identity churn
(a node leaving and rejoining) is visible in the id space. Every mutation
is a node event or a whole build: `Topology.attach` joins a new node to all
its hosts, `remove_node` unhooks one from all its neighbors and
`Topology(n, edges)` builds a whole overlay from an edge array (the
scale-free seed clique and every regular overlay). A regular overlay's
edges come from the pairing model, one numpy pass per shuffle round over
the stubs left (`generate_regular`); a scale-free one grows from its clique
one arrival at a time (`generate_scale_free`). Each leaves the state that
adding or removing the same edges one at a time would leave; the per-edge
reference model lives with the tests. Node events also book the churn the
estimator reads: an arrival one at each host, and a benign `remove_node`
one departure at each neighbor.

Inside, every per-node fact lives in a row, and each new node takes the
next row, so rows ascend with ids. An array indexed by row only grows
between compactions: an `array('q')` by appends, a numpy one by `grown` to
the row count. `Topology.compact` drops the rows of removed nodes in one
order-preserving pass and numbers the rest from 0 again; until the first
compaction rows equal ids. Ids appear only at the public edge: `neighbors`,
`degree_of`, `live_ids`, `in` and `attach`'s return; `remove_node` takes a
row. `_ids` holds each row's id; after a compaction an id finds its row by
bisection (`_row`).

Every arrival, a growth arrival or a whitewasher's rejoin under a fresh id,
takes the one path `_attach`. It makes only the writes the sampler reads,
in draw order: the node counts, the degrees, the pool and its copies. The
pool entries it appends, a (new row, host row) pair per host, are the
arrival log: the pool's tail since the last settle. The rows and the books,
which the sampler never reads, are wired for the whole log in one numpy
pass (`Topology._settle`) at the next read of them: a snapshot, a pool
rebuild, or the neighbors of a logged node or of one of its hosts, which is
how `remove_node` sees the edges of an arrival still in the log.

Every node's neighbors, as rows, are one row of a flat slab, an
`array('q')`. Arrays indexed by row beside it hold each wired row's start,
fill and capacity, the node's exact degree (0 once it is removed) and a
live mask. A row with room takes its new entries in place; a full one moves
to the end of the slab once per pass, an old row at twice the capacity it
needs and a new one at exactly that. `remove_node` only lowers its live
neighbors' degrees and clears its live bit, so its row stays in theirs as a
tombstone. The books are arrays indexed by row too: the arrivals and the
benign departures booked at each host (two `array('q')` counters), and a
`bytearray` marking each node whose neighbors changed, every booked host
and every neighbor of a removed node among them. Once per sweep one
vectorized gather over the marked nodes' rows drops the tombstones,
compacts the rows in place, brings the dense neighbor-degree snapshot up to
date, sums the booked churn over each node's neighbors and zeroes the
counters and marks at the marked rows (see
`Topology.neighbor_degree_array`). Each rebuild of the attachment pool, an
`array('q')`, and each compaction also rewrite the whole slab without dead
rows, tombstones or spare room (`Topology._rewrite_slab`). A compaction
renumbers the pool's entries in place and leaves its length, order and
stale count as they are (see `Topology.compact`). The numpy views of these
arrays live only inside one call: an `array` or a `bytearray` that exports
its buffer cannot grow.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

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


def grown(a: np.ndarray, size: int, cap: int) -> np.ndarray:
    """`a` itself if it has at least `size` rows; otherwise a copy with
    twice as many, or `cap` if that is fewer, and never fewer than `size`,
    the new rows zero. Arrays indexed by row grow this way between
    compactions, capped at twice the live nodes: the rows they hold count
    the dead ones too, so doubling those alone could outgrow the overlay."""
    if size <= len(a):
        return a
    # np.zeros, not np.full: pages of new rows stay unallocated until written.
    new = np.zeros((max(size, min(2 * len(a), cap)),) + a.shape[1:], dtype=a.dtype)
    new[: len(a)] = a
    return new


def _int64(a) -> np.ndarray:
    """A numpy view of an `array('q')`; it must not outlive the call."""
    return np.frombuffer(a, np.int64)


def _q(x) -> array:
    """An `array('q')` of `x`, copied once out of numpy's buffer, no `bytes` between."""
    a = array("q")
    a.frombytes(memoryview(np.ascontiguousarray(x, np.int64)).cast("B"))
    return a


def _row_positions(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Slab positions of rows that begin at `start` and hold `length`
    entries each, concatenated in order."""
    first = np.cumsum(length) - length
    return np.repeat(start - first, length) + np.arange(int(length.sum()))


def _hand_out(nbrs: np.ndarray, values: np.ndarray, degrees: np.ndarray, size: int) -> np.ndarray:
    """`values[k]` added at each of the `degrees[k]` neighbors of its row in
    `nbrs`, the rows' neighbors concatenated: floats by row, `size` rows."""
    return np.bincount(nbrs, np.repeat(values, degrees), minlength=size)


def _sum_by_row(values: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Per row, the sum of its `degrees[k]` consecutive `values`, as int64."""
    total = np.zeros(len(degrees), dtype=np.int64)
    np.add.at(total, np.repeat(np.arange(len(degrees)), degrees), values)
    return total


class Topology:
    """Undirected simple graph with churn-friendly bookkeeping."""

    def __init__(self, n: int, edges):
        """Nodes 0..n-1 wired by `edges`, distinct (u, v) pairs without
        self-loops, as an (m, 2) array or a sequence of pairs: the state that
        adding `n` nodes and then each edge (u, v) in order would leave."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        ends = pairs.ravel()  # u0, v0, u1, v1, ...: the pool's order
        degree = np.bincount(ends, minlength=n)
        by_row = np.argsort(ends, kind="stable")
        self.next_id = self.node_count = n
        self.edge_count = len(pairs)
        self.isolated_count = n - int(np.count_nonzero(degree))  # live nodes of degree zero
        # Row r holds the node with id _ids[r], ascending; the next_id -
        # len(_ids) ids it lacks have lost their rows to compactions.
        self._ids = _q(np.arange(n))
        # Row v's neighbors are _slab[_start[v] : _start[v] + _fill[v]], with
        # room for _cap[v] entries; until the next snapshot they may still
        # hold rows removed since (tombstones), which _degree does not count.
        self._slab = _q(ends[by_row ^ 1])  # an end's partner is the other end of its pair
        self._start = _q(np.cumsum(degree) - degree)
        self._degree = _q(degree)
        self._fill, self._cap = self._degree[:], self._degree[:]
        self._live = bytearray(b"\x01") * n
        # Degree and neighbor-degree sum of every row as of the last
        # snapshot; since then, per row, a mark if its neighbors changed, and
        # the arrivals and benign departures booked at it as a host.
        self._deg = np.zeros(0, dtype=np.int64)
        self._nds = np.zeros(0, dtype=np.int64)
        self._touched = bytearray((degree > 0).tobytes())
        self._arrived, self._benign_gone = array("q", bytes(8 * n)), array("q", bytes(8 * n))
        # preferential-attachment pool: one entry per degree unit, lazily
        # pruned; copies counts each row's entries (0 once it is removed)
        self._pool = _q(ends)
        self._pool_copies = self._degree[:]
        self._pool_stale: int = 0
        # The arrival log: the arrivals since the last settle are the rows
        # from len(_fill) on, and their edges are the pool's tail from
        # _settled on, a (v, u) pair per host in draw order; their hosts
        # are also kept as a set.
        self._settled = len(self._pool)
        self._pending_hosts: set[int] = set()

    # ---- the id edge -------------------------------------------------

    @property
    def rows(self) -> int:
        """The number of rows, live and dead."""
        return len(self._live)

    def _row(self, v: NodeId) -> int:
        """The row that holds id `v`, live or dead, or -1 if none does.
        Id v sits at a row from v minus the ids dropped by compactions up to
        v, so the bisection searches that range only."""
        if not 0 <= v < self.next_id:
            return -1
        ids = self._ids
        n = len(ids)
        dropped = self.next_id - n
        if not dropped:
            return v
        r = bisect_left(ids, v, max(v - dropped, 0), min(v + 1, n))
        return r if r < n and ids[r] == v else -1

    def live_row(self, v: NodeId) -> int:
        """The row of the live node `v`; UnknownNodeError unless `v` is live."""
        r = self._row(v)
        if r < 0 or not self._live[r]:
            raise UnknownNodeError(v)
        return r

    def ids_at(self, rows) -> np.ndarray:
        """The ids held at `rows`, a sequence or an array of row indices."""
        return _int64(self._ids)[rows]

    def __contains__(self, v: NodeId) -> bool:
        r = self._row(v)
        return r >= 0 and self._live[r] == 1

    def live_ids(self) -> np.ndarray:
        """The live ids, ascending."""
        return _int64(self._ids)[np.frombuffer(self._live, bool)]

    def live_rows(self) -> np.ndarray:
        """The live rows, ascending, which is ascending id order."""
        return np.flatnonzero(np.frombuffer(self._live, bool))

    def degree_of(self, v: NodeId) -> int:
        """The number of live neighbors of `v`; 0 once `v` is removed."""
        if not 0 <= v < self.next_id:
            raise UnknownNodeError(v)
        r = self._row(v)
        return self._degree[r] if r >= 0 else 0  # 0 at a dead or dropped row

    def neighbors(self, v: NodeId) -> list[NodeId]:
        """The live neighbors of the live node `v`, in no particular order."""
        nbrs, ids = self._neighbor_rows(self.live_row(v)), self._ids
        return [ids[u] for u in nbrs] if len(ids) < self.next_id else nbrs

    # ---- read side, by row -------------------------------------------

    def _neighbor_rows(self, r: int) -> list[int]:
        """The rows of the live neighbors of the live row `r`. Wires the
        arrival log first if `r` or a host of `r` is in it."""
        if r >= len(self._fill) or r in self._pending_hosts:
            self._settle()
        live, s = self._live, self._start[r]
        return [u for u in self._slab[s : s + self._fill[r]] if live[u]]

    def _row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of the wired `rows` concatenated, tombstones dropped,
        and a mask over the rows' entries, False at each tombstone."""
        entries = _int64(self._slab)[
            _row_positions(_int64(self._start)[rows], _int64(self._fill)[rows])
        ]
        keep = np.frombuffer(self._live, bool)[entries]
        return entries[keep], keep

    def neighbor_degree_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(prev, ndsum, gained, lost), each indexed by row, one entry per
        row. `ndsum` is every node's neighbor-degree sum, zero at a dead
        row, a view of `_nds` that the next snapshot overwrites (`_deg` and
        `_nds` grow here, to the row count with `grown`, room for twice the
        live nodes); `prev` is a copy of the sums the previous snapshot
        left, zero at rows added since. `gained` and `lost` are the churn
        since the previous snapshot: per node, the arrivals and the benign
        departures booked at its current neighbors. They are floats holding
        integers, so they are exact in any order. The first snapshot of a
        `generate_scale_free` overlay also returns the arrivals its build
        booked, which `engine.Simulation.__init__` discards. A snapshot
        wires the arrival log first (`_settle`), and clears the marks and
        the bookings.

        One gather serves the other three: the rows of the live nodes whose
        neighbors changed since the previous snapshot, which include every
        live host, as booking a host changes its neighbors, and every live
        neighbor of a removed node. The gather drops the tombstones and
        writes those rows back compacted, so after a snapshot every live
        row holds exactly its live neighbors. A changed node is counted
        again as the sum of its neighbors' degrees. Any other node kept its
        neighbors, so its sum moves by exactly the degree changes of its
        changed neighbors, handed out over their rows. Changed neighbors,
        not a changed degree, are what mark a node: one that lost an edge
        and gained another keeps its degree but not its sum."""
        self._settle()
        size = len(self._live)
        self._deg = grown(self._deg, size, 2 * self.node_count)
        self._nds = grown(self._nds, size, 2 * self.node_count)
        deg, nds = self._deg, self._nds
        prev = nds[:size].copy()
        marks = np.frombuffer(self._touched, bool)
        touched = np.flatnonzero(marks)
        alive = np.frombuffer(self._live, bool)[touched]
        rows, gone = touched[alive], touched[~alive]
        nbrs, keep = self._row_entries(rows)
        live_degs = _int64(self._degree)[rows]
        if len(nbrs) < len(keep):  # tombstones to drop: compact the rows in place
            _int64(self._slab)[_row_positions(_int64(self._start)[rows], live_degs)] = nbrs
            _int64(self._fill)[rows] = live_degs
        # A removed node's neighbors all lost an edge to it, so every node
        # it reached is counted again below: only live nodes hand out.
        np.add.at(nds, nbrs, np.repeat(live_degs - deg[rows], live_degs))
        deg[rows] = live_degs
        nds[rows] = _sum_by_row(deg[nbrs], live_degs)
        deg[gone] = nds[gone] = 0
        # Every booked host is marked, so clearing the marked rows clears
        # every booking, those at hosts removed since included.
        gained = _hand_out(nbrs, _int64(self._arrived)[rows], live_degs, size)
        lost = _hand_out(nbrs, _int64(self._benign_gone)[rows], live_degs, size)
        _int64(self._arrived)[touched] = _int64(self._benign_gone)[touched] = 0
        marks[touched] = False
        return prev, nds[:size], gained, lost

    def neighbor_sums(self, book: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The snapshot's gather for a `book` of arrivals by row: each live
        row's entry handed out to its live neighbors, then the nodes that got
        some counted afresh. Returns what they got (floats holding integers)
        and their neighbor-degree sums, in ascending row order. It wires the
        arrival log and writes nothing else (no mark, book, `_deg`, `_nds`)."""
        self._settle()
        hosts = np.flatnonzero(book * np.frombuffer(self._live, bool))
        degree = _int64(self._degree)
        nbrs, _ = self._row_entries(hosts)
        booked = _hand_out(nbrs, book[hosts], degree[hosts], len(self._live))
        rows = np.flatnonzero(booked)
        nbrs, _ = self._row_entries(rows)
        return booked[rows], _sum_by_row(degree[nbrs], degree[rows])

    def compact(self) -> np.ndarray:
        """Drop the rows of removed nodes in one order-preserving pass, and
        return the old rows kept, ascending: the live ones and the first
        dead one, where the pool's entries of every removed node now point.
        The sampler rejects such an entry at degree 0 without a draw, so
        the pool's length, order and stale count, and so every draw, stay
        as they were. The slab's and the pool's entries are renumbered in
        place; each array indexed by row keeps the kept rows, and the slab
        is then rewritten without dead space (`_rewrite_slab`).

        Only with a dead row, and right after a snapshot
        (`neighbor_degree_array`) with no node event since: the arrival log
        is empty, so the pool's tail from `_settled` is too, no row is
        marked or booked, and every live row holds exactly its live
        neighbors, so no entry of a live row points at a dropped row."""
        live = np.frombuffer(self._live, bool)
        first_dead = int(np.argmin(live))
        keep = live.copy()
        keep[first_dead] = True
        kept = np.flatnonzero(keep)
        lookup = np.cumsum(keep) - 1  # each kept row's new number
        lookup[~keep] = lookup[first_dead]
        for entries in (_int64(self._slab), _int64(self._pool)):
            entries[:] = lookup[entries]
        for name in ("_ids", "_start", "_fill", "_cap", "_degree", "_pool_copies",
                     "_arrived", "_benign_gone"):
            setattr(self, name, _q(_int64(getattr(self, name))[kept]))
        self._live = bytearray(live[kept].tobytes())
        self._touched = bytearray(np.frombuffer(self._touched, bool)[kept].tobytes())
        self._deg, self._nds = self._deg[kept], self._nds[kept]
        self._rewrite_slab()
        return kept

    # ---- preferential attachment ------------------------------------

    def _rewrite_slab(self) -> tuple[np.ndarray, np.ndarray]:
        """Rewrite the slab as the live rows back to back, tombstones
        dropped, each at capacity equal to its degree, and return the live
        rows and their degrees. Only with the arrival log empty, so that
        each row holds as many live entries as its degree counts."""
        rows = self.live_rows()
        degree = _int64(self._degree)[rows]
        nbrs, _ = self._row_entries(rows)
        start = np.zeros(len(self._live), np.int64)
        start[rows] = np.cumsum(degree) - degree
        self._slab = _q(nbrs)
        self._start = _q(start)
        self._fill, self._cap = self._degree[:], self._degree[:]
        return rows, degree

    def _rebuild_pool(self) -> None:
        """One pool entry per degree unit, ascending rows, and the slab
        rewritten (`_rewrite_slab`), the arrival log wired first."""
        self._settle()
        rows, degree = self._rewrite_slab()
        self._pool_copies = self._degree[:]
        self._pool = _q(np.repeat(rows, degree))
        self._settled = len(self._pool)
        self._pool_stale = 0

    def attach(self, count: int, rng: Draws) -> tuple[NodeId, list[NodeId]]:
        """Add a node joined to `count` distinct hosts drawn by degree, and
        book one arrival at each host. Returns the new id and its hosts' ids
        in draw order. Same end state as adding the node and then the edge
        (v, u) for each host in draw order."""
        hosts = self._attach(count, rng)
        ids = self._ids
        return self.next_id - 1, [ids[u] for u in hosts]

    def _attach(self, count: int, rng: Draws) -> list[int]:
        """`attach`, returning the hosts' rows in draw order; the new node
        takes the next row.

        The writes the sampler reads are made here, in one pass over the
        hosts: the counters, the live bit, the degrees and pool copies of
        both ends and the pool entries (v, u) per host in order. Those
        entries are the arrival log: the rows and the books wait for
        `_settle`, which reads them from the pool's tail."""
        targets = self.sample_attachment_targets(count, rng)
        v = len(self._live)
        self._ids.append(self.next_id)
        self.next_id += 1
        self.node_count += 1
        k = len(targets)
        degree, copies, pool = self._degree, self._pool_copies, self._pool
        self._live.append(1)
        degree.append(k)
        copies.append(k)
        isolated = 0 if targets else 1  # v, until its first edge
        for u in targets:
            d = degree[u]
            if not d:
                isolated -= 1
            degree[u] = d + 1
            copies[u] += 1
            pool.append(v)
            pool.append(u)
        self.isolated_count += isolated
        self.edge_count += k
        self._pending_hosts.update(targets)
        return targets

    def _settle(self) -> None:
        """Wire the rows and the books of every logged arrival in one pass,
        and empty the log: a row per logged arrival, every host row's
        appends, one arrival booked per edge at its host and a mark on every
        row that changed. The log's edges are the pool's (v, u) pairs from
        `_settled` on. A row with room takes its entries in place; a full
        one moves once to the end of the slab, an old row at twice the
        capacity it needs and a new one at exactly that."""
        first = len(self._fill)
        n = len(self._live) - first
        if not n:
            return
        tail = _int64(self._pool)[self._settled :]
        v, u = tail[0::2], tail[1::2]
        for a in (self._start, self._fill, self._cap, self._arrived, self._benign_gone):
            a.frombytes(bytes(8 * n))
        self._touched += bytes(n)
        # Each edge is an entry in both rows; group the entries by row.
        rows = np.concatenate((v, u))
        order = np.argsort(rows, kind="stable")
        rows, entries = rows[order], np.concatenate((u, v))[order]
        at = np.flatnonzero(np.diff(rows, prepend=-1))  # where each row's run begins
        grew, added = rows[at], np.diff(at, append=len(rows))
        start, fill, cap = _int64(self._start), _int64(self._fill), _int64(self._cap)
        old = fill[grew]
        need = old + added
        full = need > cap[grew]
        movers, size = grew[full], need[full] * np.where(grew[full] < first, 2, 1)
        dest = len(self._slab) + np.cumsum(size) - size
        self._slab.frombytes(bytes(8 * int(size.sum())))
        slab = _int64(self._slab)
        slab[_row_positions(dest, old[full])] = slab[_row_positions(start[movers], old[full])]
        start[movers], cap[movers] = dest, size
        slab[np.repeat(start[grew] + old - at, added) + np.arange(len(rows))] = entries
        fill[grew] = need
        np.add.at(_int64(self._arrived), u, 1)
        np.frombuffer(self._touched, bool)[grew] = True
        self._settled = len(self._pool)
        self._pending_hosts = set()

    def sample_attachment_targets(self, count: int, rng: Draws) -> list[int]:
        """Sample the rows of `count` distinct existing nodes with
        probability proportional to current degree, drawing from the run's
        `Draws`. If fewer than `count` nodes have edges (none at all in an
        edgeless graph), all of those are drawn that way and the rest come
        uniformly from the isolated nodes."""
        if not self.node_count:
            raise InvalidParameterError("no attachment targets available")
        count = min(count, self.node_count)
        pool = self._pool
        if pool and self._pool_stale > _POOL_STALE_LIMIT * len(pool):
            self._rebuild_pool()
            pool = self._pool
        copies, degree = self._pool_copies, self._degree
        below, random, size = rng.below, rng.random, len(pool)
        chosen: list[int] = []
        wanted = min(count, self.node_count - self.isolated_count)
        while wanted:
            v = pool[below(size)]
            d = degree[v]
            if not d or v in chosen:  # `chosen` is at most `count` long
                continue  # a stale entry for a removed or isolated node, or a repeat
            c = copies[v]
            if d < c and random() >= d / c:
                continue  # stale excess copies: thin back to the true degree
            chosen.append(v)
            wanted -= 1
        if len(chosen) < count:
            isolated = np.flatnonzero(
                np.frombuffer(self._live, bool) & (_int64(self._degree) == 0)
            )
            order = rng.permutation(len(isolated))
            chosen += isolated[order[: count - len(chosen)]].tolist()
        return chosen


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
    t = Topology(k, np.column_stack(np.triu_indices(k, 1)))
    for _ in range(n - k):
        t._attach(attach_edges, rng)
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
            return Topology(n, _complement(n, edges) if dense else edges)
    raise InfeasibleParametersError(
        f"pairing model failed {_PAIRING_RETRY_CAP} times for n={n}, degree={degree}"
    )


# ---- mutation ops ----------------------------------------------------


def remove_node(t: Topology, r: int, benign: bool = False) -> None:
    """Remove the node at the live row `r` and every edge it had; if
    `benign`, book one benign departure at each neighbor. Any other row, a
    negative one included, raises UnknownNodeError. The row stays in its
    neighbors' rows as a tombstone until the next snapshot. Same end state
    as removing each of its edges and then dropping the node, whose pool
    copies count as stale once more (see ROADMAP item 5)."""
    if not 0 <= r < t.rows or not t._live[r]:
        raise UnknownNodeError(r)
    nbrs = t._neighbor_rows(r)
    degree, touched, gone = t._degree, t._touched, t._benign_gone
    emptied = 0
    for u in nbrs:
        d = degree[u] - 1
        degree[u] = d
        emptied += not d
        touched[u] = 1
        if benign:
            gone[u] += 1
    touched[r] = 1
    t._live[r] = 0
    degree[r] = 0
    t.node_count -= 1
    # A node with edges ends isolated by its last removal, which dropping it
    # takes back; one without edges was isolated all along.
    t.isolated_count += emptied - (not nbrs)
    t.edge_count -= len(nbrs)
    t._pool_stale += 2 * len(nbrs) + t._pool_copies[r]
    t._pool_copies[r] = 0
