from __future__ import annotations

import collections

import numpy as np
import pytest

import oracles
from p2psim import graph
from p2psim.graph import (
    InfeasibleParametersError,
    InvalidParameterError,
    Topology,
    UnknownNodeError,
)


def path_topology(n: int = 5) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


def is_connected(t: Topology) -> bool:
    first = int(t.live_ids()[0])
    seen = {first}
    frontier = [first]
    while frontier:
        v = frontier.pop()
        for u in t.neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == t.node_count


# ---- generation ------------------------------------------------------


def test_scale_free_shape():
    t = graph.generate_scale_free(1000, 3, oracles.draws(1))
    assert t.node_count == 1000
    degrees = [t.degree_of(v) for v in t.live_ids()]
    assert min(degrees) >= 3
    assert is_connected(t)
    # heavy tail: the largest hub dwarfs the mean degree
    assert max(degrees) > 5 * np.mean(degrees)


def test_scale_free_deterministic():
    a = graph.generate_scale_free(200, 3, oracles.draws(7))
    b = graph.generate_scale_free(200, 3, oracles.draws(7))
    c = graph.generate_scale_free(200, 3, oracles.draws(8))
    assert oracles.adjacency(a) == oracles.adjacency(b)
    assert oracles.adjacency(a) != oracles.adjacency(c)


def test_scale_free_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        graph.generate_scale_free(3, 3, oracles.draws(0))
    with pytest.raises(InvalidParameterError):
        graph.generate_scale_free(10, 0, oracles.draws(0))


def test_regular_degrees():
    t = graph.generate_regular(1000, 6, oracles.draws(2))
    assert t.node_count == 1000
    adj = oracles.adjacency(t)
    assert all(len(nbrs) == 6 for nbrs in adj.values())
    assert all(v not in nbrs for v, nbrs in adj.items())


def test_regular_deterministic():
    a = graph.generate_regular(100, 4, oracles.draws(5))
    b = graph.generate_regular(100, 4, oracles.draws(5))
    assert oracles.adjacency(a) == oracles.adjacency(b)


def test_regular_rejects_infeasible():
    with pytest.raises(InfeasibleParametersError):
        graph.generate_regular(5, 3, oracles.draws(0))  # odd stub count
    with pytest.raises(InfeasibleParametersError):
        graph.generate_regular(4, 5, oracles.draws(0))  # degree too large
    with pytest.raises(InvalidParameterError):
        graph.generate_regular(4, 0, oracles.draws(0))


# ---- preferential attachment ----------------------------------------


def test_attachment_frequency_tracks_degree():
    """On a fixed path, attachment frequencies must match degree/2E within
    3 standard errors."""
    t = path_topology(5)  # degrees 1,2,2,2,1; 2E = 8
    rng = oracles.GeneratorDraws(np.random.default_rng(42))
    draws = 20000
    counts = collections.Counter()
    for _ in range(draws):
        (v,) = t.sample_attachment_targets(1, rng)
        counts[v] += 1
    for v, expected_p in zip(range(5), [1 / 8, 2 / 8, 2 / 8, 2 / 8, 1 / 8]):
        se = np.sqrt(expected_p * (1 - expected_p) / draws)
        assert abs(counts[v] / draws - expected_p) < 3 * se, (v, counts[v])


def test_attachment_survives_churn():
    """After removals force stale pool entries, sampling still tracks the
    live degree distribution."""
    t = path_topology(6)
    graph.remove_node(t, 5)
    graph.remove_node(t, 0)  # leaves path 1-2-3-4, degrees 1,2,2,1
    rng = oracles.GeneratorDraws(np.random.default_rng(9))
    draws = 20000
    counts = collections.Counter()
    for _ in range(draws):
        (v,) = t.sample_attachment_targets(1, rng)
        counts[v] += 1
    assert set(counts) == {1, 2, 3, 4}
    for v, expected_p in [(1, 1 / 6), (2, 2 / 6), (3, 2 / 6), (4, 1 / 6)]:
        se = np.sqrt(expected_p * (1 - expected_p) / draws)
        assert abs(counts[v] / draws - expected_p) < 3 * se, (v, counts[v])


def test_attachment_targets_distinct():
    t = graph.generate_scale_free(50, 3, oracles.draws(3))
    rng = oracles.GeneratorDraws(np.random.default_rng(0))
    for _ in range(50):
        targets = t.sample_attachment_targets(3, rng)
        assert len(set(targets)) == 3


def test_attachment_falls_back_to_isolated_nodes():
    """More targets than nodes with edges: every linked node is drawn by
    degree, the rest uniformly from the isolated ones (this used to spin
    forever)."""
    t = Topology(8, [(i, i + 1) for i in range(6)])  # 7 has no edge
    for v in range(5):
        graph.remove_node(t, v)  # leaves {5: {6}, 6: {5}, 7: {}}
    assert t.isolated_count == 1
    rng = oracles.GeneratorDraws(np.random.default_rng(0))
    targets = t.sample_attachment_targets(3, rng)
    assert sorted(targets[:2]) == [5, 6] and targets[2] == 7
    graph.remove_node(t, 6)  # no node has an edge left
    assert t.isolated_count == 2
    assert sorted(t.sample_attachment_targets(3, rng)) == [5, 7]


def hub_of(t: Topology) -> int:
    """The live node of highest degree, the highest id among ties."""
    return max(t.live_ids().tolist(), key=lambda v: (t.degree_of(v), v))


@pytest.mark.xfail(
    strict=True,
    reason="remove_node counts a removed node's pool copies twice; fixing it moves "
    "every golden digest, so it waits for an explicit re-recording",
)
def test_pool_stale_count_after_hub_removal():
    # Right after a rebuild the pool holds one entry per degree unit. Removing
    # the top hub (degree 17) leaves its 17 copies and one excess copy at
    # each of its 17 neighbors stale: 34 entries. remove_edge already counts
    # both ends of every edge, and remove_node then adds the hub's 17 copies
    # again, so the counter reads 51, over by the hub's degree.
    t = graph.generate_scale_free(50, 3, oracles.draws(1))
    t._rebuild_pool()
    hub = max(t.live_ids().tolist(), key=t.degree_of)
    graph.remove_node(t, hub)
    assert t._pool_stale == len(t._pool) - 2 * t.edge_count


# ---- growth and removal ----------------------------------------------


def test_grow_attaches_new_nodes():
    t = graph.generate_scale_free(50, 3, oracles.draws(3))
    before = set(t.live_ids().tolist())
    edges_before = t.edge_count
    rng = oracles.draws(4)
    created = [t.attach(3, rng)[0] for _ in range(10)]
    assert len(created) == 10
    for v in created:
        # exactly 3 edges at birth; later arrivals in the batch may add more
        assert t.degree_of(v) >= 3
        assert set(t.neighbors(v)) <= before | set(created)
    assert t.edge_count == edges_before + 30
    assert t.node_count == 60


def test_ids_never_reused():
    t = graph.generate_scale_free(10, 2, oracles.draws(0))
    graph.remove_node(t, 9)
    v, _ = t.attach(2, oracles.draws(1))
    assert v == 10


def test_remove_node_unknown():
    t = path_topology(3)
    graph.remove_node(t, 1)
    for v in (99, 3, 1, -1):  # never issued, the next id, removed, negative
        with pytest.raises(UnknownNodeError):
            graph.remove_node(t, v)
        with pytest.raises(UnknownNodeError):
            t.neighbors(v)
        if v != 1:
            with pytest.raises(UnknownNodeError):
                t.degree_of(v)
    assert t.degree_of(1) == 0  # a removed id reads degree 0
    assert t.node_count == 2 and t.isolated_count == 2


def test_churn_keeps_bookkeeping_consistent():
    """Random add/remove churn must leave the counters and the incremental
    neighbor-degree snapshot equal to a brute-force recount after every
    mutation."""
    t = graph.generate_scale_free(30, 2, oracles.draws(6))
    rng = oracles.GeneratorDraws(np.random.default_rng(13))
    for step in range(60):
        if rng.random() < 0.4 and t.node_count > 5:
            victim = int(t.live_ids()[int(rng.integers(t.node_count))])
            graph.remove_node(t, victim)
        else:
            t.attach(2, rng)
        adj = oracles.adjacency(t)
        assert t.node_count == len(adj)
        assert t.edge_count == sum(len(s) for s in adj.values()) // 2
        assert t.isolated_count == sum(1 for s in adj.values() if not s)
        assert all(t.degree_of(v) == len(s) for v, s in adj.items())
        snap = t.neighbor_degree_array()[1]
        for v in adj:
            assert snap[v] == oracles.neighbor_degree_sum(t, v), (step, v)


def test_neighbor_degree_snapshot_matches_recount():
    """Snapshots taken every few events of seeded churn equal a recount over
    the neighbor lists: zero where no node is, and the sum of the neighbors'
    degrees elsewhere. The churn grows batches onto hubs, removes hubs,
    random nodes and hosts of churn already booked, benign or not, passes a
    node through (attached, then removed at once), and pushes ids past the
    snapshot arrays' capacity; between snapshots, many nodes lose a
    neighbor and gain another, which keeps their degree but not their sum.
    The churn sums of every snapshot equal the arrivals and benign
    departures of a test-side event log, summed over the current neighbors
    of the hosts still live, and after every event each booked host, live
    or gone, is a marked node. Before a snapshot the books hold the whole
    log, the counts at hosts removed since included; after it every counter
    and mark is zero."""
    t = graph.generate_scale_free(30, 2, oracles.draws(5))
    t.neighbor_degree_array()  # clears the arrivals the build booked
    rng = oracles.GeneratorDraws(np.random.default_rng(17))
    arrived: collections.Counter = collections.Counter()
    benign_gone: collections.Counter = collections.Counter()

    def pick(candidates) -> int:
        return sorted(candidates)[int(rng.integers(len(candidates)))]

    def attach(count: int) -> int:
        v, hosts = t.attach(count, rng)
        arrived.update(hosts)
        return v

    def drop(v: int) -> None:
        benign = bool(rng.integers(2))
        if benign:
            benign_gone.update(t.neighbors(v))
        graph.remove_node(t, v, benign)

    def passing_node() -> None:
        drop(attach(int(rng.integers(4))))

    def remove_hub() -> None:
        drop(hub_of(t))

    def remove_any() -> None:
        drop(pick(t.live_ids().tolist()))

    def remove_host() -> None:
        booked = [j for j in arrived.keys() | benign_gone.keys() if j in t]
        drop(pick(booked or t.live_ids().tolist()))

    def grow_batch() -> None:
        for _ in range(int(rng.integers(1, 12))):
            attach(2)

    mutations = [passing_node, remove_hub, remove_any, remove_host, grow_batch]
    capacities = set()
    host_kinds = collections.Counter()
    before = oracles.adjacency(t)
    for step in range(120):
        for _ in range(int(rng.integers(1, 5))):
            op = mutations[int(rng.integers(len(mutations)))]
            if t.node_count < 8 and op in (remove_hub, remove_any, remove_host):
                op = grow_batch
            op()
            books = oracles.books(t)
            assert books.arrived.keys() | books.benign_gone.keys() <= books.touched, step
        assert (books.arrived, books.benign_gone) == (dict(arrived), dict(benign_gone)), step
        size = t.next_id
        for j in arrived.keys() | benign_gone.keys():
            host_kinds["live" if j in t else "gone"] += 1
        after = oracles.adjacency(t)
        host_kinds["rewired"] += sum(
            1 for v, nbrs in after.items() if v in before and len(before[v]) == len(nbrs)
            and before[v] != nbrs
        )
        before = after
        _, snap, gained, lost = t.neighbor_degree_array()
        books = oracles.books(t)
        assert (books.touched, books.arrived, books.benign_gone) == (set(), {}, {}), step
        capacities.add(len(t._nds))
        expected = np.zeros(size, dtype=np.int64)
        for v, nbrs in after.items():
            expected[v] = sum(len(after[u]) for u in nbrs)
        assert snap.dtype == np.int64
        np.testing.assert_array_equal(snap, expected, err_msg=f"step {step}")
        for log, got in ((arrived, gained), (benign_gone, lost)):
            np.testing.assert_array_equal(got, oracles.churn_sums(t, log), f"step {step}")
            log.clear()
    assert len(capacities) >= 3  # the arrays grew at least twice
    assert min(host_kinds[k] for k in ("live", "gone", "rewired")) > 20, host_kinds


def test_live_ids_are_the_issued_ids_not_removed():
    # Through generation, growth and removals, live_ids() lists exactly the
    # ids issued and not removed, ascending, and `in` agrees with it.
    rng = oracles.GeneratorDraws(np.random.default_rng(8))
    for t in (graph.generate_scale_free(40, 2, rng), graph.generate_regular(40, 4, rng)):
        live = set(range(40))
        for step in range(60):
            if step % 3 == 0:
                hub = hub_of(t)
                graph.remove_node(t, hub)
                live.remove(hub)
            elif step % 3 == 1:
                fresh, _ = t.attach(2, rng)
                for _ in range(int(rng.integers(1, 4))):
                    live.add(t.attach(2, rng)[0])
                graph.remove_node(t, fresh)
            else:
                for _ in range(int(rng.integers(1, 6))):
                    live.add(t.attach(2, rng)[0])
            ids = t.live_ids()
            assert ids.dtype == np.int64
            assert ids.tolist() == sorted(live), step
            assert [v for v in range(-2, t.next_id + 2) if v in t] == sorted(live), step
            assert t.node_count == len(live)


# ---- one-pass node events against the per-edge reference model -------------


def test_attach_and_remove_node_match_the_per_edge_primitives():
    # Seeded churn on a scale-free overlay with hubs, replayed on the
    # dict-of-sets reference model, built on its own, through its per-edge
    # events, the booked churn included. The churn removes hubs and random
    # nodes, on odd steps as benign departures, attaches with 0 to 5 hosts
    # (an edgeless node, and more hosts than there are linked nodes once the
    # overlay is small), and removes a node right after it attached. Both
    # sides draw from generators in the same state, so the samplers' pool
    # rebuilds land at the same draws. The reference model calls `integers`
    # on a bare Generator, the topology `below` through `GeneratorDraws`.
    control = np.random.default_rng(31)
    for seed in range(4):
        bulk = graph.generate_scale_free(40, 3, oracles.draws(seed))
        oracle = oracles.RefTopology.scale_free(40, 3, oracles.draws(seed))
        oracles.assert_same_topology(bulk, oracle, f"after the build at seed {seed}")
        rng_bulk = oracles.GeneratorDraws(np.random.default_rng(seed))
        rng_oracle = np.random.default_rng(seed)
        kinds = collections.Counter()

        def remove(v, kind):
            benign = step % 2 == 1
            graph.remove_node(bulk, v, benign)
            oracle.remove_node(v, benign)
            kinds[kind] += 1
            kinds["benign"] += benign

        for step in range(300):
            # The last third removes more than it adds, down to a few nodes.
            op = int(control.integers(6)) - 2 * (step >= 200)
            if op <= 1 and bulk.node_count > 3:
                remove(hub_of(bulk), "hub")
            elif op == 2 and bulk.node_count > 3:
                remove(int(bulk.live_ids()[int(control.integers(bulk.node_count))]), "any")
            else:
                count = int(control.integers(6))
                kinds["edgeless"] += count == 0
                kinds["short"] += count > bulk.node_count - bulk.isolated_count
                pool_before = len(bulk._pool)
                got = bulk.attach(count, rng_bulk)
                assert got == oracle.attach(count, rng_oracle)
                kinds["attach"] += 1
                kinds["rebuild"] += len(bulk._pool) < pool_before
                if op == 5:
                    remove(got[0], "just attached")
            kinds["isolated"] += bulk.isolated_count > 0
            oracles.assert_same_topology(bulk, oracle, f"at seed {seed}, step {step}")
        assert rng_bulk.bit_generator.state == rng_oracle.bit_generator.state
        assert min(kinds.values()) > 0, kinds


def test_from_edges_matches_the_per_edge_build():
    # generate_regular builds through Topology(n, edges); the per-edge build of the
    # same sorted pairs must leave the same state.
    for n, degree, seed in [(10, 3, 0), (100, 4, 5), (1000, 6, 2)]:
        t = graph.generate_regular(n, degree, oracles.draws(seed))
        edges = sorted((u, v) for u, nbrs in oracles.adjacency(t).items() for v in nbrs if u < v)
        oracles.assert_same_topology(t, oracles.RefTopology.by_edges(n, edges), f"at n={n}")
    # Unsorted pairs, isolated nodes and an empty graph.
    rng = np.random.default_rng(4)
    pairs = {tuple(sorted(rng.choice(30, 2, replace=False).tolist())) for _ in range(40)}
    edges = [p[::-1] if i % 3 else p for i, p in enumerate(sorted(pairs, key=lambda p: -p[1]))]
    for n, es in [(40, edges), (5, [])]:
        t = Topology(n, es)
        oracles.assert_same_topology(t, oracles.RefTopology.by_edges(n, es), f"at n={n}")
        assert t.isolated_count == sum(1 for nbrs in oracles.adjacency(t).values() if not nbrs)


def test_from_edges_peak_memory_per_edge_end():
    # The build's memory, which MAX_EDGE_ENDS bounds by edge ends: each
    # `array('q')` is filled straight from numpy's buffer, with no `bytes`
    # copy in between, and each end's partner is gathered by index, with no
    # reversed copy of the pairs. On a dense edge list (n 400, every node
    # of degree 200) the traced peak of `Topology(n, edges)` stays within 3.5 int64
    # words per edge end; with those copies it read 4.17.
    import tracemalloc

    n, half = 400, 100
    u = np.repeat(np.arange(n), half)
    edges = np.column_stack((u, (u + np.tile(np.arange(1, half + 1), n)) % n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t = Topology(n, edges)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert t.edge_count == n * half and t.degree_of(0) == 2 * half
    assert peak / 8 / (2 * n * half) <= 3.5, peak / 8 / (2 * n * half)
