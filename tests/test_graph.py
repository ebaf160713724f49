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
    t = Topology()
    for _ in range(n):
        oracles.add_node(t)
    for i in range(n - 1):
        oracles.add_edge(t, i, i + 1)
    return t


def is_connected(t: Topology) -> bool:
    nodes = list(t.adj)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for u in t.adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == t.node_count


# ---- generation ------------------------------------------------------


def test_scale_free_shape():
    t = graph.generate_scale_free(1000, 3, oracles.draws(1))
    assert t.node_count == 1000
    degrees = [len(nbrs) for nbrs in t.adj.values()]
    assert min(degrees) >= 3
    assert is_connected(t)
    # heavy tail: the largest hub dwarfs the mean degree
    assert max(degrees) > 5 * np.mean(degrees)


def test_scale_free_deterministic():
    a = graph.generate_scale_free(200, 3, oracles.draws(7))
    b = graph.generate_scale_free(200, 3, oracles.draws(7))
    c = graph.generate_scale_free(200, 3, oracles.draws(8))
    assert a.adj == b.adj
    assert a.adj != c.adj


def test_scale_free_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        graph.generate_scale_free(3, 3, oracles.draws(0))
    with pytest.raises(InvalidParameterError):
        graph.generate_scale_free(10, 0, oracles.draws(0))


def test_regular_degrees():
    t = graph.generate_regular(1000, 6, oracles.draws(2))
    assert t.node_count == 1000
    assert all(len(nbrs) == 6 for nbrs in t.adj.values())
    assert all(v not in nbrs for v, nbrs in t.adj.items())


def test_regular_deterministic():
    a = graph.generate_regular(100, 4, oracles.draws(5))
    b = graph.generate_regular(100, 4, oracles.draws(5))
    assert a.adj == b.adj


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
    rng = np.random.default_rng(42)
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
    rng = np.random.default_rng(9)
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
    rng = np.random.default_rng(0)
    for _ in range(50):
        targets = t.sample_attachment_targets(3, rng)
        assert len(set(targets)) == 3


def test_attachment_falls_back_to_isolated_nodes():
    """More targets than nodes with edges: every linked node is drawn by
    degree, the rest uniformly from the isolated ones (this used to spin
    forever)."""
    t = path_topology(7)
    for v in range(5):
        graph.remove_node(t, v)
    oracles.add_node(t)  # leaves {5: {6}, 6: {5}, 7: {}}
    assert t.isolated_count == 1
    rng = np.random.default_rng(0)
    targets = t.sample_attachment_targets(3, rng)
    assert sorted(targets[:2]) == [5, 6] and targets[2] == 7
    oracles.remove_edge(t, 5, 6)
    assert t.isolated_count == 3
    assert sorted(t.sample_attachment_targets(3, rng)) == [5, 6, 7]


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
    hub = max(t.adj, key=lambda v: len(t.adj[v]))
    graph.remove_node(t, hub)
    assert t._pool_stale == len(t._pool) - 2 * t.edge_count


# ---- growth and removal ----------------------------------------------


def test_grow_attaches_new_nodes():
    t = graph.generate_scale_free(50, 3, oracles.draws(3))
    before = set(t.adj)
    edges_before = t.edge_count
    rng = oracles.draws(4)
    created = [t.attach(3, rng)[0] for _ in range(10)]
    assert len(created) == 10
    for v in created:
        # exactly 3 edges at birth; later arrivals in the batch may add more
        assert len(t.adj[v]) >= 3
        assert t.adj[v] <= before | set(created)
    assert t.edge_count == edges_before + 30
    assert t.node_count == 60


def test_ids_never_reused():
    t = graph.generate_scale_free(10, 2, oracles.draws(0))
    graph.remove_node(t, 9)
    v, _ = t.attach(2, oracles.draws(1))
    assert v == 10


def test_remove_node_unknown():
    t = path_topology(3)
    with pytest.raises(UnknownNodeError):
        graph.remove_node(t, 99)


def test_churn_keeps_bookkeeping_consistent():
    """Random add/remove churn must leave the counters and the incremental
    neighbor-degree snapshot equal to a brute-force recount after every
    mutation."""
    t = graph.generate_scale_free(30, 2, oracles.draws(6))
    rng = np.random.default_rng(13)
    for step in range(60):
        if rng.random() < 0.4 and t.node_count > 5:
            victim = sorted(t.adj)[int(rng.integers(t.node_count))]
            graph.remove_node(t, victim)
        else:
            t.attach(2, rng)
        assert t.edge_count == sum(len(s) for s in t.adj.values()) // 2
        assert t.isolated_count == sum(1 for s in t.adj.values() if not s)
        snap = t.neighbor_degree_array(t.next_id)[0]
        for v in t.adj:
            assert snap[v] == oracles.neighbor_degree_sum(t, v), (step, v)


def test_neighbor_degree_snapshot_matches_recount():
    """Snapshots taken every few events of seeded churn equal a recount over
    the neighbor sets: zero where no node is, and the sum of the neighbors'
    degrees elsewhere. The churn grows batches onto hubs, removes hubs,
    random nodes and hosts of churn already booked, benign or not, passes a
    node through (attached, then removed at once), rewires a node (same
    degree, new neighbors), removes and re-adds one edge, and pushes ids
    past the snapshot arrays' capacity. The churn sums of every snapshot
    equal the arrivals and benign departures of a test-side event log,
    summed over the current neighbors of the hosts still live, and after
    every event each booked host, live or gone, is a marked node."""
    t = graph.generate_scale_free(30, 2, oracles.draws(5))
    t.neighbor_degree_array(t.next_id)  # clears the arrivals the build booked
    rng = np.random.default_rng(17)
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
            benign_gone.update(t.adj[v])
        graph.remove_node(t, v, benign)

    def rewire() -> None:
        u = pick([v for v in t.adj if t.adj[v] and len(t.adj[v]) < t.node_count - 1])
        old = pick(t.adj[u])
        new = pick(set(t.adj) - t.adj[u] - {u, old})
        oracles.remove_edge(t, u, old)
        oracles.add_edge(t, u, new)

    def readd_edge() -> None:
        u = pick([v for v in t.adj if t.adj[v]])
        w = pick(t.adj[u])
        oracles.remove_edge(t, u, w)
        oracles.add_edge(t, w, u)

    def passing_node() -> None:
        drop(attach(int(rng.integers(4))))

    def remove_hub() -> None:
        drop(max(t.adj, key=lambda v: (len(t.adj[v]), v)))

    def remove_any() -> None:
        drop(pick(t.adj))

    def remove_host() -> None:
        booked = [j for j in arrived.keys() | benign_gone.keys() if j in t.adj]
        drop(pick(booked or t.adj))

    def grow_batch() -> None:
        for _ in range(int(rng.integers(1, 12))):
            attach(2)

    mutations = [rewire, readd_edge, passing_node, remove_hub, remove_any, remove_host, grow_batch]
    capacities = set()
    host_kinds = collections.Counter()
    for step in range(120):
        for _ in range(int(rng.integers(1, 5))):
            op = mutations[int(rng.integers(len(mutations)))]
            if t.node_count < 8 and op in (remove_hub, remove_any, remove_host):
                op = grow_batch
            op()
            assert t._arrived.keys() | t._benign_gone.keys() <= t._touched, step
        size = t.next_id + int(rng.integers(3))
        for j in arrived.keys() | benign_gone.keys():
            host_kinds["live" if j in t.adj else "gone"] += 1
        snap, gained, lost = t.neighbor_degree_array(size)
        capacities.add(len(t._nds))
        expected = np.zeros(size, dtype=np.int64)
        for v, nbrs in t.adj.items():
            expected[v] = sum(len(t.adj[u]) for u in nbrs)
        assert snap.dtype == np.int64
        np.testing.assert_array_equal(snap, expected, err_msg=f"step {step}")
        for log, got in ((arrived, gained), (benign_gone, lost)):
            np.testing.assert_array_equal(got, oracles.churn_sums(t, log, size), f"step {step}")
            log.clear()
    assert len(capacities) >= 3  # the arrays grew at least twice
    assert min(host_kinds[k] for k in ("live", "gone")) > 20, host_kinds


def test_adj_iterates_in_ascending_id_order():
    # Ids only grow and dicts keep insertion order, so the live ids come out
    # of adj already sorted through growth, generation and removals.
    rng = np.random.default_rng(8)
    for t in (graph.generate_scale_free(40, 2, rng), graph.generate_regular(40, 4, rng)):
        assert list(t.adj) == sorted(t.adj)
        for step in range(60):
            if step % 3 == 0:
                graph.remove_node(t, max(t.adj, key=lambda v: (len(t.adj[v]), v)))
            elif step % 3 == 1:
                fresh, _ = t.attach(2, rng)
                for _ in range(int(rng.integers(1, 4))):
                    t.attach(2, rng)
                graph.remove_node(t, fresh)
            else:
                for _ in range(int(rng.integers(1, 6))):
                    t.attach(2, rng)
            assert list(t.adj) == sorted(t.adj), step


# ---- one-pass node events against the per-edge primitives -------------------


def topology_state(t: Topology) -> dict:
    """Everything a node event writes, neighbor-set iteration order included."""
    return {
        "adj": [(v, list(nbrs)) for v, nbrs in t.adj.items()],
        "pool": t._pool,
        "pool_copies": t._pool_copies,
        "pool_stale": t._pool_stale,
        "isolated_count": t.isolated_count,
        "edge_count": t.edge_count,
        "touched": t._touched,
        "arrived": t._arrived,
        "benign_gone": t._benign_gone,
        "next_id": t.next_id,
    }


def assert_same_topology(got: Topology, want: Topology, where="") -> None:
    a, b = topology_state(got), topology_state(want)
    for key in a:
        assert a[key] == b[key], f"{key} differs {where}"


def test_attach_and_remove_node_match_the_per_edge_primitives():
    # Seeded churn on a scale-free overlay with hubs, replayed on a second
    # build through add_node/add_edge/remove_edge, the booked churn
    # included. The churn removes hubs and random nodes, on odd steps as
    # benign departures, attaches with 0 to 5 hosts (an edgeless node, and
    # more hosts than there are linked nodes once the overlay is small), and
    # removes a node right after it attached. Both sides draw from
    # generators in the same state, so the sampler's pool rebuilds land at
    # the same draws.
    control = np.random.default_rng(31)
    for seed in range(4):
        # Two builds rather than a deep copy, which would rebuild the sets.
        bulk, oracle = (graph.generate_scale_free(40, 3, oracles.draws(seed)) for _ in range(2))
        rng_bulk, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        kinds = collections.Counter()

        def remove(v, kind):
            benign = step % 2 == 1
            graph.remove_node(bulk, v, benign)
            oracles.remove_node_by_edges(oracle, v, benign)
            kinds[kind] += 1
            kinds["benign"] += benign

        for step in range(300):
            # The last third removes more than it adds, down to a few nodes.
            op = int(control.integers(6)) - 2 * (step >= 200)
            if op <= 1 and bulk.node_count > 3:
                remove(max(bulk.adj, key=lambda v: (len(bulk.adj[v]), v)), "hub")
            elif op == 2 and bulk.node_count > 3:
                remove(sorted(bulk.adj)[int(control.integers(bulk.node_count))], "any")
            else:
                count = int(control.integers(6))
                kinds["edgeless"] += count == 0
                kinds["short"] += count > bulk.node_count - bulk.isolated_count
                pool_before = len(bulk._pool)
                got = bulk.attach(count, rng_bulk)
                assert got == oracles.attach_by_edges(oracle, count, rng_oracle)
                kinds["attach"] += 1
                kinds["rebuild"] += len(bulk._pool) < pool_before
                if op == 5:
                    remove(got[0], "just attached")
            kinds["isolated"] += bulk.isolated_count > 0
            assert_same_topology(bulk, oracle, f"at seed {seed}, step {step}")
        assert rng_bulk.bit_generator.state == rng_oracle.bit_generator.state
        assert min(kinds.values()) > 0, kinds


def test_from_edges_matches_the_per_edge_build():
    # generate_regular builds through from_edges; the per-edge build of the
    # same sorted pairs must leave the same state.
    for n, degree, seed in [(10, 3, 0), (100, 4, 5), (1000, 6, 2)]:
        t = graph.generate_regular(n, degree, oracles.draws(seed))
        edges = sorted((u, v) for u in t.adj for v in t.adj[u] if u < v)
        assert_same_topology(t, oracles.topology_by_edges(n, edges), f"at n={n}")
    # Unsorted pairs, isolated nodes and an empty graph.
    rng = np.random.default_rng(4)
    pairs = {tuple(sorted(rng.choice(30, 2, replace=False).tolist())) for _ in range(40)}
    edges = [p[::-1] if i % 3 else p for i, p in enumerate(sorted(pairs, key=lambda p: -p[1]))]
    for n, es in [(40, edges), (5, [])]:
        t = Topology.from_edges(n, es)
        assert_same_topology(t, oracles.topology_by_edges(n, es), f"at n={n}")
        assert t.isolated_count == sum(1 for nbrs in t.adj.values() if not nbrs)
