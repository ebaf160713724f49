"""The neighbor slab of `graph.Topology` against the dict-of-sets reference
model (`oracles.RefTopology`): random sequences of node events, growth
batches and snapshots on both generators, with the slab's own invariants
checked after every event, arrivals still in the arrival log included.
`--hypothesis-profile=ci` (see conftest.py) runs more examples."""

from __future__ import annotations

import collections
import copy
from unittest import mock

import numpy as np
import pytest

import oracles
from p2psim import graph
from p2psim.engine import SimConfig, Simulation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def check_rows(t: graph.Topology, after_snapshot: bool = False) -> None:
    """Every wired live row lies inside the slab with its fill within its
    capacity, no two of them overlap, and a row's live entries are
    distinct and number the node's degree less the edges logged at it as a
    host. A logged id has no row yet: its degree is its own hosts and the
    edges logged at it. A removed id has degree 0 and no pool copies.
    Right after a snapshot nothing is logged and no live row holds a
    removed id."""
    wired = len(t._fill)
    logged = collections.Counter(t._log_hosts)
    assert set(logged) == t._pending_hosts
    assert wired + len(t._log_counts) == t.next_id
    spans = []
    for v in range(t.next_id):
        if v not in t:
            assert t.degree_of(v) == 0 == t._pool_copies[v], v
            continue
        if v >= wired:
            assert t.degree_of(v) == t._log_counts[v - wired] + logged[v], v
            continue
        s, f, c = t._start[v], t._fill[v], t._cap[v]
        assert 0 <= s and f <= c and s + c <= len(t._slab), v
        row = t._slab[s : s + f].tolist()
        live = [u for u in row if u in t]
        assert len(set(live)) == len(live) == t.degree_of(v) - logged[v], v
        if after_snapshot:
            assert live == row, f"tombstone left in the row of {v}"
        if c:
            spans.append((s, s + c))
    if after_snapshot:
        assert not logged and wired == t.next_id
    spans.sort()
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))


def build_pair(kind: str, n: int, param: int, seed: int):
    """The same overlay as a slab topology and as the reference model."""
    if kind == "scale_free":
        return (
            graph.generate_scale_free(n, param, oracles.draws(seed)),
            oracles.RefTopology.scale_free(n, param, oracles.draws(seed)),
        )
    return (
        graph.generate_regular(n, param, oracles.draws(seed)),
        oracles.RefTopology.regular(n, param, oracles.draws(seed)),
    )


def arrive(t: graph.Topology, ref: oracles.RefTopology, k: int, rng_t, rng_ref, kind: str,
           kind_of: dict, covered: collections.Counter) -> None:
    """One `attach` with `k` hosts on both models, the same draws on each."""
    linked = t.node_count - t.isolated_count
    v, hosts = t.attach(k, rng_t)
    assert ref.attach(k, rng_ref) == (v, hosts)
    kind_of[v] = kind
    covered["isolated fill"] += len(hosts) > linked


def run_against_reference(kind: str, n: int, param: int, seed: int, ops) -> collections.Counter:
    """Drive both models through `ops` and compare them after every op:
    ("attach", count, _) attaches one node with `count` hosts, as a rejoin
    does; ("grow", count, k) attaches `count` nodes with `k` hosts each,
    with one `random()` after each standing in for the honesty draw, as
    growth does, and ("grow+rebuild", count, k) also forces a rebuild of
    both pools after its middle arrival, with arrivals still logged;
    ("remove", i, benign) removes the i-th live id (modulo the live
    count), ("remove-logged", i, benign) the i-th of the logged ids and
    their hosts, and ("remove-wired", i, benign) the i-th of the other
    live ids, each the i-th live id if there is none; and ("snapshot", _, _)
    takes a snapshot, one row per id issued, the previous snapshot's sums
    included. The comparison reads a copy of the slab topology, which
    wires the copy's log, so the run keeps its arrivals logged until one of
    its own reads wires them. Returns what the run
    covered: each `_settle` pass's row moves, labelled by the kind of
    arrival they host, the rebuilds the sampler starts and those the ops
    force, and the removals of logged ids and hosts."""
    t, ref = build_pair(kind, n, param, seed)
    rng_t, rng_ref = oracles.draws(seed + 1), oracles.draws(seed + 1)
    covered: collections.Counter = collections.Counter()
    kind_of: dict[int, str] = {}
    settle, rebuild = graph.Topology._settle, graph.Topology._rebuild_pool

    def traced_settle(self):
        first, starts = len(self._fill), self._start[:]
        u = np.array(self._log_hosts, np.int64)
        v = np.repeat(np.arange(first, first + len(self._log_counts)), self._log_counts)
        settle(self)
        if self is not t:
            return
        for host in set(u[u < first].tolist()):
            if self._start[host] != starts[host]:
                for arrival in {kind_of.get(a, "build") for a in v[u == host].tolist()}:
                    covered[f"{arrival} row moved"] += 1
                    covered[f"{arrival} hub row moved"] += self.degree_of(host) > 4

    def traced_rebuild(self):
        # Only the sampler calls this: the ops' forced rebuilds call
        # `rebuild` itself.
        if self is t:
            covered["rebuild"] += 1
            covered["rebuild with arrivals logged"] += len(self._log_counts) > 0
        rebuild(self)

    oracles.assert_same_topology(copy.deepcopy(t), ref, "after the build")
    check_rows(t)
    with mock.patch.object(graph.Topology, "_settle", traced_settle), \
            mock.patch.object(graph.Topology, "_rebuild_pool", traced_rebuild):
        for step, (op, arg, benign) in enumerate(ops):
            if op in ("grow", "grow+rebuild"):
                for i in range(arg):
                    arrive(t, ref, benign, rng_t, rng_ref, "batch", kind_of, covered)
                    rng_t.random()
                    rng_ref.random()
                    if op == "grow+rebuild" and i == (arg - 1) // 2:
                        covered["forced rebuild"] += 1
                        rebuild(t)
                        ref._rebuild_pool()
            elif op == "attach":
                arrive(t, ref, arg, rng_t, rng_ref, "rejoin", kind_of, covered)
            elif op.startswith("remove") and t.node_count > 1:
                wired = len(t._fill)
                logged = t._pending_hosts | set(range(wired, t.next_id))
                live = t.live_ids().tolist()
                pick = {"remove": live, "remove-logged": sorted(logged.intersection(live)),
                        "remove-wired": [v for v in live if v not in logged]}[op] or live
                v = pick[arg % len(pick)]
                covered["benign" if benign else "plain"] += 1
                covered["logged id removed"] += v >= wired
                covered["logged host removed"] += v in t._pending_hosts
                graph.remove_node(t, v, benign)
                ref.remove_node(v, benign)
            elif op == "snapshot":
                for name, got, want in zip(("prev", "ndsum", "gained", "lost"),
                                           t.neighbor_degree_array(), ref.snapshot()):
                    np.testing.assert_array_equal(got, want, err_msg=f"{name} at step {step}")
                check_rows(t, after_snapshot=True)
                covered["snapshot"] += 1
            check_rows(t)
            oracles.assert_same_topology(copy.deepcopy(t), ref, f"at step {step}")
    return covered


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.integers(0, 5), st.just(False)),
        st.tuples(st.sampled_from(["grow", "grow+rebuild"]), st.integers(0, 8), st.integers(0, 5)),
        st.tuples(st.sampled_from(["remove", "remove-logged", "remove-wired"]),
                  st.integers(0, 1000), st.booleans()),
        st.just(("snapshot", 0, False)),
    ),
    max_size=50,
)


@hypothesis.settings(deadline=None, database=None)
@hypothesis.given(
    kind=st.sampled_from(["scale_free", "regular"]),
    n=st.integers(8, 24),
    param=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    ops=OPS,
)
def test_slab_matches_the_reference_model(kind, n, param, seed, ops):
    # A regular overlay takes degree 2, 4 or 6, so that n * degree is even.
    run_against_reference(kind, n, param if kind == "scale_free" else 2 * param, seed, ops)


def test_the_reference_run_reaches_moves_and_the_isolated_fill():
    # The runner above, on fixed sequences: hub rows outgrow their
    # capacity when rejoins and growth are wired, the sampler rebuilds the
    # pool (which rewrites the slab), once with a rejoin still logged after
    # departures of wired nodes staled the pool, a rebuild is also forced
    # in the middle of growth, attaches ask for more hosts than there are
    # linked nodes, and logged ids and hosts of logged arrivals are removed
    # before any snapshot, on both generators.
    grow_then_shrink = (
        [("attach", 3, False), ("remove-logged", 0, True), ("attach", 2, False),
         ("remove-logged", -1, False)]
        + [("attach", 3, False)] * 12
        + [("snapshot", 0, False)]
        + [("remove", 7 * i, i % 2 == 0) for i in range(25)]
        + [("attach", 5, False), ("snapshot", 0, False), ("attach", 4, False)] * 3
        + [("grow", 8, 3), ("grow", 6, 2), ("snapshot", 0, False)]
        + [("remove", 5 * i, i % 2 == 1) for i in range(10)]
        + [("grow", 3, 3), ("grow+rebuild", 5, 2)]
        + [("remove", 3 * i, False) for i in range(20)]
        + [("grow", 3, 5), ("snapshot", 0, False), ("grow", 4, 4)]
        + [("snapshot", 0, False), ("grow", 10, 2), ("snapshot", 0, False), ("attach", 1, False)]
        + [("remove-wired", 3 * i, i % 2 == 0) for i in range(4)]
        + [("attach", 3, False)]
    )
    for kind, param in (("scale_free", 2), ("regular", 4)):
        covered = run_against_reference(kind, 16, param, 3, grow_then_shrink)
        for what in ("rejoin row moved", "rejoin hub row moved", "batch row moved", "rebuild",
                     "rebuild with arrivals logged", "forced rebuild", "isolated fill", "benign",
                     "plain", "logged id removed", "logged host removed"):
            assert covered[what] > 0, (kind, what, covered)


def test_slab_dead_space_stays_bounded_under_departures():
    # Rejoins move full rows and leave the old space behind, and removed
    # nodes leave their rows; every pool rebuild rewrites the slab without
    # them. Over a departures run the slab stays within 4 entries per live
    # edge end after every step (without the rewrite it reaches 9).
    sim = Simulation(SimConfig(topology="regular", n=2000, degree=6, legit_departure_prob=0.002,
                               gossip_noise=0.05, iterations=0, seed=0))
    t = sim.topology
    rebuild, rebuilds = t._rebuild_pool, []
    t._rebuild_pool = lambda: rebuilds.append(rebuild())
    worst = 0.0
    for _ in range(300):
        sim.step()
        worst = max(worst, len(t._slab) / (2 * t.edge_count))
    assert t.node_count < 1600 and t.next_id > 3500  # departures and rejoins happened
    assert len(rebuilds) > 3
    assert worst <= 4.0, worst
