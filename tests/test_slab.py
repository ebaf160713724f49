"""The neighbor slab of `graph.Topology` against the dict-of-sets reference
model (`oracles.RefTopology`): random sequences of node events, growth
batches and snapshots on both generators, with the slab's own invariants
checked after every event. `--hypothesis-profile=ci` (see conftest.py)
runs more examples."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import oracles
from p2psim import graph
from p2psim.engine import SimConfig, Simulation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def check_rows(t: graph.Topology, after_snapshot: bool = False) -> None:
    """Every live row lies inside the slab with its fill within its
    capacity, no two live rows overlap, a row's live entries are distinct
    and number the node's degree, and a removed id has degree 0 and no pool
    copies. Right after a snapshot no live row holds a removed id."""
    spans = []
    for v in range(t.next_id):
        if v not in t:
            assert t.degree_of(v) == 0 == t._pool_copies[v], v
            continue
        s, f, c = t._start[v], t._fill[v], t._cap[v]
        assert 0 <= s and f <= c and s + c <= len(t._slab), v
        row = t._slab[s : s + f].tolist()
        live = [u for u in row if u in t]
        assert len(set(live)) == len(live) == t.degree_of(v), v
        if after_snapshot:
            assert live == row, f"tombstone left in the row of {v}"
        if c:
            spans.append((s, s + c))
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


def grow_both(t: graph.Topology, ref: oracles.RefTopology, count: int, k: int, rng_t, rng_ref,
              rebuild_at: int | None, covered: collections.Counter) -> None:
    """One growth batch of `count` arrivals with `k` hosts each: through
    `attach_batch` on the slab, one `attach` at a time on the reference,
    with one `random()` after each arrival standing in for the honesty
    draw. If `rebuild_at` is set, both models rebuild their pools right
    after that arrival, while the batch is still unwired on the slab:
    growth removes nothing, so the sampler's own rebuild can only fire at a
    batch's first arrival, before anything is pending."""
    first, starts = t.next_id, list(t._start)
    rebuilds = len(t._pool) > 0 and t._pool_stale > 0.25 * len(t._pool)
    linked = [t.node_count - t.isolated_count]  # before each arrival

    def then():
        rng_t.random()
        linked.append(t.node_count - t.isolated_count)
        if len(linked) - 2 == rebuild_at:
            t._rebuild_pool()

    flat, counts = t.attach_batch(count, k, rng_t, then)
    hosts = [h.tolist() for h in np.split(flat, np.cumsum(counts)[:-1])] if count else []
    for i in range(count):
        assert ref.attach(k, rng_ref) == (first + i, hosts[i]), i
        rng_ref.random()
        if i == rebuild_at:
            ref._rebuild_pool()
    covered["batch isolated fill"] += any(len(h) > n for h, n in zip(hosts, linked))
    covered["batch rebuild"] += rebuilds and count > 0
    covered["pending rebuild"] += rebuild_at is not None and count > 0
    if not rebuilds and rebuild_at is None:
        covered["batch row moved"] += sum(
            t._start[u] != starts[u] for u in {u for h in hosts for u in h if u < first}
        )


def run_against_reference(kind: str, n: int, param: int, seed: int, ops) -> collections.Counter:
    """Drive both models through `ops` and compare them after every op:
    ("attach", count, _) attaches with `count` hosts, ("grow", count, k)
    runs a growth batch of `count` arrivals with `k` hosts each and
    ("grow+rebuild", count, k) one whose pools are rebuilt after its middle
    arrival (see `grow_both`), ("remove", i, benign) removes the i-th live
    id (modulo the live count) and ("snapshot", k, _) snapshots at
    next_id + k. Returns what the run covered."""
    t, ref = build_pair(kind, n, param, seed)
    rng_t, rng_ref = oracles.draws(seed + 1), oracles.draws(seed + 1)
    covered: collections.Counter = collections.Counter()
    oracles.assert_same_topology(t, ref, "after the build")
    check_rows(t)
    for step, (op, arg, benign) in enumerate(ops):
        if op in ("grow", "grow+rebuild"):
            rebuild_at = (arg - 1) // 2 if op == "grow+rebuild" else None
            grow_both(t, ref, arg, benign, rng_t, rng_ref, rebuild_at, covered)
        elif op == "attach":
            linked = t.node_count - t.isolated_count
            starts = list(t._start)
            rebuilds = len(t._pool) > 0 and t._pool_stale > 0.25 * len(t._pool)
            v, hosts = t.attach(arg, rng_t)
            assert (v, hosts) == ref.attach(arg, rng_ref), step
            covered["isolated fill"] += len(hosts) > linked
            covered["rebuild"] += rebuilds
            if not rebuilds:
                moved = [u for u in hosts if t._start[u] != starts[u]]
                covered["row moved"] += len(moved)
                covered["hub row moved"] += any(t.degree_of(u) > 4 for u in moved)
        elif op == "remove" and t.node_count > 1:
            v = int(t.live_ids()[arg % t.node_count])
            covered["benign" if benign else "plain"] += 1
            graph.remove_node(t, v, benign)
            ref.remove_node(v, benign)
        elif op == "snapshot":
            size = t.next_id + arg
            for got, want in zip(t.neighbor_degree_array(size), ref.snapshot(size)):
                np.testing.assert_array_equal(got, want, err_msg=f"step {step}")
            check_rows(t, after_snapshot=True)
            covered["snapshot"] += 1
        oracles.assert_same_topology(t, ref, f"at step {step}")
        check_rows(t)
    return covered


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.integers(0, 5), st.just(False)),
        st.tuples(st.sampled_from(["grow", "grow+rebuild"]), st.integers(0, 8), st.integers(0, 5)),
        st.tuples(st.just("remove"), st.integers(0, 1000), st.booleans()),
        st.tuples(st.just("snapshot"), st.integers(0, 2), st.just(False)),
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
    # capacity, the pool is rebuilt (which rewrites the slab), and attaches
    # ask for more hosts than there are linked nodes, on both generators;
    # the same for growth batches, whose pools are also rebuilt with
    # arrivals still unwired.
    grow_then_shrink = (
        [("attach", 3, False)] * 12
        + [("snapshot", 1, False)]
        + [("remove", 7 * i, i % 2 == 0) for i in range(25)]
        + [("attach", 5, False), ("snapshot", 0, False), ("attach", 4, False)] * 3
        + [("grow", 8, 3), ("grow", 6, 2), ("snapshot", 0, False)]
        + [("remove", 5 * i, i % 2 == 1) for i in range(10)]
        + [("grow", 3, 3), ("grow+rebuild", 5, 2)]
        + [("remove", 3 * i, False) for i in range(20)]
        + [("grow", 3, 5), ("snapshot", 0, False), ("grow", 4, 4)]
    )
    for kind, param in (("scale_free", 2), ("regular", 4)):
        covered = run_against_reference(kind, 16, param, 3, grow_then_shrink)
        for what in ("hub row moved", "rebuild", "isolated fill", "benign", "plain",
                     "batch rebuild", "pending rebuild", "batch row moved", "batch isolated fill"):
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
