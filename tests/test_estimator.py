from __future__ import annotations

import collections
import math

import numpy as np
import pytest

import oracles
from oracles import (
    DegenerateAverageError,
    EmptyNeighborhoodError,
    EstimatorState,
    NeighborhoodObservation,
)
from p2psim import estimator, graph, payoff
from p2psim.agents import Role
from p2psim.engine import SimConfig, Simulation
from p2psim.estimator import EstimatorArrays


def obs(prev, cur, arrivals, legit, growth, neighbor=0):
    return NeighborhoodObservation(neighbor, prev, cur, arrivals, legit, growth)


# ---- local growth -----------------------------------------------------


def test_local_growth_rate():
    assert oracles.local_growth_rate(6, 6, 1000, 1000) == 1.0
    assert oracles.local_growth_rate(6, 6, 1020, 1000) == pytest.approx(1.02)
    assert oracles.local_growth_rate(3, 6, 1020, 1000) == pytest.approx(0.51)
    with pytest.raises(DegenerateAverageError):
        oracles.local_growth_rate(3, 0, 1000, 1000)
    with pytest.raises(ValueError):
        oracles.local_growth_rate(3, 6, 1000, 0)


def test_local_growth_shares_sum_to_global_arrivals():
    """Summing each node's localized expected arrivals over the network
    recovers the global arrival count (degrees sum to n * d_avg)."""
    rng = np.random.default_rng(3)
    degrees = rng.integers(1, 20, size=500)
    d_avg = degrees.mean()
    n_prev, n_cur = 1000, 1020
    shares = [
        n_prev * (oracles.local_growth_rate(d, d_avg, n_cur, n_prev) - 1) / 500
        for d in degrees
    ]
    assert sum(shares) == pytest.approx(n_cur - n_prev, rel=1e-9)


# ---- departure classification ------------------------------------------


def test_classify_departure():
    assert estimator.legitimacy_threshold(0.5, 0.03) == 0.265
    # The engine books a whitewasher's departure as benign at each of its
    # neighbors exactly when its reputation reaches the threshold.
    for rep, legit in ((0.5, True), (0.265, True), (0.26499, False), (0.0, False)):
        sim = Simulation(SimConfig(n=30, degree=4, topology="regular", iterations=0))
        assert (sim.r_est, sim.cfg.r_ini_min) == (0.5, 0.03)
        sim.reputation[oracles.rows(sim, 0)] = rep
        neighbors = set(sim.topology.neighbors(0))
        sim.force_whitewash(0)
        booked = oracles.books(sim.topology).benign_gone
        assert booked == (dict.fromkeys(neighbors, 1) if legit else {}), rep


# ---- whitewash level ----------------------------------------------------


def test_whitewash_level_zero_when_explained():
    observations = [
        obs(100, 100, 3, 3, 1.0),
        obs(50, 50, 1, 1, 1.0),
    ]
    assert oracles.whitewash_level(observations) == 0.0


def test_whitewash_level_single_neighbor():
    w = oracles.whitewash_level([obs(100, 103, 5, 2, 1.01)])
    assert w == pytest.approx(2 / 103)


def test_whitewash_level_clamps():
    assert oracles.whitewash_level([obs(100, 100, 0, 5, 1.0)]) == 0.0
    assert oracles.whitewash_level([obs(2, 2, 50, 0, 1.0)]) == 1.0


def test_whitewash_level_empty_neighborhood():
    with pytest.raises(EmptyNeighborhoodError):
        oracles.whitewash_level([])
    with pytest.raises(EmptyNeighborhoodError):
        oracles.whitewash_level([obs(0, 0, 0, 0, 1.0)])


def test_quiet_neighbor_dilutes_the_level():
    base = [obs(100, 103, 5, 2, 1.01)]
    diluted = base + [obs(50, 50, 0, 0, 1.0)]
    assert oracles.whitewash_level(diluted) < oracles.whitewash_level(base)
    assert oracles.whitewash_level(diluted) == pytest.approx(2 / 153)


# ---- sliding window -----------------------------------------------------


def test_fresh_state_assumes_the_worst():
    st = EstimatorState(0, 0.5, 0.03)
    assert st.w_max == 0.5
    assert st.current_offer == 0.5


def test_window_max_and_eviction():
    st = EstimatorState(0, 0.5, 0.03, window_size=3)
    for w in (0.1, 0.3, 0.2):
        oracles.update_w_max(st, w)
    assert list(st.w_window) == [0.1, 0.3, 0.2]  # priming entry evicted
    assert st.w_max == 0.3
    oracles.update_w_max(st, 0.05)
    assert st.w_max == 0.3
    oracles.update_w_max(st, 0.05)
    assert st.w_max == pytest.approx(0.2)  # the 0.3 peak aged out
    with pytest.raises(ValueError):
        oracles.update_w_max(st, 1.5)


# ---- offer computation ---------------------------------------------------


def test_initial_reputation_endpoints():
    st = EstimatorState(0, 0.5, 0.03)
    assert oracles.initial_reputation(st, 0.0) == 0.5
    assert oracles.initial_reputation(st, st.w_max) == 0.03
    assert st.current_offer == 0.03


def test_initial_reputation_halfway_is_quarter_max():
    st = EstimatorState(0, 0.5, 0.03)
    assert oracles.initial_reputation(st, st.w_max / 2) == pytest.approx(0.125)


def test_initial_reputation_overflow_treated_as_max():
    st = EstimatorState(0, 0.5, 0.03, window_size=2)
    oracles.update_w_max(st, 0.2)
    oracles.update_w_max(st, 0.2)
    assert st.w_max == pytest.approx(0.2)
    assert oracles.initial_reputation(st, 0.7) == 0.03


def test_initial_reputation_quiet_network():
    st = EstimatorState(0, 0.5, 0.03)
    st.w_max = 0.0  # a long quiet stretch can empty the window of peaks
    assert oracles.initial_reputation(st, 0.0) == 0.5


def test_initial_reputation_monotone_and_bounded():
    st = EstimatorState(0, 0.5, 0.03)
    ws = np.linspace(0, 1, 101)
    offers = [oracles.initial_reputation(st, float(w)) for w in ws]
    assert all(a >= b for a, b in zip(offers, offers[1:]))
    assert all(0.03 <= o <= 0.5 for o in offers)


def test_offer_curve_squares_with_float_power():
    # 1 - ratio = 0.37796883434360806, where x * x rounds one ulp below x ** 2
    ratio = 0.6220311656563919
    base = 1.0 - ratio
    assert base * base != base**2
    assert estimator.offer_curve(ratio, 1.0, 0.0) == base**2
    assert estimator.offer_curve(1.0, 0.5, 0.03) == 0.03
    # A float gives a float (numpy 2 prints np.float64 differently), an
    # array the array of the same offers.
    assert type(estimator.offer_curve(ratio, 1.0, 0.0)) is float
    offers = estimator.offer_curve(np.array([ratio, 1.0]), 1.0, 0.03)
    assert offers.tolist() == [base**2, 0.03]


def test_float_power_is_python_float_power_bit_for_bit():
    # offer_curve squares through np.float_power because it calls libm's pow
    # once per element, as Python's float power does; np.power with the
    # scalar exponent 2.0 squares as x * x, which rounds apart from pow on
    # the tricky bases below. If a numpy release vectorizes float_power,
    # this test should fail before the recorded digests do. The bases: the
    # tricky ones the tests of this module use, the endpoints and the
    # smallest and largest bases below 1, and 10^5 seeded uniforms.
    tricky = [0.6220311656563919]
    for seed, high, count in ((3, 0.7, 100_000), (5, 1.0, 20_000)):
        ratios = np.random.default_rng(seed).uniform(0.0, high, count).tolist()
        tricky += [r for r in ratios if (1 - r) * (1 - r) != (1 - r) ** 2]
    bases = np.array(
        [1 - r for r in tricky]
        + [0.0, 0.5, 1.0, 5e-324, 1 - 2**-53]
        + np.random.default_rng(23).uniform(0.0, 1.0, 100_000).tolist()
    )
    want = [b**2 for b in bases.tolist()]
    assert float_bits(np.float_power(bases, 2.0)) == float_bits(want)
    assert (np.power(bases, 2.0) != want).any()
    # offer_curve squares a lone ratio with Python's float power and an
    # array with np.float_power: each base, and each tricky ratio, as a
    # ratio gives the same bits as a Python float, as an np.float64 and in
    # an array, and a lone ratio gives a Python float.
    ratios = np.concatenate((tricky, bases))
    offers = estimator.offer_curve(ratios, 1.0, 0.0)
    for lone, kind in ((ratios.tolist(), float), (list(ratios), np.float64)):
        assert {type(r) for r in lone} == {kind}
        got = [estimator.offer_curve(r, 1.0, 0.0) for r in lone]
        assert {type(v) for v in got} == {float}
        assert float_bits(got) == float_bits(offers)


def plain_curve(ratio: float, r_max: float, r_min: float) -> float:
    """The quadratic offer as one scalar Python expression: the reference
    for both forms of `offer_curve`."""
    return max((1.0 - ratio) ** 2 * r_max, r_min)


def float_bits(values) -> bytes:
    """The float64 bytes of `values`, which tell signed zeros apart."""
    return np.asarray(values, dtype=np.float64).tobytes()


# ---- array sweep against the scalar oracle --------------------------------


def window_rows(est: EstimatorArrays) -> np.ndarray:
    """Every node's window as one row, in ring-slot order."""
    return np.column_stack(est._ring)


def primed(window: int, size: int, r_est: float) -> EstimatorArrays:
    """An estimator over the ids 0 to `size` - 1, every one of them primed
    at `r_est` as the engine registers its founders."""
    est = EstimatorArrays(window)
    est.prime(slice(0, size), r_est)
    return est


def test_estimator_arrays_match_scalar_oracle():
    # Seeded random churn on a graph that grows and shrinks between sweeps.
    # The churn maps are made by hand, counts 1 to 3 with hosts that depart
    # before the sweep, and summed by the oracle, so the kernel sees churn
    # no node event would book. After every sweep each live node's window
    # peak and offer must equal a scalar EstimatorState fed the same
    # levels, zero for the nodes the sweep left out, and the returned sums
    # must add in ascending-id order.
    rng = oracles.GeneratorDraws(np.random.default_rng(21))
    window, r_min, r_est = 4, 0.03, 0.5
    t = graph.generate_scale_free(30, 2, rng)
    t.neighbor_degree_array()  # the first sweep's baseline
    est = primed(window, t.rows, r_est)
    oracle = {v: EstimatorState(v, r_est, r_min, window) for v in t.live_ids().tolist()}
    removed = added = quiet_then_busy = 0
    for step in range(80):
        arrivals: dict[int, int] = {}
        legit: dict[int, int] = {}
        if step % 9 < 6:  # three quiet sweeps in every nine
            for j in rng.choice(t.live_ids(), size=4).tolist():
                arrivals[j] = arrivals.get(j, 0) + int(rng.integers(1, 4))
            for j in rng.choice(t.live_ids(), size=2).tolist():
                legit[j] = legit.get(j, 0) + 1
        # Mutate after the churn was booked: a departed host drops out, and
        # new nodes are primed with whatever the ceiling is now.
        for _ in range(int(rng.integers(0, 2))):
            victim = int(rng.choice(t.live_ids()))
            graph.remove_node(t, victim)
            est.retire(victim)
            del oracle[victim]
            removed += 1
        r_est = float(rng.uniform(0.1, 0.6))
        for _ in range(int(rng.integers(0, 3))):
            vid, _ = t.attach(2, rng)
            est.prime(slice(vid, vid + 1), r_est)
            oracle[vid] = EstimatorState(vid, r_est, r_min, window)
            added += 1
        coef = float(rng.uniform(-0.02, 0.05))
        # The snapshot's own churn is set aside for the hand-made maps.
        prev, ndsum, _, _ = t.neighbor_degree_array()
        gained, lost = (oracles.churn_sums(t, m) for m in (arrivals, legit))
        swept, w_sum, wmax_sum, offer_sum = est.sweep(prev, ndsum, gained, lost, coef, r_est,
                                                      r_min)
        levels = oracles.sweep_levels(est)
        assert swept == len(levels)
        windows = window_rows(est)
        sums = [0.0, 0.0, 0.0]
        for v in sorted(oracle):
            st = oracle[v]
            was_quiet = st.w_max == 0
            w = levels.get(v, 0.0)
            if v not in levels:
                assert was_quiet, f"node {v} skipped with a live window"
            elif was_quiet and w > 0:
                quiet_then_busy += 1
            peak = oracles.update_w_max(st, w)
            assert windows[v].max() == est._peak[v] == peak
            st.r_ini_max = r_est
            assert est.offers[v] == oracles.initial_reputation(st, w)
            if v in levels:
                sums[0] += w
                sums[1] += peak
                sums[2] += est.offers[v]
        assert [w_sum, wmax_sum, offer_sum] == sums
    assert removed > 10 and added > 20 and quiet_then_busy > 10
    assert len(est._peak) > 30  # ids outran the first allocation


def test_shared_ratios_get_the_offer_curve_of_each_node():
    # The sweep evaluates offer_curve once over every hot node's ratio, and
    # each node must get the scalar curve of its own ratio. With a unit
    # neighborhood, no growth term and a window peak of 1.0, each node's
    # ratio is the churn sum it is given, so hundreds of nodes can share one
    # ratio exactly.
    rng = np.random.default_rng(3)
    # A base where x * x and x ** 2 round apart: numpy's square of the
    # whole array would give this node a different offer.
    tricky = next(
        r for r in rng.uniform(0.0, 0.7, 100_000).tolist() if (1 - r) * (1 - r) != (1 - r) ** 2
    )
    r_est, r_min = 0.5, 0.03
    squared = (1 - tricky) * (1 - tricky)
    assert max(squared * r_est, r_min) != estimator.offer_curve(tricky, r_est, r_min)
    levels = np.array(
        [tricky] * 300 + [1.0] * 60 + [0.25] * 200 + [0.0] * 40
        + rng.uniform(0.001, 0.999, 300).tolist()
    )
    rng.shuffle(levels)
    size = len(levels)
    est = primed(2, size, 1.0)
    ones = np.ones(size, dtype=np.int64)
    swept, _, _, offer_sum = est.sweep(ones, ones, levels, np.zeros(size), 0.0, r_est, r_min)
    assert swept == size
    expected = [estimator.offer_curve(w, r_est, r_min) if w > 0 else r_est for w in levels.tolist()]
    for v, offer in enumerate(expected):
        assert est.offers[v] == offer, (v, levels[v])
    assert offer_sum == sum(expected)


def test_sweep_offers_are_the_scalar_curve_bit_for_bit():
    # Levels drawn from a few values, so that hundreds of nodes share each
    # ratio; the values mix bases where x * x and x ** 2 round apart, ratio
    # 1.0 (a zero square, which meets an r_min of 0.0 or -0.0 in a tie that
    # max settles for its first operand) and arbitrary ratios. Each node's
    # offer, and offer_curve of each value as a float, must be the scalar
    # curve of its ratio to the bit. As in the test above, each node's
    # ratio is its level.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rng = np.random.default_rng(5)
    tricky = [
        r for r in rng.uniform(0.0, 1.0, 20_000).tolist() if (1 - r) * (1 - r) != (1 - r) ** 2
    ]
    assert len(tricky) > 5
    ratios = st.sampled_from([1.0, 0.0] + tricky) | st.floats(0.0, 1.0)
    bounds = st.sampled_from([0.0, -0.0, 0.03, 0.5, 1.0]) | st.floats(0.0, 1.0)

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(
        values=st.lists(ratios, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=400),
        r_est=bounds,
        r_min=bounds,
    )
    def check(values, picks, r_est, r_min):
        levels = np.array([values[i % len(values)] for i in picks])
        size = len(levels)
        est = primed(2, size, 1.0)
        ones = np.ones(size, dtype=np.int64)
        est.sweep(ones, ones, levels, np.zeros(size), 0.0, r_est, r_min)
        want = [plain_curve(w, r_est, r_min) if w > 0 else r_est for w in levels.tolist()]
        assert float_bits(est.offers) == float_bits(want)
        for w in values:
            got = estimator.offer_curve(w, r_est, r_min)
            assert type(got) is float and float_bits(got) == float_bits(plain_curve(w, r_est, r_min))

    check()


def test_sweep_reads_only_the_issued_rows_and_keeps_its_own_baseline():
    # An estimator sees churn on a scale-free overlay that grows and
    # shrinks between sweeps, through snapshots one row per id issued. An
    # explicit `reserve` keeps its arrays ahead of the ids, so they often
    # hold spare rows past the last id: no sweep may write them, in the
    # ring, the peaks or the offers. The snapshot's neighbor-degree sums
    # are a view of the topology's own array, which the next snapshot
    # overwrites, so the baseline the snapshot hands the sweep must be an
    # array of its own: it never shares memory with the topology, and it
    # holds the sums of the previous snapshot, zero at the ids issued since.
    rng = oracles.GeneratorDraws(np.random.default_rng(29))
    r_est, r_min = 0.5, 0.03
    t = graph.generate_scale_free(30, 2, rng)
    last = t.neighbor_degree_array()[1].copy()
    est = primed(3, t.rows, r_est)
    seen = collections.Counter()
    for _ in range(60):
        for _ in range(int(rng.integers(0, 3))):
            victim = int(rng.choice(t.live_ids()))
            graph.remove_node(t, victim, bool(rng.integers(2)))
            est.retire(victim)
        r_est = float(rng.uniform(0.1, 0.6))
        est.reserve(2 * t.next_id)
        for _ in range(int(rng.integers(0, 5))):
            vid, _ = t.attach(2, rng)
            est.prime(slice(vid, vid + 1), r_est)
        end = t.next_id
        snapshot = t.neighbor_degree_array()
        assert {len(a) for a in snapshot} == {end}
        prev, ndsum = snapshot[:2]
        assert not np.shares_memory(prev, t._nds)
        np.testing.assert_array_equal(prev[: len(last)], last)
        assert not prev[len(last) :].any()
        spare = [a[end:].copy() for a in (*est._ring, est._peak, est.offers)]
        seen["spare rows"] += len(est._peak) > end
        got = est.sweep(*snapshot, float(rng.uniform(-0.02, 0.05)), r_est, r_min)
        for before, after in zip(spare, (*est._ring, est._peak, est.offers)):
            assert float_bits(after[end:]) == float_bits(before)
        seen["hot"] += got[1] > 0
        last = ndsum.copy()
        assert not np.shares_memory(prev, t._nds)
    assert seen["spare rows"] > 10 and seen["hot"] > 10, seen


def test_incremental_peak_is_the_row_max():
    # The sweep keeps each node's window peak and counts a row again only
    # when its overwritten slot held the peak. Levels on a coarse grid make
    # every tie common: the overwritten slot equal to the new level, and the
    # peak held in two slots when one of them is overwritten. After every
    # sweep each live node's kept peak must equal the full row max, a removed
    # node's peak must be zero, the sweep must take exactly the nodes whose
    # window held a level or that saw churn, and the returned sums must add
    # the levels and the row maxima in ascending-id order. New nodes are
    # primed at whatever slot the ring has reached, and one window is a
    # single slot.
    grid = [0.0, 0.25, 0.5, 1.0]
    seen = collections.Counter()
    for window in (1, 2, 3, 5):
        rng = np.random.default_rng(window)
        est = primed(window, 30, 0.5)
        live, retired, next_id = list(range(30)), [], 30
        for step in range(60):
            if step % 4 == 3:
                r_est = grid[int(rng.integers(1, 4))]
                est.prime(slice(next_id, next_id + 1), r_est)
                seen["primed mid-window"] += est._slot % window != 0
                live.append(next_id)
                next_id += 1
            if step % 5 == 4:
                retired.append(live.pop(int(rng.integers(len(live)))))
                est.retire(retired[-1])
                seen["retired"] += 1
            size = next_id
            gained = np.zeros(size)
            for v in rng.choice(live, size=len(live) // 2, replace=False).tolist():
                gained[v] = grid[int(rng.integers(4))]
            before, slot = window_rows(est), est._slot % window
            due = {v for v in live if before[v].max() > 0} | set(np.flatnonzero(gained).tolist())
            ones = np.ones(size, dtype=np.int64)
            swept, w_sum, wmax_sum, _ = est.sweep(ones, ones, gained, np.zeros(size), 0.0, 0.5,
                                                  0.03)
            swept_levels = oracles.sweep_levels(est)
            ids = np.array(list(swept_levels), dtype=np.int64)
            levels = np.array(list(swept_levels.values()))
            evicted, old_peak = before[ids, slot], before[ids].max(axis=1)
            held_twice = (before[ids] == old_peak[:, None]).sum(axis=1) > 1
            seen["evicted equals level"] += int(((evicted == levels) & (levels > 0)).sum())
            seen["peak evicted, held twice"] += int(
                ((evicted == old_peak) & (levels < old_peak) & held_twice).sum()
            )
            seen["peak evicted, fell"] += int(
                ((evicted == old_peak) & (levels < old_peak) & ~held_twice).sum()
            )
            seen["window of one"] += window == 1
            row_max = window_rows(est).max(axis=1)
            np.testing.assert_array_equal(est._peak[live], row_max[live], err_msg=f"window {window}")
            assert not est._peak[retired].any()
            assert ids.tolist() == sorted(due) and swept == len(ids)
            assert w_sum == sum(levels.tolist())
            assert wmax_sum == sum(row_max[ids].tolist())
    assert len(seen) == 6 and min(seen.values()) > 0, seen


def test_shrink_correction_depends_on_sweep_membership():
    # Evidence, not a rule: this pins today's values. When the overlay
    # shrinks, the growth coefficient is negative, so a node with no churn
    # that is still swept (its window holds a level) gets the level
    # -coef * prev / den > 0, while a node in the same position whose window
    # is all zero is left out of the sweep and gets 0. Skipping a quiet
    # node is then not the same as pushing the level it would see. Fixing
    # this moves recorded digests (ROADMAP item 5).
    sim = Simulation(SimConfig(topology="regular", n=200, degree=6, iterations=0, seed=0))
    sim.auto_whitewash = False
    t, est = sim.topology, sim._est
    for _ in range(12):
        sim.step()
    assert not est._peak[oracles.rows(sim, t.live_ids())].any()  # the primes have aged out
    washer = min(
        v for v in t.live_ids().tolist()
        if sim.role_code[oracles.rows(sim, v)] == Role.POTENTIAL_WHITEWASHER
    )
    sim.force_whitewash(washer)
    for _ in range(4):  # the rejoin's neighborhood keeps a level in its window
        sim.step()
    active = {v for v in t.live_ids().tolist() if est._peak[oracles.rows(sim, v)] > 0}
    assert len(active) == 19
    # One benign departure out of reach of every active node.
    leaver = next(
        v for v in t.live_ids().tolist()
        if v not in active
        and not any(active.intersection(t.neighbors(u)) or u in active for u in t.neighbors(v))
    )
    live = t.live_ids()
    prev = dict(zip(live.tolist(), t._nds[oracles.rows(sim, live)].tolist()))
    graph.remove_node(t, oracles.rows(sim, leaver), True)
    sim.role_code[oracles.rows(sim, leaver)] = 0
    est.retire(oracles.rows(sim, leaver))
    coef = (199.0 / 200.0 - 1.0) * sim.cfg.attach_edges / (2.0 * t.edge_count / 199.0)
    sim.step()
    by_row = oracles.sweep_levels(sim._est)
    row = dict(zip(t.live_ids().tolist(), oracles.rows(sim, t.live_ids()).tolist()))
    levels = {v: by_row[r] for v, r in row.items() if r in by_row}
    quiet = [v for v in t.live_ids().tolist() if prev[v] == oracles.neighbor_degree_sum(t, v)]
    busy = [v for v in quiet if v in levels and levels[v] > 0]
    left_out = [v for v in quiet if v not in levels]
    assert sorted(busy) == sorted(active)
    for v in busy:
        assert levels[v] == (0.0 - coef * prev[v]) / prev[v] == 0.0025253807106599005
        assert est.offers[row[v]] < sim.r_est
    assert len(left_out) == 145
    assert sum(1 for v in t.live_ids().tolist() if v not in levels) == 151
    for v in left_out:
        assert est.offers[row[v]] == sim.r_est


# ---- offer floor calibration ----------------------------------------------


def test_frontier_floor_approaches_frontier_for_huge_budget():
    r = payoff.r_ini_min_from_frontier(0.5, round_budget=10**9)
    r_star, _ = payoff.max_feasible_r_ini(0.5)
    assert r == pytest.approx(r_star, abs=1e-3)


def test_frontier_floor_zero_for_tiny_budget():
    assert payoff.r_ini_min_from_frontier(0.5, round_budget=1) == 0.0


def test_frontier_floor_default_budget():
    r = payoff.r_ini_min_from_frontier(0.5)
    assert 0 < r < 0.036
    # cross-check against the round-walking solver: some exponent meets the
    # budget just below the floor, none does just above it
    def best_k(r_ini):
        best = math.inf
        for x in np.arange(0.05, 1.0, 0.01):
            p = payoff.PayoffParams(mu=0.5, x=float(x), r_ini=r_ini, delta=0.0)
            try:
                k = payoff.crossover_round(p, payoff.IdentityRegime.ZERO_COST, cap=10000)
            except payoff.CrossoverCapExceeded:
                continue
            if k != math.inf:
                best = min(best, k)
        return best

    assert best_k(r * 0.999) <= 50
    assert best_k(r * 1.01) > 50
