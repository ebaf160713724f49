from __future__ import annotations

import collections

import numpy as np
import pytest

import oracles
from oracles import NeighborhoodObservation
from p2psim import engine
from p2psim import graph as graph_mod
from p2psim.agents import Role
from p2psim.engine import SimConfig, Simulation
from p2psim.estimator import legitimacy_threshold

MU_X = 0.5**0.5  # stationary cooperative reputation at the defaults


def live_with_role(sim: Simulation, role: Role) -> list[int]:
    """Ascending live ids whose role code is `role`."""
    return [v for v in sim.topology.live_ids().tolist() if sim.role_code[v] == role]


def check_roles_and_records(sim: Simulation) -> None:
    """`role_code` is nonzero exactly on the live ids, every array indexed
    by node id has a row for every id issued, a live potential
    whitewasher's successes never exceed its attempts, and the wave would
    poll live potential whitewashers only."""
    code = sim.role_code
    assert np.flatnonzero(code).tolist() == sim.topology.live_ids().tolist()
    end = sim.topology.next_id
    for name in engine._ID_ROWS:
        assert len(getattr(sim, name)) >= end
    washer = code[:end] == Role.POTENTIAL_WHITEWASHER.value
    assert np.all(sim.successes[:end][washer] <= sim.attempts[:end][washer])
    assert set(sim._pollers().tolist()) <= set(np.flatnonzero(washer).tolist())


# ---- configuration ------------------------------------------------------


def test_config_defaults_valid():
    cfg = SimConfig()
    assert cfg.topology == "scale_free"
    assert cfg.n == 1000
    assert cfg.iterations == 500


def test_config_collects_all_problems():
    with pytest.raises(ValueError) as err:
        SimConfig(topology="ring", n=1, x=2.0)
    msg = str(err.value)
    assert "topology" in msg
    assert "n:" in msg
    assert "x:" in msg


def test_config_rejects_inverted_grant_bounds():
    with pytest.raises(ValueError):
        SimConfig(r_ini_max0=0.03, r_ini_min=0.5)


def test_config_allows_disabled_grants():
    cfg = SimConfig(r_ini_max0=0.0, r_ini_min=0.0)
    recs = engine.run(SimConfig(n=60, degree=4, topology="regular", iterations=5,
                                r_ini_max0=0.0, r_ini_min=0.0, seed=1))
    assert cfg.r_ini_max0 == 0.0
    assert all(r.whitewash_attempts == 0 for r in recs)
    assert all(r.whitewash_fraction == 0.0 for r in recs)


# ---- run shape and determinism ------------------------------------------


def test_zero_iterations_returns_empty():
    assert engine.run(SimConfig(n=50, iterations=0)) == []


def test_record_count_and_numbering():
    recs = engine.run(SimConfig(n=100, iterations=7, seed=4))
    assert len(recs) == 7
    assert [r.iteration for r in recs] == list(range(1, 8))
    for r in recs:
        assert r.whitewash_fraction == r.whitewash_successes / r.n_nodes
        assert 0 <= r.whitewash_successes <= r.whitewash_attempts
        assert 0.0 <= r.mean_w_estimate <= 1.0
        assert 0.0 <= r.mean_w_max <= 1.0


def test_reruns_are_identical():
    cfg = SimConfig(n=200, iterations=60, growth_percent_per_10=5.0, seed=11)
    assert engine.run(cfg) == engine.run(cfg)


def test_seed_changes_the_run():
    a = engine.run(SimConfig(n=200, iterations=30, seed=1))
    b = engine.run(SimConfig(n=200, iterations=30, seed=2))
    assert a != b


def test_noise_does_not_break_determinism():
    cfg = SimConfig(n=200, iterations=40, gossip_noise=0.05, seed=9)
    recs = engine.run(cfg)
    assert recs == engine.run(cfg)
    assert all(0.0 <= r.mean_offered_r_ini <= 1.0 for r in recs)


# ---- gossip snapshot ------------------------------------------------------


def test_exact_snapshot_matches_topology():
    t = graph_mod.generate_regular(1000, 6, oracles.draws(2))
    rng = oracles.draws(3)
    assert engine.take_snapshot(t, 0.0, rng) == (1000.0, 6000.0)
    assert rng.bit_generator.state == oracles.draws(3).bit_generator.state  # no draws


def test_noise_bounds_and_independence():
    t = graph_mod.generate_regular(1000, 6, oracles.draws(2))
    rng = np.random.default_rng(17)
    count_factors = []
    degree_factors = []
    for _ in range(1000):
        node_count, degree_sum = engine.take_snapshot(t, 0.05, rng)
        assert 950 <= node_count <= 1050
        assert 5700 <= degree_sum <= 6300
        count_factors.append(node_count / 1000)
        degree_factors.append(degree_sum / 6000)
    # the two factors are drawn independently, so they rarely coincide
    same = sum(abs(a - b) < 1e-12 for a, b in zip(count_factors, degree_factors))
    assert same < 5
    assert np.std(count_factors) > 0.01


# ---- population and growth ----------------------------------------------


def test_zero_growth_keeps_population_flat():
    recs = engine.run(SimConfig(n=300, iterations=50, seed=3))
    assert all(r.n_nodes == 300 for r in recs)


def test_growth_lands_on_every_tenth_iteration():
    recs = engine.run(SimConfig(n=200, iterations=40, growth_percent_per_10=5.0, seed=6))
    sizes = [200] + [r.n_nodes for r in recs]
    for i in range(1, len(sizes)):
        if i % engine.GROWTH_PERIOD == 0:
            assert sizes[i] == sizes[i - 1] + round(sizes[i - 1] * 0.05)
        else:
            assert sizes[i] >= sizes[i - 1]  # whitewashing replaces, never adds
    assert sizes[-1] > 200


def test_transactions_settle_reputations():
    sim = Simulation(SimConfig(n=400, iterations=0, seed=0))
    for _ in range(40):
        sim.step()
    for v in sim.topology.live_ids().tolist():
        expect = 0.0 if sim.role_code[v] == Role.POTENTIAL_WHITEWASHER else MU_X
        assert sim.reputation[v] == pytest.approx(expect, abs=1e-12)


def test_reputation_starts_on_schedule():
    # An identity holds the reputation it was born with (its grant, or a
    # founding agent's drawn start) through iteration joined + 1 and its
    # earned mu^x or 0.0 from joined + 2, except that everyone who joined
    # at iteration 0 switches at iteration 1: the founding agents and a
    # rejoin planted before the first step alike. Join iterations come from
    # the log, not from the engine.
    sim = Simulation(SimConfig(n=200, iterations=0, growth_percent_per_10=5.0, seed=6))
    log = oracles.JoinLog(sim)
    early = log.force_whitewash(live_with_role(sim, Role.COOPERATIVE)[0])
    born = {v: float(sim.reputation[v]) for v in sim.topology.live_ids().tolist()}
    covered = collections.Counter()
    for n in range(1, 31):
        if n == 5:  # plant a rejoin between steps 4 and 5
            late = log.force_whitewash(live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0])
            born[late] = float(sim.reputation[late])
        log.step()
        reputation, code = sim.reputation.tolist(), sim.role_code.tolist()
        for v in sim.topology.live_ids().tolist():
            born.setdefault(v, reputation[v])  # joined during this step
            joined = log.joined_at[v]
            start = joined + 2 if joined else 1
            earned = MU_X if code[v] == Role.COOPERATIVE else 0.0
            assert reputation[v] == (earned if n >= start else born[v]), (n, v)
            if born[v] != earned and n - start in (-1, 0):
                covered[joined > 0, n - start] += 1
        if n == 1:
            assert (born[early], reputation[early]) == (0.5, MU_X)
        if n == 5:
            assert log.joined_at[late] == 4
            assert reputation[late] == born[late] > 0.0
        if n == 6:
            assert reputation[late] == 0.0
    # Both sides of each switch were seen on identities whose two values differ.
    assert set(covered) == {(False, 0), (True, -1), (True, 0)}


def test_newcomer_window_caps_tenure():
    # The newcomer pool is the one place the tenure rule is applied: before
    # every step it holds exactly the live agents whose tenure lies in
    # [NEWCOMER_MIN_TENURE, newcomer_window], in the order the log's join
    # buckets give, and over a growing run with whitewash rejoins and
    # planted rejoins both ends of that range are occupied. Join iterations
    # come from the log, not from the engine.
    window = 12
    sim = Simulation(SimConfig(n=200, iterations=0, growth_percent_per_10=5.0,
                               newcomer_window=window, seed=6))
    log = oracles.JoinLog(sim)
    tenures = set()
    for n in range(1, 41):
        pool = sim._newcomer_pool(n).tolist()
        expect = [v for v in sim.topology.live_ids().tolist()
                  if engine.NEWCOMER_MIN_TENURE <= n - log.joined_at[v] <= window]
        assert pool == expect == log.newcomer_pool(n), n
        tenures.update(n - log.joined_at[v] for v in pool)
        if n % 7 == 0:
            log.force_whitewash(int(sim.topology.live_ids()[0]))
        log.step()
    assert min(tenures) == engine.NEWCOMER_MIN_TENURE
    assert max(tenures) == window


def test_ceiling_estimate_is_the_clamped_newcomer_mean():
    # After every step of a run with growth, departures, gossip noise, wave
    # rejoins and planted rejoins, the grant-ceiling estimate is the mean
    # reputation of the log's newcomer pool at that step, clamped to
    # [_est_floor, 1], or the previous estimate when the pool is empty. The
    # pool is taken before the step: the step's own transactions start no
    # pool member, and a member that leaves during it keeps its reputation.
    sim = Simulation(SimConfig(n=200, iterations=0, growth_percent_per_10=5.0,
                               legit_departure_prob=0.02, gossip_noise=0.05,
                               newcomer_window=6, seed=3))
    log = oracles.JoinLog(sim)
    seen = collections.Counter()
    for n in range(1, 61):
        if n % 9 == 0:
            log.force_whitewash(live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0])
        pool = log.newcomer_pool(n)
        before = sim.r_est
        log.step()
        if not pool:
            assert sim.r_est == before, n
            seen["empty"] += 1
            continue
        mean = float(np.mean(sim.reputation[pool]))
        assert sim.r_est == min(max(mean, sim._est_floor), 1.0), n
        seen["floor" if mean < sim._est_floor else "mean"] += 1
    assert set(seen) == {"empty", "floor", "mean"}, seen


def test_ceiling_estimate_reads_earned_reputation():
    """Characterization, not a specification: this behaviour waits for a
    check against the paper. The grant-ceiling estimate is the mean
    reputation of newcomers with tenure >= NEWCOMER_MIN_TENURE, but nodes
    start transacting in their second iteration, so every counted newcomer
    already carries its earned reputation (mu**x for a cooperator) rather
    than its grant. In this run the mean offer at iteration 3 is 14 times
    the configured ceiling of 0.05. Every golden digest depends on it."""
    recs = engine.run(SimConfig(n=8, attach_edges=2, r_ini_max0=0.05, r_ini_min=0.01,
                                iterations=5, seed=0))
    assert recs[2].iteration == 3
    assert recs[2].mean_offered_r_ini == 0.7071067811865477
    assert recs[2].mean_offered_r_ini > 14 * 0.05
    assert recs[2].mean_offered_r_ini == pytest.approx(MU_X)


def test_voluntary_departures_shrink_population():
    sim = Simulation(SimConfig(n=300, degree=6, topology="regular", iterations=0,
                               legit_departure_prob=0.02, seed=5))
    sim.auto_whitewash = False
    recs = [sim.step() for _ in range(50)]
    sizes = [r.n_nodes for r in recs]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < 300
    # reputable leavers are booked as benign; the only residual is the
    # growth correction reading shrinkage as a small positive surprise
    assert max(r.mean_w_estimate for r in recs) < 0.05


class ScanDepartures(Simulation):
    """Reference for the candidate array and the batched draws: the scan of
    every live node they replaced, one scalar draw per reputable cooperator
    in ascending id order, none once the overlay is down to attach_edges + 1
    nodes."""

    def _voluntary_departures(self):
        cfg = self.cfg
        threshold = (self.r_est + cfg.r_ini_min) / 2
        for vid in self.topology.live_ids().tolist():
            if self.role_code[vid] != Role.COOPERATIVE or self.reputation[vid] < threshold:
                continue
            if self.topology.node_count <= cfg.attach_edges + 1:
                break
            if self.rng.random() >= cfg.legit_departure_prob:
                continue
            self._drop_node(vid, True)


def run_with_departure_log(sim: Simulation):
    """Records, the ascending leaver ids of each iteration, and the final
    generator state; after every step, checks the role codes against the
    live nodes and the records, and the departure candidates against a scan
    of the live nodes."""
    leavers = []
    depart = sim._voluntary_departures

    def logged():
        before = sim.topology.live_ids().tolist()
        depart()
        leavers.append([v for v in before if v not in sim.topology])

    sim._voluntary_departures = logged
    records = []
    for _ in range(sim.cfg.iterations):
        records.append(sim.step())
        code = sim.role_code
        assert len(code) == len(sim.reputation) >= sim.topology.next_id
        check_roles_and_records(sim)
        threshold = legitimacy_threshold(sim.r_est, sim.cfg.r_ini_min)
        candidates = (code == Role.COOPERATIVE) & (sim.reputation >= threshold)
        assert np.flatnonzero(candidates).tolist() == [
            v for v in sim.topology.live_ids().tolist()
            if code[v] == Role.COOPERATIVE and sim.reputation[v] >= threshold
        ]
    return records, leavers, sim.rng.bit_generator.state


DEPARTURE_CASES = {
    # growth, whitewashing and departures together
    "growth": SimConfig(n=300, growth_percent_per_10=5.0, legit_departure_prob=0.02,
                        iterations=80, seed=2),
    # every candidate leaves until the attach_edges + 1 floor cuts the batch
    "floor": SimConfig(topology="regular", n=8, degree=2, legit_departure_prob=1.0,
                       r_ini_max0=0.05, r_ini_min=0.01, iterations=20, seed=3),
    # candidates outnumber the room left, so one call draws several batches
    "batches": SimConfig(topology="regular", n=12, degree=2, legit_departure_prob=0.5,
                         r_ini_max0=0.05, r_ini_min=0.01, iterations=20, seed=4),
}


@pytest.mark.parametrize("name", DEPARTURE_CASES)
def test_departures_match_the_per_agent_scan(name):
    cfg = DEPARTURE_CASES[name]
    records, leavers, state = run_with_departure_log(Simulation(cfg))
    assert run_with_departure_log(ScanDepartures(cfg)) == (records, leavers, state)
    assert sum(map(len, leavers)) > 0
    if name == "growth":
        assert sum(r.whitewash_successes for r in records) > 0
    else:
        assert records[-1].n_nodes == cfg.attach_edges + 1


# ---- wave structure under the rejoin economics ---------------------------


def test_first_wave_takes_every_potential_whitewasher():
    sim = Simulation(SimConfig(seed=0))
    washers = len(live_with_role(sim, Role.POTENTIAL_WHITEWASHER))
    rec = sim.step()
    assert washers == 543
    assert rec.whitewash_attempts == rec.whitewash_successes == washers
    assert rec.mean_offered_r_ini == pytest.approx(0.5)


def test_wave_polls_fresh_and_ready_whitewashers_only():
    # Planted rejoins of each kind, counters set before the rejoin carries
    # them: a fresh whitewasher polls, one that only failed never does, one
    # whose grant the ceiling estimate does not beat by more than the margin
    # is parked until it does, one with a success and a lower grant polls,
    # and a cooperator never does.
    sim = Simulation(SimConfig(n=200, iterations=0, seed=1))
    sim.auto_whitewash = False
    for _ in range(3):
        sim.step()
    washers = live_with_role(sim, Role.POTENTIAL_WHITEWASHER)
    planted = {}
    for kind, vid, tried, won in [("fresh", washers[0], 0, 0), ("failed", washers[1], 2, 0),
                                  ("parked", washers[2], 1, 1), ("ready", washers[3], 3, 2)]:
        sim.attempts[vid], sim.successes[vid] = tried, won
        planted[kind] = sim.force_whitewash(vid)
    planted["cooperator"] = sim.force_whitewash(live_with_role(sim, Role.COOPERATIVE)[0])
    grant = sim.r_est
    assert all(sim.grant[v] == grant for v in planted.values())
    sim.grant[planted["ready"]] = grant / 2

    def polled():
        ids = sim._pollers().tolist()
        assert ids == sorted(ids)
        return {kind for kind, v in planted.items() if v in ids}

    assert polled() == {"fresh", "ready"}
    sim.r_est = grant + engine._GRANT_MARGIN  # not past the margin yet
    assert polled() == {"fresh", "ready"}
    sim.r_est = grant + 2 * engine._GRANT_MARGIN
    assert polled() == {"fresh", "parked", "ready"}
    sim.r_est = 1.0
    assert polled() == {"fresh", "parked", "ready"}
    # The next step's wave polls by the same mask: the fresh one attempts
    # for certain, so its counters move or it rejoins under a new id.
    sim.auto_whitewash = True
    record = sim.step()
    fresh = planted["fresh"]
    assert record.whitewash_attempts >= 1
    assert sim.role_code[fresh] == 0 or sim.attempts[fresh] == 1


def test_wave_echo_then_permanent_silence():
    # Iteration 1: everyone washes at the launch grant. Iteration 2: the
    # ceiling estimate still equals that grant, so nobody can improve and
    # the wave skips. Iteration 3: settled cooperators lift the estimate to
    # their earned reputation, the grant ceiling follows, and the whole
    # cohort cashes in one more reset. After that no offer ever strictly
    # beats the grant they now hold, so attempts stop for good.
    recs = engine.run(SimConfig(seed=0, iterations=40))
    succ = [r.whitewash_successes for r in recs]
    assert succ[0] == 543
    assert succ[1] == 0
    assert succ[2] == 543
    assert sum(r.whitewash_attempts for r in recs[3:]) == 0
    assert recs[2].mean_offered_r_ini == pytest.approx(MU_X, rel=1e-9)


def test_rejoiners_get_fresh_ids_and_the_offered_grant():
    sim = Simulation(SimConfig(n=300, seed=2))
    log = oracles.JoinLog(sim)
    rec = log.step()
    assert rec.whitewash_successes > 0
    rejoined = [v for v in sim.topology.live_ids().tolist() if v >= 300]
    assert len(rejoined) == rec.whitewash_successes
    for v in rejoined:
        assert log.joined_at[v] == 1
        assert sim.role_code[v] == Role.POTENTIAL_WHITEWASHER
        assert sim.attempts[v] == sim.successes[v] == 1
        assert sim.reputation[v] == sim.grant[v] == pytest.approx(0.5)  # the iteration-1 offer
        # hosts picked at rejoin may themselves wash later in the same
        # wave, so membership is guaranteed but the edge count is not
        assert v in sim.topology


def test_records_follow_the_person_and_role_code_holds_role_and_liveness():
    # After every step of a run with growth, voluntary departures and wave
    # rejoins, and around planted rejoins of a cooperator and of a potential
    # whitewasher: the role codes mark exactly the live ids, and a rejoin
    # carries the person's role, honesty and counters to the new id, whose
    # grant is the offer.
    sim = Simulation(SimConfig(n=300, growth_percent_per_10=5.0, legit_departure_prob=0.02,
                               iterations=0, seed=2))
    moved = collections.Counter()
    execute = sim._execute_whitewash

    def person(v):
        return (sim.role_code[v], sim.honesty[v], sim.attempts[v], sim.successes[v])

    def checked(vid, offered):
        carried = person(vid)
        new_id = execute(vid, offered)
        assert sim.role_code[vid] == 0 and vid not in sim.topology
        assert person(new_id) == carried
        assert sim.grant[new_id] == sim.reputation[new_id] == offered
        moved[Role(carried[0])] += 1
        return new_id

    sim._execute_whitewash = checked
    seen = set(sim.topology.live_ids().tolist())
    check_roles_and_records(sim)
    for n in range(1, 41):
        if n % 8 == 0:
            for role in Role:
                sim.force_whitewash(live_with_role(sim, role)[0])
                check_roles_and_records(sim)
                seen.update(sim.topology.live_ids().tolist())
        sim.step()
        check_roles_and_records(sim)
        seen.update(sim.topology.live_ids().tolist())
    departed = len(seen) - sim.topology.node_count - sum(moved.values())
    assert moved[Role.COOPERATIVE] == 5 and moved[Role.POTENTIAL_WHITEWASHER] > 5
    assert departed > 0 and sim.topology.next_id > 300 + sum(moved.values())


def test_arrivals_book_one_count_per_host():
    # A rejoin and a growth arrival attach the same way, one `attach` each:
    # attach_edges hosts drawn by degree, one arrival booked at each. Each
    # arrival's first host is logged as it attaches.
    sim = Simulation(SimConfig(n=100, iterations=0, growth_percent_per_10=3.0, seed=4))
    sim.auto_whitewash = False
    log = oracles.JoinLog(sim)
    for _ in range(9):
        log.step()
    first_host = {}
    t = sim.topology
    attach = t.attach

    def logged(count, rng):
        v, hosts = attach(count, rng)
        first_host[v] = hosts[0]
        return v, hosts

    t.attach = logged
    new_id = log.force_whitewash(live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0])
    assert t.degree_of(new_id) == 3
    assert oracles.books(t).arrived == dict.fromkeys(t.neighbors(new_id), 1)
    # Step 10's sweep takes the rejoin's arrivals; its growth batch, the
    # only ids the log has joining at 10, books the arrivals left after it.
    log.step()
    grown = [v for v, j in log.joined_at.items() if j == 10]
    assert log.joined_at[new_id] == 9
    # A host is older than the node it hosts; younger neighbors of a new
    # node are later arrivals of the same batch that it hosted in turn.
    hosts = [u for v in grown for u in t.neighbors(v) if u < v]
    assert len(grown) == 3
    # Each growth arrival is born holding its grant, the offer of the first
    # host it contacts, which `grant` also keeps.
    for v in grown:
        assert sim.reputation[v] == sim.grant[v] == sim._est.offers[first_host[v]]
        assert sim.attempts[v] == sim.successes[v] == 0
    arrived = oracles.books(t).arrived
    assert arrived == dict(collections.Counter(hosts))
    assert sum(arrived.values()) == 3 * 3


def test_growth_batch_matches_the_per_arrival_registration():
    # A growth batch is registered in one write: all its ids grow the arrays
    # indexed by node id once and are primed together, and only then are
    # the grants read from the first hosts' offers. Against the per-arrival
    # rule (oracles.grow_one_at_a_time) on the same draws, every record,
    # every fact of every id, every window and offer, and the topology must
    # agree. The runs cover arrivals whose first host arrived earlier in the
    # same batch, which are granted the prime, and batches that straddle the
    # arrays' capacity, after which all of them still have one length.
    seen = collections.Counter()
    for seed in range(3):
        for washing in (False, True):
            cfg = SimConfig(n=100, growth_percent_per_10=40.0, iterations=0, seed=seed)
            batch, single = Simulation(cfg), Simulation(cfg)
            batch.auto_whitewash = single.auto_whitewash = washing
            grow, arrivals = batch._grow_population, []

            def batch_grow(batch=batch, grow=grow):
                first, capacity = batch.topology.next_id, len(batch.role_code)
                grow()
                seen["straddled"] += first < capacity < batch.topology.next_id
                for vid, host in arrivals:
                    if host >= first:
                        assert batch.grant[vid] == batch.r_est, (seed, vid)
                        seen["host in batch"] += 1

            def single_grow(single=single):
                arrivals[:] = oracles.grow_one_at_a_time(single)

            batch._grow_population, single._grow_population = batch_grow, single_grow
            for _ in range(30):
                # The oracle steps first, so that the batch can read its arrivals.
                want = single.step()
                assert batch.step() == want
                end = batch.topology.next_id
                for name in engine._ID_ROWS:
                    np.testing.assert_array_equal(
                        getattr(batch, name)[:end], getattr(single, name)[:end], name
                    )
                for slot, ref in zip(batch._est._ring, single._est._ring):
                    np.testing.assert_array_equal(slot[:end], ref[:end])
                for name in ("_peak", "offers"):
                    np.testing.assert_array_equal(
                        getattr(batch._est, name)[:end], getattr(single._est, name)[:end], name
                    )
                oracles.assert_same_topology(batch.topology, single.topology)
                est = batch._est
                lengths = {len(getattr(batch, name)) for name in engine._ID_ROWS}
                lengths |= {len(a) for a in (*est._ring, est._peak, est.offers, est._prev_ndsum)}
                assert lengths == {est.capacity}, lengths
    assert seen["straddled"] > 0 and seen["host in batch"] > 0, seen


def test_long_run_offers_rest_on_the_floor():
    recs = engine.run(SimConfig(seed=0, iterations=120))
    # the newcomer pool ends up carrying only drained rejoiners, so the
    # ceiling estimate settles at its floor of twice the minimum offer
    assert recs[-1].mean_offered_r_ini == pytest.approx(0.06)
    assert recs[-1].mean_offered_r_ini > SimConfig().r_ini_min


def test_offers_never_exceed_current_ceiling():
    sim = Simulation(SimConfig(n=300, iterations=0, growth_percent_per_10=2.0, seed=8))
    for _ in range(60):
        rec = sim.step()
        assert SimConfig().r_ini_min <= rec.mean_offered_r_ini <= sim.r_est + 1e-12


def test_suppression_smoke():
    recs = engine.run(SimConfig(seed=0, iterations=120))
    early = np.mean([r.whitewash_fraction for r in recs[:10]])
    late = np.mean([r.whitewash_fraction for r in recs[-50:]])
    assert early > 0.05
    assert late == 0.0


# ---- agreement with the per-node estimator module ------------------------


def test_sweep_matches_whitewash_level_observations():
    # On a degree-regular static network the engine's batched sweep and the
    # per-node observation formula are the same arithmetic; plant one benign
    # and one suspicious departure and compare node by node.
    sim = Simulation(SimConfig(n=60, degree=4, topology="regular", iterations=0, seed=7))
    sim.auto_whitewash = False
    for _ in range(4):
        sim.step()
    t = sim.topology
    washer = live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0]
    leaver = live_with_role(sim, Role.COOPERATIVE)[0]
    arrivals: dict[int, int] = {}
    legit: dict[int, int] = {}
    new_id = sim.force_whitewash(washer)
    for u in t.neighbors(new_id):
        arrivals[u] = arrivals.get(u, 0) + 1
    for u in t.neighbors(leaver):
        legit[u] = legit.get(u, 0) + 1
    new_id = sim.force_whitewash(leaver)
    for u in t.neighbors(new_id):
        arrivals[u] = arrivals.get(u, 0) + 1
    sim.step()

    checked = 0
    for i in t.live_ids().tolist():
        obs = [
            NeighborhoodObservation(
                neighbor=j,
                prev_size=len(t.neighbors(j)),
                cur_size=len(t.neighbors(j)),
                arrivals=arrivals.get(j, 0),
                legit_departures=legit.get(j, 0),
                local_growth=1.0,
            )
            for j in t.neighbors(i)
        ]
        if not obs or sum(o.cur_size for o in obs) == 0:
            continue
        expect = oracles.whitewash_level(obs)
        assert sim.last_w_sweep.get(i, 0.0) == pytest.approx(expect, abs=1e-12)
        checked += 1
    assert checked > 50
    assert sum(sim.last_w_sweep.values()) > 0


# ---- closed-world ground truth -------------------------------------------


def test_closed_world_zero_injection():
    cfg = SimConfig(n=200, iterations=0, seed=0)
    assert engine.closed_world_estimator_check(cfg, 0) == (0.0, 0.0)


def test_closed_world_rejects_negative_injection():
    with pytest.raises(ValueError):
        engine.closed_world_estimator_check(SimConfig(n=200, iterations=0), -1)
    # More planted rejoins than potential whitewashers is its own ValueError,
    # which the CLI reports as a config error.
    with pytest.raises(engine.TooFewWhitewashers, match="only 44 potential whitewashers"):
        engine.closed_world_estimator_check(SimConfig(n=100, iterations=0), 45)


def test_closed_world_exact_on_regular_topology():
    cfg = SimConfig(topology="regular", n=1000, degree=6, iterations=0, seed=3)
    est, true = engine.closed_world_estimator_check(cfg, 10)
    assert true > 0
    assert abs(est - true) < 1e-9


def test_closed_world_exact_on_scale_free_topology():
    cfg = SimConfig(topology="scale_free", n=1000, iterations=0, seed=3)
    est, true = engine.closed_world_estimator_check(cfg, 10)
    assert true > 0
    assert abs(est - true) < 1e-9


def test_closed_world_growth_bias_stays_bounded():
    # With background growth the correction subtracts the expected arrival
    # share, but the per-node clamp at zero keeps only the positive
    # residuals, so the population mean overshoots the planted truth by a
    # bounded factor (measured 1.7x to 2.1x on these seeds).
    for seed in range(3):
        cfg = SimConfig(n=1000, growth_percent_per_10=2.0, iterations=0, seed=seed)
        est, true = engine.closed_world_estimator_check(cfg, 10)
        assert true > 0
        assert 1.2 < est / true < 3.5
