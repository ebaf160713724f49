from __future__ import annotations

import collections
import math
from unittest import mock

import numpy as np
import pytest

import oracles
from oracles import NeighborhoodObservation
from p2psim import agents, engine
from p2psim import graph as graph_mod
from p2psim.agents import Role
from p2psim.engine import IterationRecord, SimConfig, Simulation
from p2psim.estimator import EstimatorArrays, legitimacy_threshold

MU_X = 0.5**0.5  # stationary cooperative reputation at the defaults


def live_with_role(sim: Simulation, role: Role) -> list[int]:
    """Ascending live ids whose role code is `role`."""
    live = sim.topology.live_ids()
    codes = sim.role_code[oracles.rows(sim, live)]
    return [v for v, code in zip(live.tolist(), codes.tolist()) if code == role]


def row_lengths(sim: Simulation) -> set[int]:
    """The lengths of every array indexed by row that the engine and its
    estimator keep; one registration path grows them all together."""
    est = sim._est
    return {len(getattr(sim, name)) for name in engine._ID_ROWS} | {
        len(a) for a in (*est._ring, est._peak, est.offers, est._prev_ndsum)
    }


def check_roles_and_records(sim: Simulation) -> None:
    """`role_code` is nonzero exactly at the rows of the live ids, every
    array indexed by row, the engine's and the estimator's, has one length
    with an entry for every row the topology holds, a live potential
    whitewasher's successes never exceed its attempts, and the wave would
    poll live potential whitewashers only."""
    code = sim.role_code
    assert np.flatnonzero(code).tolist() == oracles.rows(sim, sim.topology.live_ids()).tolist()
    end = sim.topology.rows
    (length,) = row_lengths(sim)
    assert length >= end
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
        row = oracles.rows(sim, v)
        expect = 0.0 if sim.role_code[row] == Role.POTENTIAL_WHITEWASHER else MU_X
        assert sim.reputation[row] == pytest.approx(expect, abs=1e-12)


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
    live = sim.topology.live_ids()
    born = dict(zip(live.tolist(), sim.reputation[oracles.rows(sim, live)].tolist()))
    covered = collections.Counter()
    for n in range(1, 31):
        if n == 5:  # plant a rejoin between steps 4 and 5
            late = log.force_whitewash(live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0])
            born[late] = float(sim.reputation[oracles.rows(sim, late)])
        log.step()
        reputation, code = sim.reputation.tolist(), sim.role_code.tolist()
        live = sim.topology.live_ids()
        for v, row in zip(live.tolist(), oracles.rows(sim, live).tolist()):
            born.setdefault(v, reputation[row])  # joined during this step
            joined = log.joined_at[v]
            start = joined + 2 if joined else 1
            earned = MU_X if code[row] == Role.COOPERATIVE else 0.0
            assert reputation[row] == (earned if n >= start else born[v]), (n, v)
            if born[v] != earned and n - start in (-1, 0):
                covered[joined > 0, n - start] += 1
        if n == 1:
            assert (born[early], reputation[oracles.rows(sim, early)]) == (0.5, MU_X)
        if n == 5:
            assert log.joined_at[late] == 4
            assert reputation[oracles.rows(sim, late)] == born[late] > 0.0
        if n == 6:
            assert reputation[oracles.rows(sim, late)] == 0.0
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
        pool = sim.topology.ids_at(sim._newcomer_pool(n)).tolist()
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
        mean = float(np.mean(sim.reputation[oracles.rows(sim, pool)]))
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
    """Reference for the candidate array, the batched draws and the one
    write after them: the scan of every live node they replaced, one
    scalar draw per reputable cooperator in ascending id order, none once
    the overlay is down to attach_edges + 1 nodes, and each leaver removed,
    its role code dropped and its window retired as it is drawn."""

    def _voluntary_departures(self):
        cfg = self.cfg
        threshold = (self.r_est + cfg.r_ini_min) / 2
        live = self.topology.live_ids()
        for vid, row in zip(live.tolist(), oracles.rows(self, live).tolist()):
            if self.role_code[row] != Role.COOPERATIVE or self.reputation[row] < threshold:
                continue
            if self.topology.node_count <= cfg.attach_edges + 1:
                break
            if self.rng.random() >= cfg.legit_departure_prob:
                continue
            graph_mod.remove_node(self.topology, vid, True)
            self.role_code[row] = 0
            self._est.retire(row)


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
        assert len(code) == len(sim.reputation) >= sim.topology.rows
        check_roles_and_records(sim)
        threshold = legitimacy_threshold(sim.r_est, sim.cfg.r_ini_min)
        candidates = (code == Role.COOPERATIVE) & (sim.reputation >= threshold)
        assert np.flatnonzero(candidates).tolist() == [
            row for row in oracles.rows(sim, sim.topology.live_ids()).tolist()
            if code[row] == Role.COOPERATIVE and sim.reputation[row] >= threshold
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
        row = oracles.rows(sim, vid)
        sim.attempts[row], sim.successes[row] = tried, won
        planted[kind] = sim.force_whitewash(vid)
    planted["cooperator"] = sim.force_whitewash(live_with_role(sim, Role.COOPERATIVE)[0])
    grant = sim.r_est
    assert all(sim.grant[oracles.rows(sim, v)] == grant for v in planted.values())
    sim.grant[oracles.rows(sim, planted["ready"])] = grant / 2

    def polled():
        ids = sim.topology.ids_at(sim._pollers()).tolist()
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
    fresh = oracles.rows(sim, planted["fresh"])
    assert record.whitewash_attempts >= 1
    assert sim.role_code[fresh] == 0 or sim.attempts[fresh] == 1


@pytest.mark.parametrize("cfg", [
    SimConfig(n=1000, growth_percent_per_10=8.0, iterations=0, seed=0),
    SimConfig(topology="regular", n=2000, legit_departure_prob=0.01, gossip_noise=0.1,
              iterations=0, seed=0),
], ids=["scale_free-growth", "regular-departures-noise"])
def test_the_success_rate_rule_never_takes_effect(cfg, monkeypatch):
    # Evidence, not a rule: this pins today's behaviour (ROADMAP item 5).
    # `decide_whitewash` attempts with probability successes / attempts,
    # but without planted rejoins that rate is only ever 1:
    # - a first attempt always runs, as the rate is 1 before it;
    # - a failed first-timer (1 attempt, 0 successes) is never polled
    #   again (`_pollers`), so its counters stay put;
    # - after a success the grant is the offer taken, which is at least the
    #   agent's honesty, and a new attempt needs an offer strictly above
    #   grant + margin, so it succeeds too.
    # By induction attempts == successes wherever successes > 0, and the
    # decision never returns NO_ATTEMPT, though its draw is still made.
    # Only `force_whitewash` on an agent with a success can break this: it
    # may set a grant below the agent's honesty.
    decide, outcomes = agents.decide_whitewash, collections.Counter()

    def counted(*args):
        outcome = decide(*args)
        outcomes[outcome] += 1
        return outcome

    monkeypatch.setattr(agents, "decide_whitewash", counted)
    sim = Simulation(cfg)
    for _ in range(300):
        sim.step()
        end = sim.topology.rows
        tried, won = sim.attempts[:end], sim.successes[:end]
        assert (tried[won > 0] == won[won > 0]).all()
        assert (tried[won == 0] <= 1).all()
    assert outcomes[agents.WhitewashOutcome.NO_ATTEMPT] == 0
    assert outcomes[agents.WhitewashOutcome.ATTEMPT_FAILED] > 0
    # Repeat whitewashers exist, so the step after a success is exercised.
    assert outcomes[agents.WhitewashOutcome.WHITEWASHED] > 0 and sim.successes.max() >= 2


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
        row = oracles.rows(sim, v)
        assert sim.role_code[row] == Role.POTENTIAL_WHITEWASHER
        assert sim.attempts[row] == sim.successes[row] == 1
        assert sim.reputation[row] == sim.grant[row] == pytest.approx(0.5)  # the iteration-1 offer
        # hosts picked at rejoin may themselves wash later in the same
        # wave, so membership is guaranteed but the edge count is not
        assert v in sim.topology


def test_records_follow_the_person_and_role_code_holds_role_and_liveness():
    # After every step of a run with growth, voluntary departures and wave
    # rejoins, and around planted rejoins of a cooperator and of a potential
    # whitewasher: the role codes mark exactly the live ids, and every
    # rejoin, of a wave or planted, leaves its old id dead and gone and
    # carries the person's role, honesty and counters to its new id, whose
    # grant and reputation are its offer.
    sim = Simulation(SimConfig(n=300, growth_percent_per_10=5.0, legit_departure_prob=0.02,
                               iterations=0, seed=2))
    moved = collections.Counter()
    register = sim._register_rejoins

    def person(v):
        row = oracles.rows(sim, v)
        return (sim.role_code[row], sim.honesty[row], sim.attempts[row], sim.successes[row])

    def checked(leavers, offers):
        # The engine hands over the leavers' rows; each is read by its id.
        ids = sim.topology.ids_at(leavers).tolist()
        carried = [person(v) for v in ids]
        register(leavers, offers)
        end = sim.topology.next_id
        new_ids = range(end - len(ids), end)
        for vid, new_id, was, offered in zip(ids, new_ids, carried, offers, strict=True):
            assert sim.role_code[oracles.rows(sim, vid)] == 0 and vid not in sim.topology
            assert person(new_id) == was
            row = oracles.rows(sim, new_id)
            assert sim.grant[row] == sim.reputation[row] == offered
            moved[Role(was[0])] += 1

    sim._register_rejoins = checked
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


class PerRejoinWave(Simulation):
    """Reference for the wave's deferred writes: the per-rejoin path they
    replaced. Each attempt raises the poller's counters at once, reading
    its facts at its turn; each rejoin removes the leaver, drops its role
    code, retires its window, attaches and registers the new node alone,
    as a one-row slice, before the next poller draws. Planted rejoins take
    the same path, granted the ceiling estimate. Nodes are read by id
    through `oracles.rows`; the probe draws a live id."""

    def _rejoin_alone(self, vid: int, offered: float) -> int:
        row = oracles.rows(self, vid)
        person = (self.role_code[row], self.honesty[row], self.attempts[row], self.successes[row])
        threshold = legitimacy_threshold(self.r_est, self.cfg.r_ini_min)
        graph_mod.remove_node(self.topology, vid, self.reputation[row] >= threshold)
        self.role_code[row] = 0
        self._est.retire(row)
        new_id, _ = self.topology.attach(self.cfg.attach_edges, self.rng)
        new_row = oracles.rows(self, new_id)
        self._register_newcomers(slice(new_row, new_row + 1), *person)
        self.reputation[new_row] = self.grant[new_row] = offered
        return new_id

    def _whitewash_wave(self):
        polled = self.topology.ids_at(self._pollers())
        if not len(polled):
            return 0, 0
        pool = self.topology.live_ids()
        attempts = successes = 0
        for vid in polled.tolist():
            target = pool[oracles.draws_integers(self.rng, len(pool))]
            offered = float(self._est.offers[oracles.rows(self, target)])
            row = oracles.rows(self, vid)
            tried, won = int(self.attempts[row]), int(self.successes[row])
            if tried and offered <= self.grant[row] + engine._GRANT_MARGIN:
                continue
            outcome = agents.decide_whitewash(float(self.honesty[row]), tried, won, offered,
                                              self.rng)
            if outcome is agents.WhitewashOutcome.NO_ATTEMPT:
                continue
            attempts += 1
            self.attempts[row] += 1
            if outcome is agents.WhitewashOutcome.WHITEWASHED:
                successes += 1
                self.successes[row] += 1
                self._rejoin_alone(vid, offered)
        return attempts, successes

    def force_whitewash(self, vid: int) -> int:
        return self._rejoin_alone(vid, self.r_est)


def test_wave_batch_matches_the_per_rejoin_path():
    # Small runs of either topology, with growth, voluntary departures,
    # gossip noise, any window and planted rejoins between steps: the wave
    # that registers its rejoins as one id range after its loop, and the
    # departures that drop their leavers in one write, give the per-rejoin
    # path's records, final draw state, overlay, and facts and offers of
    # every id issued, bit for bit. `--hypothesis-profile=ci` runs more
    # examples.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(
        topology=st.sampled_from(["scale_free", "regular"]),
        n=st.integers(8, 150),
        growth=st.sampled_from([0.0, 5.0, 30.0]),
        departures=st.sampled_from([0.0, 0.02, 0.3]),
        noise=st.sampled_from([0.0, 0.05]),
        window=st.integers(1, 12),
        steps=st.integers(1, 40),
        planted=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10**6)), max_size=4),
        seed=st.integers(0, 2**16),
    )
    def check(topology, n, growth, departures, noise, window, steps, planted, seed):
        cfg = SimConfig(topology=topology, n=n, degree=4, growth_percent_per_10=growth,
                        legit_departure_prob=departures, gossip_noise=noise,
                        window_n_prime=window, iterations=0, seed=seed)
        batch, single = Simulation(cfg), PerRejoinWave(cfg)
        for step in range(steps):
            for _, pick in (p for p in planted if p[0] == step):
                live = batch.topology.live_ids()
                vid = int(live[pick % len(live)])
                assert batch.force_whitewash(vid) == single.force_whitewash(vid)
            assert batch.step() == single.step(), step
        assert batch.rng.bit_generator.state == single.rng.bit_generator.state
        oracles.assert_same_topology(batch.topology, single.topology)
        end = batch.topology.rows
        for name in engine._ID_ROWS:
            assert getattr(batch, name)[:end].tobytes() == getattr(single, name)[:end].tobytes()
        assert batch._est.offers[:end].tobytes() == single._est.offers[:end].tobytes()

    check()


# ---- compacted rows ---------------------------------------------------------


def never_compacting(sim: Simulation) -> IterationRecord:
    """One step of `sim` with compaction off: its rows stay its ids."""
    with mock.patch.object(engine, "_COMPACT_SHARE", math.inf):
        return sim.step()


def test_compaction_changes_no_output():
    # Small runs of either topology, with growth, voluntary departures,
    # gossip noise, any window and planted rejoins between steps, once
    # compacting at every step boundary where a row is dead and once never:
    # equal records, live ids, overlays, and role codes, reputations,
    # honesty, grants, counters, offers and window peaks of every live id,
    # and the same final draw state. `--hypothesis-profile=ci` runs more
    # examples.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = collections.Counter()

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(
        topology=st.sampled_from(["scale_free", "regular"]),
        n=st.integers(8, 150),
        growth=st.sampled_from([0.0, 5.0, 30.0]),
        departures=st.sampled_from([0.0, 0.02, 0.3]),
        noise=st.sampled_from([0.0, 0.05]),
        window=st.integers(1, 12),
        steps=st.integers(1, 40),
        planted=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10**6)), max_size=4),
        seed=st.integers(0, 2**16),
    )
    def check(topology, n, growth, departures, noise, window, steps, planted, seed):
        cfg = SimConfig(topology=topology, n=n, degree=4, growth_percent_per_10=growth,
                        legit_departure_prob=departures, gossip_noise=noise,
                        window_n_prime=window, iterations=0, seed=seed)
        every, never = Simulation(cfg), Simulation(cfg)
        for step in range(steps):
            for _, pick in (p for p in planted if p[0] == step):
                live = every.topology.live_ids()
                vid = int(live[pick % len(live)])
                assert every.force_whitewash(vid) == never.force_whitewash(vid)
            with mock.patch.object(engine, "_COMPACT_SHARE", 0.0):
                record = every.step()
            assert record == never_compacting(never), step
        assert every.rng.bit_generator.state == never.rng.bit_generator.state
        live = every.topology.live_ids()
        assert live.tolist() == never.topology.live_ids().tolist()
        assert oracles.adjacency(every.topology) == oracles.adjacency(never.topology)
        assert never.topology.rows == never.topology.next_id
        seen["compacted"] += every.topology.rows < every.topology.next_id
        got, want = oracles.rows(every, live), oracles.rows(never, live)
        for name in engine._ID_ROWS:
            assert getattr(every, name)[got].tobytes() == getattr(never, name)[want].tobytes()
        for name in ("offers", "_peak"):
            assert (getattr(every._est, name)[got].tobytes()
                    == getattr(never._est, name)[want].tobytes()), name

    check()
    assert seen["compacted"] > 0


def test_ids_stay_the_public_edge_across_compactions():
    # A churning run that compacts several times answers every question by
    # id as a twin that never compacts does: the live ids, membership,
    # degrees and neighbors of every id issued, recounted through the
    # public API, and the latest sweep's ids, ascending and as many as it
    # swept. A planted rejoin of a live id still works, and an id whose row
    # is gone is unknown to it.
    cfg = SimConfig(topology="regular", n=300, degree=6, growth_percent_per_10=5.0,
                    legit_departure_prob=0.02, gossip_noise=0.05, iterations=0, seed=7)
    sim, twin = Simulation(cfg), Simulation(cfg)
    t, u = sim.topology, twin.topology
    compacted = collections.Counter()
    for step in range(60):
        before, was_live = t.rows, set(t.live_ids().tolist())
        assert sim.step() == never_compacting(twin), step
        compacted[t.rows < before] += 1
        live = t.live_ids().tolist()
        assert live == u.live_ids().tolist() == sorted(live)
        assert len(live) == t.node_count
        alive = set(live)
        degrees = 0
        for v in range(-1, t.next_id + 1):
            assert (v in t) == (v in alive) == (v in u), v
            if v not in alive:
                if 0 <= v < t.next_id:
                    assert t.degree_of(v) == 0
                continue
            nbrs = t.neighbors(v)
            assert sorted(nbrs) == sorted(u.neighbors(v)), v
            assert t.degree_of(v) == len(nbrs) == u.degree_of(v)
            assert all(v in t.neighbors(w) for w in nbrs)
            degrees += len(nbrs)
        assert degrees == 2 * t.edge_count
        swept = sim.last_w_sweep
        assert swept.tolist() == twin.last_w_sweep.tolist()
        assert len(swept) == len(sim._est.swept) and set(swept.tolist()) <= was_live
        assert (np.diff(swept) > 0).all()
    assert compacted[True] >= 3 and t.rows < t.next_id, compacted
    with pytest.raises(graph_mod.UnknownNodeError):
        t.degree_of(t.next_id)
    held = set(t.ids_at(np.arange(t.rows)).tolist())
    dropped = next(v for v in range(t.next_id) if v not in held)
    with pytest.raises(graph_mod.UnknownNodeError):
        sim.force_whitewash(dropped)
    washer = live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0]
    assert sim.force_whitewash(washer) == twin.force_whitewash(washer) == t.next_id - 1
    assert washer not in t and t.next_id - 1 in t
    assert sim.step() == never_compacting(twin)
    assert oracles.adjacency(t) == oracles.adjacency(u)


@pytest.mark.parametrize("cfg", [
    SimConfig(topology="regular", n=3000, legit_departure_prob=0.002, gossip_noise=0.05,
              iterations=200, seed=0),
    SimConfig(n=300, growth_percent_per_10=8.0, iterations=300, seed=0),
], ids=["regular-departures-noise", "scale_free-growth"])
def test_per_node_arrays_follow_the_live_overlay(cfg):
    # Every whitewash rejoin takes a fresh id, but the arrays indexed by
    # row, the topology's, the engine's and the estimator's, hold at most
    # twice the peak live count plus one growth batch after every step, as
    # compactions drop the rows of removed nodes and growth leaves room for
    # twice the live nodes only (ROADMAP item 8). The regular run issues
    # more ids than that; on the growing one, doubling the rows held, dead
    # ones included, would pass it.
    sim = Simulation(cfg)
    t, est = sim.topology, sim._est
    peak = cfg.n
    for _ in range(cfg.iterations):
        sim.step()
        peak = max(peak, t.node_count)
        bound = 2 * peak + math.ceil(peak * cfg.growth_percent_per_10 / 100)
        arrays = [getattr(sim, name) for name in engine._ID_ROWS]
        arrays += [*est._ring, est._peak, est.offers, est._prev_ndsum]
        arrays += [getattr(t, name) for name in ("_ids", "_start", "_fill", "_cap", "_degree",
                                                  "_live", "_deg", "_nds", "_touched",
                                                  "_arrived", "_benign_gone", "_pool_copies")]
        assert max(map(len, arrays)) <= bound, (sim.iteration, t.rows, peak)
    assert t.rows < t.next_id
    if cfg.topology == "regular":
        assert t.next_id > bound


def test_arrivals_book_one_count_per_host():
    # A rejoin and a growth arrival attach the same way, one `_attach` each:
    # attach_edges hosts drawn by degree, one arrival booked at each. Each
    # arrival's first host is logged by id as it attaches.
    sim = Simulation(SimConfig(n=100, iterations=0, growth_percent_per_10=3.0, seed=4))
    sim.auto_whitewash = False
    log = oracles.JoinLog(sim)
    for _ in range(9):
        log.step()
    first_host = {}
    t = sim.topology
    attach = t._attach

    def logged(count, rng):
        hosts = attach(count, rng)
        first_host[t.next_id - 1] = int(t.ids_at(hosts[0]))
        return hosts

    t._attach = logged
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
        row = oracles.rows(sim, v)
        assert sim.reputation[row] == sim.grant[row] == sim._est.offers[
            oracles.rows(sim, first_host[v])
        ]
        assert sim.attempts[row] == sim.successes[row] == 0
    arrived = oracles.books(t).arrived
    assert arrived == dict(collections.Counter(hosts))
    assert sum(arrived.values()) == 3 * 3


def test_founders_register_like_every_later_id():
    # The founders take the registration path of every later id. Their rows
    # hold exactly `agents.init_population`'s draws at the same point of
    # the same stream, right after the overlay's build, with zero counters
    # and grants, in the dtypes `_ID_ROWS` lists; their windows, peaks and
    # offers are bit for bit an estimator over the first snapshot primed at
    # r_ini_max0; and every array indexed by node id has one length after
    # set-up, and again after a rejoin that outruns it.
    for cfg in (
        SimConfig(n=50, iterations=0, seed=3, window_n_prime=4),
        SimConfig(topology="regular", n=40, degree=4, iterations=0, seed=5, r_ini_max0=0.2,
                  r_ini_min=0.01),
    ):
        sim = Simulation(cfg)
        rng = oracles.draws(cfg.seed)
        if cfg.topology == "scale_free":
            t = graph_mod.generate_scale_free(cfg.n, cfg.attach_edges, rng)
        else:
            t = graph_mod.generate_regular(cfg.n, cfg.degree, rng)
        role, reputation, honesty = agents.init_population(cfg.n, cfg.r_ini_max0, rng)
        assert sim.rng.random() == rng.random()  # set-up drew nothing else
        for name, want in (("role_code", role), ("reputation", reputation), ("honesty", honesty),
                           ("attempts", 0), ("successes", 0), ("grant", 0.0)):
            got = getattr(sim, name)
            assert got.dtype == engine._ID_ROWS[name], name
            np.testing.assert_array_equal(got, np.broadcast_to(want, cfg.n), name)
        ref = EstimatorArrays(cfg.window_n_prime, t.neighbor_degree_array()[0])
        ref.prime(slice(0, cfg.n), cfg.r_ini_max0)
        est = sim._est
        for got, want in zip((*est._ring, est._peak, est.offers, est._prev_ndsum),
                             (*ref._ring, ref._peak, ref.offers, ref._prev_ndsum)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert set(est.offers.tolist()) == set(est._peak.tolist()) == {cfg.r_ini_max0}
        assert row_lengths(sim) == {cfg.n}
        washer = live_with_role(sim, Role.POTENTIAL_WHITEWASHER)[0]
        new_id = sim.force_whitewash(washer)
        assert new_id == cfg.n and row_lengths(sim) == {2 * cfg.n}
        row = oracles.rows(sim, new_id)
        assert sim.role_code[row] == Role.POTENTIAL_WHITEWASHER.value
        assert sim._est._peak[row] == sim._est.offers[row] == cfg.r_ini_max0


def test_growth_batch_matches_the_per_arrival_registration():
    # A growth batch is registered in one write: all its ids grow the arrays
    # indexed by node id once and are primed together, and only then are
    # the grants read from the first hosts' offers. Against the per-arrival
    # rule (oracles.grow_one_at_a_time) on the same draws, every record,
    # every fact of every id, every window and offer, and the topology must
    # agree. The runs cover arrivals whose first host arrived earlier in the
    # same batch, which are granted the prime, and batches that straddle the
    # arrays' capacity, after which all of them, the engine's and the
    # estimator's, still have one length on both sides.
    seen = collections.Counter()
    for seed in range(3):
        for washing in (False, True):
            cfg = SimConfig(n=100, growth_percent_per_10=40.0, iterations=0, seed=seed)
            batch, single = Simulation(cfg), Simulation(cfg)
            batch.auto_whitewash = single.auto_whitewash = washing
            grow, arrivals = batch._grow_population, []

            def batch_grow(batch=batch, grow=grow):
                first, capacity = batch.topology.rows, len(batch.role_code)
                first_id = batch.topology.next_id
                grow()
                seen["straddled"] += first < capacity < batch.topology.rows
                for vid, host in arrivals:
                    if host >= first_id:
                        assert batch.grant[oracles.rows(batch, vid)] == batch.r_est, (seed, vid)
                        seen["host in batch"] += 1

            def single_grow(single=single):
                arrivals[:] = oracles.grow_one_at_a_time(single)

            batch._grow_population, single._grow_population = batch_grow, single_grow
            for _ in range(30):
                # The oracle steps first, so that the batch can read its arrivals.
                want = single.step()
                assert batch.step() == want
                end = batch.topology.rows
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
                for sim in (batch, single):
                    assert len(row_lengths(sim)) == 1, row_lengths(sim)
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

    levels = oracles.sweep_levels(sim._est)
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
        assert levels.get(oracles.rows(sim, i), 0.0) == pytest.approx(expect, abs=1e-12)
        checked += 1
    assert checked > 50
    assert sum(levels.values()) > 0


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


@pytest.mark.parametrize("topology", ["regular", "scale_free"])
def test_closed_world_truth_reads_the_overlay_the_estimate_reads(topology, monkeypatch):
    # With departures on, the check step removes nodes after its estimate.
    # The planted level is recounted here from the overlay as it stands
    # just before that step and from each planted node's hosts; it must be
    # the truth the check returns (it once read the overlay after the
    # step's departures).
    cfg = SimConfig(topology=topology, n=1000, degree=6, legit_departure_prob=0.01,
                    iterations=0, seed=3)
    force, step = Simulation.force_whitewash, Simulation.step
    hosts, before = [], {}

    def planting(sim, vid):
        new_id = force(sim, vid)
        hosts.extend(sim.topology.neighbors(new_id))
        return new_id

    def stepping(sim):
        if hosts and not before:  # the check step, the first after planting
            before.update(oracles.adjacency(sim.topology))
        return step(sim)

    monkeypatch.setattr(Simulation, "force_whitewash", planting)
    monkeypatch.setattr(Simulation, "step", stepping)
    _, true = engine.closed_world_estimator_check(cfg, 10)
    arrivals = collections.Counter(hosts)
    level = 0.0
    for i in sorted(before):
        den = sum(len(before[u]) for u in before[i])
        if den > 0:
            level += min(sum(arrivals[j] for j in before[i]) / den, 1.0)
    assert level > 0
    assert true == level / len(before)


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
