"""`Draws` against its oracle, numpy's `Generator` on the same seed: every
value and the final `bit_generator.state` must be equal, for single draws,
mixed sequences and whole simulation runs. `below(n)` is checked against
`Generator.integers(n)`, directly and through `oracles.GeneratorDraws`, the
adapter that runs the sampler and whole runs on the plain Generator; any
bound, through `oracles.draws_integers`."""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from oracles import GeneratorDraws, draws_integers
from p2psim import engine, graph
from p2psim.draws import Draws
from p2psim.engine import SimConfig

# 1 draws nothing, 2**31 + 1 rejects almost half its draws, 2**32 - 1 is the
# largest bound with a rejection threshold, 2**32 (threshold 0) takes a bare
# 32-bit half, 2**33 + 5 goes to numpy. `below` serves every bound from 2 to 2**32.
BOUNDS = (1, 2, 3, 1000, 46921, 2**31 + 1, 2**32 - 1, 2**32, 2**33 + 5)
BELOW_BOUNDS = tuple(b for b in BOUNDS if 2 <= b <= 2**32)
SEEDS = (0, 1, 7, 12345)


def pair(seed: int, chunk: int = 1024) -> tuple[np.random.Generator, Draws]:
    return np.random.default_rng(seed), Draws(np.random.default_rng(seed), chunk=chunk)


def assert_same_state(g: np.random.Generator, d: Draws) -> None:
    assert d.bit_generator.state == g.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bound", BOUNDS)
def test_integers_match_numpy_at_each_bound(seed, bound):
    g, d = pair(seed, chunk=7)
    for _ in range(300):
        expected, got = g.integers(bound), draws_integers(d, bound)
        assert got == expected
    if bound <= 2**32:
        assert type(got) is int
    assert_same_state(g, d)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bound", BELOW_BOUNDS)
def test_below_matches_numpy_at_each_bound(seed, bound):
    g, d = pair(seed, chunk=7)
    for _ in range(300):
        expected, got = g.integers(bound), d.below(bound)
        assert got == expected
    assert type(got) is int
    assert_same_state(g, d)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scalar_and_arrays_match_numpy_across_chunks(seed):
    g, d = pair(seed, chunk=16)
    for k in (None, 0, 1, 5, 15, 16, 17, None, 40, 3, 100, None, None, 1000):
        expected, got = g.random(k), d.random(k)
        if k is None:
            assert type(got) is float and got == expected
        else:
            assert got.dtype == np.float64 and np.array_equal(got, expected)
    assert_same_state(g, d)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_permutation_and_shuffle_match_numpy(seed):
    g, d = pair(seed, chunk=5)
    for lo, hi in [(0.0, 1.0), (0.95, 1.05), (-3.5, 2.25), (2.0, 2.0)]:
        assert d.uniform(lo, hi) == g.uniform(lo, hi)
        assert draws_integers(d, 10) == g.integers(10)  # leaves a spare half
    assert np.array_equal(d.uniform(0.0, 1.0, 9), g.uniform(0.0, 1.0, 9))
    assert np.array_equal(d.permutation(30), g.permutation(30))
    a, b = np.arange(50), np.arange(50)
    d.shuffle(a)
    g.shuffle(b)
    assert np.array_equal(a, b)
    assert draws_integers(d, 7) == g.integers(7)
    assert_same_state(g, d)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("chunk", (1, 3, 64, 1024))
def test_mixed_sequences_match_numpy(seed, chunk):
    g, d = pair(seed, chunk)
    ops = random.Random(seed * 1000 + chunk)
    for step in range(3000):
        op = ops.randrange(10)
        if op < 4:
            bound = ops.choice(BOUNDS)
            assert draws_integers(d, bound) == g.integers(bound), step
        elif op < 6:
            assert d.random() == g.random(), step
        elif op == 6:
            k = ops.randrange(3 * chunk + 2)
            assert np.array_equal(d.random(k), g.random(k)), step
        elif op == 7:
            lo = ops.random()
            hi = lo + ops.random()
            assert d.uniform(lo, hi) == g.uniform(lo, hi), step
        elif op == 8:
            n = ops.randrange(1, 20)
            assert np.array_equal(d.permutation(n), g.permutation(n)), step
        elif ops.random() < 0.3:
            d.sync()
    assert_same_state(g, d)


def test_interleaved_draws_match_the_generator_adapter():
    # Any sequence of the draws a run makes, on `Draws` at any chunk size
    # and on a plain Generator behind `GeneratorDraws`, from the same seed.
    # `--hypothesis-profile=ci` runs more examples.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("below"), st.sampled_from(BELOW_BOUNDS)),
            st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
            st.tuples(st.sampled_from(["random", "uniform"]), st.none()),
            st.tuples(st.sampled_from(["random", "permutation", "shuffle"]), st.integers(0, 40)),
        ),
        max_size=60,
    )

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 3, 7, 1024]),
                      ops=ops)
    def check(seed, chunk, ops):
        d = Draws(np.random.default_rng(seed), chunk=chunk)
        g = GeneratorDraws(np.random.default_rng(seed))
        for step, (name, arg) in enumerate(ops):
            if name == "uniform":
                assert d.uniform(0.25, 4.5) == g.uniform(0.25, 4.5), step
            elif name == "shuffle":
                a, b = np.arange(arg), np.arange(arg)
                d.shuffle(a)
                g.shuffle(b)
                assert np.array_equal(a, b), step
            elif name == "integers":
                assert draws_integers(d, arg) == g.integers(arg), step
            else:
                got, expected = getattr(d, name)(arg), getattr(g, name)(arg)
                assert np.array_equal(got, expected), step
        assert d.bit_generator.state == g.bit_generator.state

    check()


def test_a_spare_half_used_between_syncs_is_written_back():
    # The first integers draw leaves the high half of its word spare; a
    # sync writes it back. The second call uses it without taking a word,
    # so the next sync advances by nothing but must still clear the spare.
    g, d = pair(3)
    assert draws_integers(d, 100) == g.integers(100)
    d.sync()
    assert d._bg.state == g.bit_generator.state
    assert d._bg.state["has_uint32"] == 1
    assert draws_integers(d, 100) == g.integers(100)
    d.sync()
    assert d._bg.state == g.bit_generator.state
    assert d._bg.state["has_uint32"] == 0
    assert_same_state(g, d)


def test_sync_rewinds_over_the_words_read_ahead():
    # One draw reads a whole chunk ahead from the run's own bit generator; a
    # sync steps it back over the 1,023 words not taken and drops them, and
    # the draws after it read ahead again from there.
    g, d = pair(11, chunk=1024)
    assert d.random() == g.random()
    assert len(d._words) == 1023
    d.sync()
    assert d._bg.state == g.bit_generator.state
    assert not d._words
    for _ in range(20):
        assert draws_integers(d, 2**31 + 1) == g.integers(2**31 + 1)
        assert d.random() == g.random()
    assert_same_state(g, d)


def test_calls_numpy_cannot_replay_go_to_numpy():
    g, d = pair(5)
    assert draws_integers(d, 2, 9) == g.integers(2, 9)
    assert np.array_equal(draws_integers(d, 5, size=4), g.integers(5, size=4))
    assert draws_integers(d, np.int64(6)) == g.integers(np.int64(6))
    assert np.array_equal(d.random((2, 3)), g.random((2, 3)))
    for bad in (0, -4):
        with pytest.raises(ValueError):
            draws_integers(d, bad)
    with pytest.raises(ValueError):
        d.random(-1)
    with pytest.raises(OverflowError):
        d.uniform(-1e308, 1e308)
    assert_same_state(g, d)


def test_only_pcg64_is_replayed():
    with pytest.raises(TypeError):
        Draws(np.random.Generator(np.random.MT19937(0)))


# ---- whole runs -------------------------------------------------------------

# A tiny growing tree: whitewash rejoins leave nodes with no edges, so
# attachment falls back on the isolated-node fill (`permutation`), and
# stale pool entries force rebuilds. A noisy regular overlay with voluntary
# departures draws gossip factors and `random(k)` batches.
WHOLE_RUNS = {
    "scale-free growth": SimConfig(n=2, attach_edges=1, growth_percent_per_10=30.0,
                                   iterations=100, seed=0),
    "regular departures noise": SimConfig(topology="regular", n=300, degree=6,
                                          legit_departure_prob=0.01, gossip_noise=0.05,
                                          iterations=120, seed=2),
}


def run_counted(cfg: SimConfig, monkeypatch, plain: bool):
    """The run's records, final bit-generator state, and how often the pool
    was rebuilt and the isolated fill ran; driven by `Draws` or, with
    `plain`, by the Generator it wraps, behind `GeneratorDraws`, so that
    every draw comes from numpy's own methods."""
    counts = {"rebuild": 0, "fill": 0}
    rebuild = graph.Topology._rebuild_pool
    sample = graph.Topology.sample_attachment_targets

    def counted_rebuild(self):
        counts["rebuild"] += 1
        rebuild(self)

    def counted_sample(self, count, rng):
        counts["fill"] += self.node_count - self.isolated_count < min(count, self.node_count)
        return sample(self, count, rng)

    with monkeypatch.context() as m:
        if plain:
            m.setattr(engine, "Draws", GeneratorDraws)
        m.setattr(graph.Topology, "_rebuild_pool", counted_rebuild)
        m.setattr(graph.Topology, "sample_attachment_targets", counted_sample)
        sim = engine.Simulation(cfg)
        assert isinstance(sim.rng, GeneratorDraws if plain else Draws)
        records = [sim.step() for _ in range(cfg.iterations)]
    return records, sim.rng.bit_generator.state, counts


@pytest.mark.parametrize("name", WHOLE_RUNS)
def test_a_run_on_draws_equals_the_run_on_the_plain_generator(name, monkeypatch):
    cfg = WHOLE_RUNS[name]
    plain = run_counted(cfg, monkeypatch, plain=True)
    drawn = run_counted(cfg, monkeypatch, plain=False)
    assert drawn[0] == plain[0]
    assert drawn[1] == plain[1]
    assert drawn[2] == plain[2]
    if name == "scale-free growth":
        assert drawn[2]["rebuild"] > 0 and drawn[2]["fill"] > 0
    else:
        assert drawn[0][-1].n_nodes < cfg.n  # departures drew and fired


@pytest.mark.parametrize("name", WHOLE_RUNS)
def test_a_run_draws_its_bounded_ints_through_below_alone(name, monkeypatch):
    # Both bounded draws of a run, the sampler's host index and the wave's
    # probe target, go through `below` with a Python int bound of at least
    # 2, and no bounded int is drawn through numpy's `integers`.
    bounds, callers, integer_calls = [], set(), []
    below, delegate = Draws.below, Draws._delegate

    def checked_below(self, n):
        bounds.append(n)
        callers.add(sys._getframe(1).f_code.co_name)
        return below(self, n)

    def counted_delegate(self, name, *args, **kwargs):
        if name == "integers":
            integer_calls.append(args)
        return delegate(self, name, *args, **kwargs)

    monkeypatch.setattr(Draws, "below", checked_below)
    monkeypatch.setattr(Draws, "_delegate", counted_delegate)
    cfg = WHOLE_RUNS[name]
    sim = engine.Simulation(cfg)
    for _ in range(cfg.iterations):
        sim.step()
    assert callers == {"sample_attachment_targets", "_whitewash_wave"}
    assert all(type(n) is int and n >= 2 for n in bounds)
    assert integer_calls == []
    assert not hasattr(sim.rng, "integers")
