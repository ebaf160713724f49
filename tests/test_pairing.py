"""The pairing model of `graph.generate_regular` against the stub-pair loop
of `oracles.pairing_attempt`: attempt by attempt, the same edges in the
same order or the same failed attempt, and the same draws taken.
`--hypothesis-profile=ci` (see conftest.py) runs more examples."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import oracles
from p2psim import graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def pair_against_the_loop(n: int, degree: int, seed: int) -> collections.Counter:
    """Retry both from one seed as `generate_regular` retries, and require
    equal results and equal bit generator states. Returns what the attempts
    covered: rounds after the first and failed attempts (restarts)."""
    rng_got, rng_want = oracles.draws(seed), oracles.draws(seed)
    covered: collections.Counter = collections.Counter()
    for attempt in range(graph._PAIRING_RETRY_CAP):
        got = graph._try_pairing(n, degree, rng_got)
        want, rounds = oracles.pairing_attempt(n, degree, rng_want)
        covered["several rounds"] += rounds > 1
        if want is None:
            assert got is None, f"attempt {attempt}"
            covered["restart"] += 1
            continue
        assert got.dtype == np.int64 and got.shape == (len(want), 2), f"attempt {attempt}"
        assert got.tolist() == [list(e) for e in want], f"attempt {attempt}"
        break
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return covered


@hypothesis.settings(deadline=None, database=None)
@hypothesis.given(n=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_pairing_matches_the_stub_loop(n, data, seed):
    degree = data.draw(
        st.sampled_from([d for d in range(1, n) if n * d % 2 == 0]), label="degree"
    )
    for what, count in pair_against_the_loop(n, degree, seed).items():
        if count:
            hypothesis.event(what)


def test_dense_pairings_take_several_rounds_and_restart():
    # Near the complete graph most pairs collide, so an attempt takes
    # several rounds and often fails outright. The full-size overlay of
    # regular-departures' set-up takes one attempt of several rounds.
    covered: collections.Counter = collections.Counter()
    for n, degree, seed in [(10, 7, 0), (12, 9, 1), (14, 12, 2), (16, 13, 3), (9, 6, 4)]:
        covered += pair_against_the_loop(n, degree, seed)
    assert covered["several rounds"] > 10 and covered["restart"] > 5, covered
    assert pair_against_the_loop(10000, 6, 0) == {"several rounds": 1}

