from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from p2psim import game
from p2psim.game import GameSpec, NoRootError


def spec(kappa, rounds, r_max=0.5, r_min=0.03, honesty=None):
    return GameSpec(kappa, rounds, r_max, r_min, honesty)


def uniform(s: GameSpec) -> np.ndarray:
    """The uniform round lottery of every player, for the oracle loops."""
    return np.full((s.kappa, s.rounds), 1.0 / s.rounds)


# ---- Monte-Carlo oracle ------------------------------------------------
#
# Samples joint round assignments directly and averages realized offers,
# independent of the enumeration path.


def monte_carlo_payoffs(s: GameSpec, draws: int, seed: int):
    rng = np.random.default_rng(seed)
    schedule = np.array(s.schedule())
    assign = rng.integers(0, s.rounds, size=(draws, s.kappa))
    round_counts = np.stack(
        [(assign == i).sum(axis=1) for i in range(s.rounds)], axis=1
    )
    co = np.take_along_axis(round_counts, assign, axis=1)
    offers = schedule[co - 1]
    accepted = offers >= np.array(s.honesty)[None, :]
    payoffs = np.where(accepted, offers, 0.0)
    return payoffs.mean(axis=0), payoffs.std(axis=0) / math.sqrt(draws)


# ---- schedule ------------------------------------------------------------


def test_schedule_three_players():
    assert game.reputation_schedule(3, 0.5, 0.03) == pytest.approx(
        [4 / 9 * 0.5, 1 / 9 * 0.5, 0.03]
    )


def test_schedule_two_and_one_players():
    assert game.reputation_schedule(2, 0.5, 0.03) == pytest.approx([0.125, 0.03])
    assert game.reputation_schedule(1, 0.5, 0.03) == [0.03]


def test_schedule_strictly_decreasing_until_floor():
    sched = game.reputation_schedule(8, 0.9, 0.001)
    above = [v for v in sched if v > 0.001]
    assert above == sorted(above, reverse=True)
    assert len(set(above)) == len(above)
    assert sched[-1] == 0.001


def test_schedule_validation():
    with pytest.raises(ValueError):
        game.reputation_schedule(0, 0.5, 0.03)
    with pytest.raises(ValueError):
        game.reputation_schedule(3, 0.03, 0.5)


# ---- spec ----------------------------------------------------------------


def test_default_honesty_is_the_schedule():
    s = spec(3, 3)
    assert s.honesty == pytest.approx(tuple(s.schedule()))


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(3, 3, honesty=(0.1, 0.2, 0.3))  # increasing
    with pytest.raises(ValueError):
        spec(3, 3, honesty=(0.5, 0.2))  # wrong length
    with pytest.raises(ValueError):
        GameSpec(0, 1)


# ---- pure strategies ------------------------------------------------------


def test_two_player_table():
    report = game.pure_strategy_analysis(spec(2, 1))
    table, _, _ = oracles.pure_strategy_analysis(spec(2, 1))
    assert table[(1, 1)] == pytest.approx((0.03, 0.03))
    assert table[(1, 0)] == pytest.approx((0.125, 0.0))
    assert table[(0, 1)] == pytest.approx((0.0, 0.125))
    assert table[(0, 0)] == (0.0, 0.0)
    assert report.whitewash_weakly_dominant
    assert report.all_whitewash_payoff == pytest.approx(0.03)
    assert "0" in report.collapse_note


def test_two_player_zero_floor():
    zero_floor = GameSpec(2, 1, 0.5, 0.0, (0.0, 0.0))
    report = game.pure_strategy_analysis(zero_floor)
    table, _, _ = oracles.pure_strategy_analysis(zero_floor)
    assert table[(1, 1)] == (0.0, 0.0)
    assert report.whitewash_weakly_dominant


def test_three_player_all_whitewash():
    table, _, _ = oracles.pure_strategy_analysis(spec(3, 1))
    assert table[(1, 1, 1)] == pytest.approx((0.03, 0.03, 0.03))
    assert table[(0, 1, 0)] == pytest.approx((0.0, 4 / 9 * 0.5, 0.0))
    assert table[(1, 1, 0)] == pytest.approx((1 / 18, 1 / 18, 0.0))


@pytest.mark.parametrize("kappa", range(2, 11))
@pytest.mark.parametrize("r_min", [0.0, 0.03])
def test_pure_strategy_closed_form_matches_the_table(kappa, r_min):
    # Custom honesty changes the timing game's acceptances, not the raw
    # offers of the one-shot table.
    honesty = tuple(np.linspace(0.9, 0.1, kappa))
    for s in (spec(kappa, 1, r_min=r_min), spec(kappa, 1, r_min=r_min, honesty=honesty)):
        report = game.pure_strategy_analysis(s)
        _, dominant, all_w = oracles.pure_strategy_analysis(s)
        assert report.kappa == kappa
        assert report.whitewash_weakly_dominant is dominant is True
        assert report.all_whitewash_payoff == all_w  # the same float


# ---- mixed equilibrium -----------------------------------------------------


@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_uniform_equilibrium(kappa):
    s = spec(kappa, kappa)
    assert game.mixed_equilibrium(s) < 1e-9
    assert oracles.indifference_residual(s, uniform(s)) < 1e-9


def test_equilibrium_carries_its_residual():
    s = spec(5, 4)
    assert game.mixed_equilibrium(s) == game.indifference_residual(s)


def test_mixed_requires_enough_rounds():
    with pytest.raises(ValueError):
        game.mixed_equilibrium(spec(3, 1))
    with pytest.raises(ValueError):
        game.mixed_equilibrium(spec(2, 3))


# ---- expected payoffs -------------------------------------------------------


def test_three_round_payoffs_match_pinned_values():
    s = spec(3, 3)
    u = game.expected_payoffs(s)
    assert u[0] == pytest.approx(16 / 81 * 0.5, abs=1e-12)
    assert u[1] == pytest.approx(20 / 81 * 0.5, abs=1e-12)
    assert u[2] == pytest.approx(20 / 81 * 0.5 + 1 / 9 * 0.03, abs=1e-12)


def test_two_round_payoffs_match_pinned_values():
    s = spec(3, 2)
    u = game.expected_payoffs(s)
    assert u[0] == pytest.approx(4 / 36 * 0.5, abs=1e-12)
    assert u[1] == pytest.approx(6 / 36 * 0.5, abs=1e-12)
    assert u[2] == pytest.approx(6 / 36 * 0.5 + 1 / 4 * 0.03, abs=1e-12)


def test_equal_thresholds_give_equal_payoffs():
    s = GameSpec(4, 4, 0.5, 0.03, honesty=(0.03,) * 4)
    u = game.expected_payoffs(s)
    assert np.ptp(u) < 1e-12


def test_degenerate_profile_concentrates_co_arrivals():
    s = spec(2, 2)
    both_first = np.array([[1.0, 0.0], [1.0, 0.0]])
    u = oracles.expected_payoffs(s, both_first)
    # both land together: the floor offer, which player 0's threshold rejects
    assert u == pytest.approx([0.0, 0.03])


@pytest.mark.parametrize("kappa,rounds", [(2, 2), (3, 3), (4, 4), (5, 5), (5, 3)])
def test_enumeration_matches_monte_carlo(kappa, rounds):
    s = spec(kappa, rounds)
    exact = game.expected_payoffs(s)
    approx, se = monte_carlo_payoffs(s, draws=10**6, seed=kappa * 100 + rounds)
    for j in range(kappa):
        assert abs(exact[j] - approx[j]) < 3 * max(se[j], 1e-9), (j, exact, approx)


def test_enumeration_cap(monkeypatch):
    # The cap bounds the terms formed, kappa * (rounds^kappa + kappa), not
    # kappa: 13 players over 2 rounds form 106,665 and run.
    s = spec(13, 2)
    assert game.expected_payoffs(s).tobytes() == oracles.expected_payoffs(s, uniform(s)).tobytes()
    for kappa, rounds in [(8, 8), (12, 12)]:
        with pytest.raises(ValueError):
            game.expected_payoffs(spec(kappa, rounds))
        with pytest.raises(ValueError):
            game.indifference_residual(spec(kappa, rounds))
    # 10^4 players in one round: a rows-only bound would admit it and its
    # 10^8-cell realized-offer table; the check refuses it before any table.
    wide = spec(10**4, 1)

    def no_table(_):
        raise AssertionError("built the realized-offer table")

    monkeypatch.setattr(game, "_realized_offers", no_table)
    with pytest.raises(ValueError):
        game.expected_payoffs(wide)
    with pytest.raises(ValueError):
        game.indifference_residual(wide)


# ---- array kernels against the scalar loops ----------------------------------
#
# The kernels must give the same floats as the loops in tests/oracles.py,
# not just close ones: game-report prints the residual's rounding noise.


def random_game(rng, kappa, rounds):
    """A spec with random non-increasing honesty, or the default."""
    honesty = None
    if rng.random() < 0.5:
        honesty = tuple(sorted((float(h) for h in rng.random(kappa) * 0.4), reverse=True))
    return spec(kappa, rounds, honesty=honesty)


def assert_kernels_match_loops(s):
    expected = oracles.expected_payoffs(s, uniform(s))
    assert game.expected_payoffs(s).tobytes() == expected.tobytes()
    assert game.indifference_residual(s) == oracles.indifference_residual(s, uniform(s))


KERNEL_SIZES = [(k, r) for k in range(1, 7) for r in range(1, 8) if k * r**k <= 60_000]


# (6, 6) fills more than one 4,096-row block, so it enumerates a head at the
# shipped block size.
@pytest.mark.parametrize("kappa,rounds", KERNEL_SIZES + [(6, 6)])
def test_kernels_match_loops_bit_for_bit(kappa, rounds):
    rng = np.random.default_rng(kappa * 10 + rounds)
    for _ in range(3):
        assert_kernels_match_loops(random_game(rng, kappa, rounds))


def test_kernels_carry_sums_across_blocks(monkeypatch):
    # Blocks of one row each (every player in the head, an empty tail) and
    # of at most 7 rows, which divides none of the sizes below.
    rng = np.random.default_rng(5)
    for block in (1, 7):
        monkeypatch.setattr(game, "ENUMERATION_BLOCK_ROWS", block)
        for kappa, rounds in [(3, 3), (4, 3), (4, 4), (5, 2)]:
            assert_kernels_match_loops(random_game(rng, kappa, rounds))


def test_kernels_match_loops_on_any_small_game(monkeypatch):
    # Any uniform game of up to 5 players whose loops stay quick, with random
    # non-increasing honesty (or the schedule), each enumerated in blocks of
    # one row, of at most 7 rows and of the shipped size.
    # `--hypothesis-profile=ci` runs more examples.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        kappa = draw(st.integers(1, 5))
        rounds = draw(st.integers(1, {1: 12, 2: 12, 3: 8, 4: 6, 5: 6}[kappa]))
        honesty = draw(
            st.none()
            | st.lists(st.floats(0.0, 1.0), min_size=kappa, max_size=kappa).map(
                lambda h: tuple(sorted(h, reverse=True))
            )
        )
        return spec(kappa, rounds, honesty=honesty)

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(games())
    def check(s):
        expected = oracles.expected_payoffs(s, uniform(s))
        residual = oracles.indifference_residual(s, uniform(s))
        for block in (1, 7, 4096):
            monkeypatch.setattr(game, "ENUMERATION_BLOCK_ROWS", block)
            assert game.expected_payoffs(s).tobytes() == expected.tobytes(), block
            assert game.indifference_residual(s) == residual, block

    check()


def test_uniform_six_player_residual_is_the_loop_noise():
    # The value game-report prints for perfbench's analytics config.
    assert game.indifference_residual(spec(6, 6)) == 6.022959908591474e-15


# ---- span comparison ---------------------------------------------------------


def test_span_report_three_players():
    report = game.best_randomization_span(spec(3, 3))
    assert report.spans == (2, 3)
    u2, u3 = report.payoffs_by_span[2], report.payoffs_by_span[3]
    assert u3[0] >= u2[0] and u3[1] >= u2[1]
    assert report.full_span_dominates
    assert report.best_span_per_player == (3, 3, 3)
    assert report.every_round_payoffs == pytest.approx(tuple(3 * u for u in u3))
    assert any("18/81" in n and "20/81" in n for n in report.notes)


def test_span_report_two_players():
    report = game.best_randomization_span(spec(2, 2))
    assert report.spans == (2,)
    assert report.best_span_per_player == (2, 2)


def test_span_report_four_players():
    report = game.best_randomization_span(spec(4, 4))
    u = report.payoffs_by_span
    assert u[4][0] > u[3][0] > u[2][0]
    assert report.full_span_dominates


# ---- operating point ----------------------------------------------------------


def test_fixed_point_closed_form():
    w = game.fixed_point(0.5, 0.03, 0.5)
    assert w == pytest.approx((3 - math.sqrt(5)) / 4, abs=1e-9)
    # genuine fixed point
    assert abs(max(0.03, (1 - w / 0.5) ** 2 * 0.5) - w) < 1e-8


def test_fixed_point_degenerate_ceiling():
    assert game.fixed_point(0.0, 0.03, 0.5) == pytest.approx(0.03, abs=1e-9)


def test_fixed_point_monotone_in_w_max():
    grid = np.linspace(0.1, 1.0, 10)
    points = [game.fixed_point(0.5, 0.03, float(w)) for w in grid]
    assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))


def test_fixed_point_no_root():
    with pytest.raises(NoRootError):
        game.fixed_point(0.5, 0.03, 0.01)
    with pytest.raises(ValueError):
        game.fixed_point(0.5, 0.03, 0.0)
