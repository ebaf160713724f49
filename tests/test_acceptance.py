"""Release gate: every shipping criterion, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
and their measured numbers.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from test_golden import GRID_DIGESTS, csv_digest
from test_payoff import ledger_coop, ledger_defector, random_params

from p2psim import cli, engine, game, payoff
from p2psim.engine import SimConfig
from p2psim.game import GameSpec
from p2psim.payoff import IdentityRegime, PayoffParams

PERM = IdentityRegime.PERMANENT
ZERO = IdentityRegime.ZERO_COST
FINITE = IdentityRegime.FINITE_COST


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"AC-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"AC-{num:02d} {name}: {detail}"


def test_ac01_feasibility_frontier():
    start = time.perf_counter()
    r_star, x_star = payoff.max_feasible_r_ini(0.5, 1.0)
    elapsed = time.perf_counter() - start
    ok = abs(r_star - 0.036) <= 0.002 and 0.65 <= x_star <= 0.80 and elapsed < 1.0
    report(1, "feasibility frontier", ok,
           f"r*={r_star:.6f}, x*={x_star:.4f}, {elapsed:.2f}s")


def test_ac02_optimal_exponent():
    start = time.perf_counter()
    xs = {mu: payoff.optimal_x_permanent(mu) for mu in (0.3, 0.5, 0.7)}
    elapsed = time.perf_counter() - start
    ok = all(abs(x - 0.5) <= 0.01 for x in xs.values()) and elapsed < 1.0
    detail = ", ".join(f"mu={mu}: x={x:.4f}" for mu, x in xs.items())
    report(2, "optimal exponent", ok, f"{detail}, {elapsed:.2f}s")


def test_ac03_ideal_network_never_crosses():
    p = PayoffParams(mu=1.0, x=0.5, r_ini=0.036, delta=0.0)
    k = payoff.crossover_round(p, PERM)
    report(3, "ideal network divergence", k == math.inf, f"crossover={k}")


def test_ac04_payoff_ledger_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 101))
        for regime in (PERM, ZERO, FINITE):
            p = random_params(rng, z_positive=regime is FINITE)
            for closed, ledger in (
                (payoff.coop_payoff, ledger_coop),
                (payoff.defector_payoff, ledger_defector),
            ):
                a, b = float(closed(p, k, regime)), ledger(p, k, regime)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ledger_ok = worst <= 1e-12

    checked = 0
    worst_gap = 0.0
    for _ in range(300):
        regime = (PERM, ZERO, FINITE)[int(rng.integers(3))]
        p = random_params(rng, z_positive=regime is FINITE)
        p = dataclasses.replace(p, delta=0.0)
        th = payoff.closed_form_threshold(p, regime)
        if th is None or th > 5e5:
            continue
        k = payoff.crossover_round(p, regime)
        worst_gap = max(worst_gap, abs(k - th))
        checked += 1
    cross_ok = checked > 50 and worst_gap <= 1.0
    report(4, "payoff ledger oracle", ledger_ok and cross_ok,
           f"worst ledger error {worst:.2e} over 6000 comparisons, "
           f"crossover gap <= {worst_gap:.3f} rounds over {checked} cases")


def test_ac05_reputation_schedule():
    s3 = game.reputation_schedule(3, 0.5, 0.03)
    s2 = game.reputation_schedule(2, 0.5, 0.03)
    errs = [
        abs(s3[0] - 4 / 9 * 0.5),
        abs(s3[1] - 1 / 9 * 0.5),
        abs(s3[2] - 0.03),
        abs(s2[0] - 0.5 / 4),
        abs(s2[1] - 0.03),
    ]
    report(5, "reputation schedule", max(errs) <= 1e-12,
           f"max deviation {max(errs):.2e}")


def test_ac06_mixed_equilibria():
    residuals = {}
    for kappa in (2, 3, 4):
        s = GameSpec(kappa, kappa)
        residuals[kappa] = game.indifference_residual(s)
    residual_ok = all(r < 1e-9 for r in residuals.values())

    s33 = GameSpec(3, 3)
    u33 = game.expected_payoffs(s33)
    s32 = GameSpec(3, 2)
    u32 = game.expected_payoffs(s32)
    pin_ok = (
        abs(u33[0] - 16 / 81 * 0.5) <= 1e-12
        and abs(u33[1] - 20 / 81 * 0.5) <= 1e-12
        and abs(u32[2] - (6 / 36 * 0.5 + 1 / 4 * 0.03)) <= 1e-12
    )
    hand_tally = 18 / 81 * 0.5 + 1 / 9 * 0.03  # classic undercount, reported only
    gap = u33[2] - hand_tally
    report(6, "mixed equilibria", residual_ok and pin_ok and abs(gap) > 1e-6,
           f"residuals {max(residuals.values()):.1e}; third-player enumeration "
           f"{u33[2]:.6f} vs 18/81 hand tally {hand_tally:.6f} (gap {gap:+.6f})")


def test_ac07_fixed_point():
    target = (3 - math.sqrt(5)) / 4
    w_mid = game.fixed_point(0.5, 0.03, 0.5)
    grid = np.linspace(1.0, 0.1, 10)
    points = [game.fixed_point(0.5, 0.03, float(w)) for w in grid]
    monotone = all(b <= a + 1e-9 for a, b in zip(points, points[1:]))
    ok = abs(w_mid - target) <= 1e-6 and monotone
    report(7, "stable operating point", ok,
           f"W*={w_mid:.8f} (target {target:.8f}), "
           f"monotone over w_max {grid[0]:.1f}..{grid[-1]:.1f}: {monotone}")


def test_ac08_estimator_ground_truth():
    errs = {}
    for topology in ("regular", "scale_free"):
        cfg = SimConfig(topology=topology, n=1000, degree=6, iterations=0, seed=3)
        est, true = engine.closed_world_estimator_check(cfg, 10)
        assert true > 0
        errs[topology] = abs(est - true)
    ok = all(e <= 1e-9 for e in errs.values())
    report(8, "estimator ground truth", ok,
           ", ".join(f"{t}: |err|={e:.2e}" for t, e in errs.items()))


def test_ac09_whitewash_suppression(tmp_path):
    seeds = range(5)
    base = SimConfig()
    results = []
    moved = []
    for cell in cli.DEFAULT_GRID_CELLS:
        cid = cli._cell_id(cell)
        start = time.perf_counter()
        firsts, lasts, offers = [], [], []
        for seed in seeds:
            cfg = dataclasses.replace(base, **cell, seed=seed)
            recs = engine.run(cfg)
            if csv_digest(recs, tmp_path) != GRID_DIGESTS[cid, seed]:
                moved.append(f"{cid}/seed{seed}")
            firsts.append(np.mean([r.whitewash_fraction for r in recs[:10]]))
            lasts.append(np.mean([r.whitewash_fraction for r in recs[-100:]]))
            offers.append(np.mean([r.mean_offered_r_ini for r in recs[-100:]]))
        elapsed = time.perf_counter() - start
        first, last, offer = np.mean(firsts), np.mean(lasts), np.mean(offers)
        ok = first > 0 and last <= first / 5 and offer > base.r_ini_min and elapsed < 120
        ratio = math.inf if last == 0 else first / last
        print(f"  {cid}: suppression {ratio:.1f}x, late offer {offer:.4f}, {elapsed:.1f}s")
        results.append((cid, ok, ratio, offer, elapsed))
    worst_ratio = min(r for _, _, r, _, _ in results)
    slowest = max(e for _, _, _, _, e in results)
    report(9, "whitewash suppression", all(ok for _, ok, _, _, _ in results) and not moved,
           f"7 scenarios x 5 seeds, worst suppression {worst_ratio:.1f}x, "
           f"slowest scenario {slowest:.1f}s, "
           f"golden digests moved: {', '.join(moved) or 'none'}")


def test_ac10_deterministic_csv(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"n": 200, "iterations": 25, "gossip_noise": 0.02,'
        ' "grid": {"growth_percent_per_10": [0.0, 5.0]}, "seeds": [0, 1]}'
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].glob("*.csv"))
    files_b = sorted(p.name for p in outs[1].glob("*.csv"))
    same = files_a == files_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in files_a
    )

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text("{}")
    for name in ("sa", "sb"):
        assert cli.main(["payoff-sweep", "--config", str(sweep_cfg),
                         "--out", str(tmp_path / name), "--quiet"]) == 0
    same_sweep = (tmp_path / "sa" / "payoff_sweep.csv").read_bytes() == (
        tmp_path / "sb" / "payoff_sweep.csv"
    ).read_bytes()
    report(10, "deterministic output", same and same_sweep,
           f"{len(files_a)} simulate files + payoff sweep byte-identical")
