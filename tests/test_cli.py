from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from p2psim import cli, engine
from p2psim.cli import ConfigError, SimConfig
from p2psim.engine import IterationRecord
from p2psim.payoff import IdentityRegime


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


# ---- parse_config --------------------------------------------------------


def test_empty_config_means_defaults(tmp_path):
    plan = cli.parse_config(write_config(tmp_path, "   \n"), "simulate")
    assert plan.base == SimConfig()
    assert plan.cells == ()
    assert plan.seeds == (0,)


def test_parse_error_reports_position(tmp_path):
    path = write_config(tmp_path, '{\n  "n": 100,,\n}')
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path, "simulate")
    assert "line 2" in str(err.value)


def test_validation_error_lists_everything(tmp_path):
    path = write_config(tmp_path, {"r_ini_max0": 0.03, "r_ini_min": 0.5, "n": 1})
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path, "simulate")
    msg = str(err.value)
    assert "r_ini" in msg
    assert "n:" in msg


def test_unknown_keys_rejected_with_listing(tmp_path):
    path = write_config(tmp_path, {"topologie": "regular"})
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path, "simulate")
    assert "topologie" in str(err.value)
    assert "allowed" in str(err.value)


def test_growth_on_regular_topology_accepted(tmp_path):
    path = write_config(tmp_path, {"topology": "regular", "growth_percent_per_10": 2})
    plan = cli.parse_config(path, "simulate")
    assert plan.base.topology == "regular"
    assert plan.base.growth_percent_per_10 == 2


def test_seed_override_wins_over_config_and_seeds(tmp_path):
    path = write_config(tmp_path, {"seed": 5, "seeds": [1, 2, 3]})
    plan = cli.parse_config(path, "simulate", seed_override=42)
    assert plan.base.seed == 42
    assert plan.seeds == (42,)


def test_grid_cross_product_and_cell_validation(tmp_path):
    path = write_config(
        tmp_path,
        {"grid": {"growth_percent_per_10": [0, 2], "topology": ["regular", "scale_free"]}},
    )
    plan = cli.parse_config(path, "simulate")
    assert len(plan.cells) == 4
    bad = write_config(tmp_path, {"grid": {"n": [1]}}, name="bad.json")
    with pytest.raises(ConfigError):
        cli.parse_config(bad, "simulate")


def test_grid_default_is_the_reference_scenario_set(tmp_path):
    plan = cli.parse_config(write_config(tmp_path, {"grid": "default"}), "simulate")
    assert len(plan.cells) == 7
    assert sum(1 for c in plan.cells if c["topology"] == "regular") == 3


def test_payoff_sweep_defaults(tmp_path):
    plan = cli.parse_config(write_config(tmp_path, {}), "payoff-sweep")
    assert plan.mu == 0.5
    assert set(plan.regimes) == set(IdentityRegime)
    assert plan.z_over_c == 1.0


def test_payoff_sweep_rejects_x_above_one(tmp_path):
    path = write_config(tmp_path, {"x": [0.5, 1.5]})
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path, "payoff-sweep")
    assert "x:" in str(err.value)


def test_payoff_sweep_finite_cost_needs_price(tmp_path):
    path = write_config(tmp_path, {"regimes": ["finite_cost"], "z_over_c": 0})
    with pytest.raises(ConfigError):
        cli.parse_config(path, "payoff-sweep")


# ---- emit_csv ------------------------------------------------------------


def test_emit_csv_header_only_for_no_records(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_csv([], path)
    assert path.read_bytes() == (cli.CSV_HEADER + "\n").encode()


def test_emit_csv_row_count_and_lf_endings(tmp_path):
    recs = engine.run(SimConfig(n=100, iterations=20, seed=1))
    path = tmp_path / "run.csv"
    cli.emit_csv(recs, path)
    raw = path.read_bytes()
    assert raw.count(b"\n") == 21
    assert b"\r" not in raw


def test_emit_csv_round_trip_12_digits(tmp_path):
    recs = engine.run(SimConfig(n=200, iterations=30, growth_percent_per_10=2.0, seed=7))
    path = tmp_path / "run.csv"
    cli.emit_csv(recs, path)
    back = oracles.read_records_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(back, recs):
        for fa, fb in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
            assert f"{fa:.12g}" == f"{fb:.12g}"


def test_fmt_renders_inf_and_trims_floats():
    assert cli._fmt(math.inf) == "inf"
    assert cli._fmt(0.5) == "0.5"
    assert cli._fmt(7) == "7"


# ---- main / subcommands --------------------------------------------------


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_simulate_writes_run_csv(tmp_path):
    cfg = write_config(tmp_path, {"n": 150, "iterations": 15})
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", out, "--quiet") == 0
    recs = oracles.read_records_csv(out / "run.csv")
    assert [r.iteration for r in recs] == list(range(1, 16))


def test_simulate_grid_writes_cells_and_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        {"n": 120, "iterations": 12, "grid": {"growth_percent_per_10": [0.0, 5.0]},
         "seeds": [1, 2]},
    )
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", out, "--quiet") == 0
    cells = sorted(p.name for p in out.glob("sim-*.csv"))
    assert len(cells) == 4
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,seed,final_window_whitewash_fraction,final_window_mean_offer"
    assert len(summary) == 5


def test_reruns_emit_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, {"n": 150, "iterations": 20, "gossip_noise": 0.02})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", a, "--quiet") == 0
    assert run_cli("simulate", "--config", cfg, "--out", b, "--quiet") == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()


def test_config_error_is_machine_readable(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 1})
    code = run_cli("simulate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    line = capsys.readouterr().err.strip()
    parsed = json.loads(line)
    assert parsed["error"] == "config"
    assert "n:" in parsed["detail"]


GRID_8X8 = json.dumps(
    {"grid": {k: list(range(2, 10)) for k in
              ("n", "degree", "attach_edges", "iterations", "window_n_prime", "newcomer_window",
               "x", "mu")}}
)

# (command words, payload); a simulate case is named by its bare payload.
BAD_CONFIGS = [
    pytest.param(command, payload, id=payload if command == "simulate" else f"{command} {payload}")
    for command, payload in [
        ("simulate", '{"n": "abc"}'),
        ("simulate", '{"gossip_noise": null}'),
        ("simulate", '{"n": 1e400}'),
        ("simulate", '{"iterations": true}'),
        ("simulate", '{"gossip_noise": NaN}'),
        ("simulate", '{"gossip_noise": -0.1}'),
        ("simulate", '{"n": 100.5}'),
        ("simulate", '{"grid": {"degree": [1e400]}}'),
        ("payoff-sweep", '{"x": "abc"}'),
        ("payoff-sweep", '{"mu": null}'),
        ("payoff-sweep", '{"m": "q"}'),
        ("fixed-point", '{"w_max": "a"}'),
        ("fixed-point", '{"r_ini_min": 0.5, "w_max": [0.6, 0.3]}'),
        ("frontier", '{"mu": "a"}'),
        ("payoff-sweep", '{"m": -1}'),
        ("frontier", '{"m_ratio": Infinity}'),
        ("frontier", '{"mu": 0.3, "m_ratio": 2}'),
        ("game-report", '{"kappa": 13}'),
        ("game-report", '{"kappa": 1}'),
        ("simulate", '{"seed": -1}'),
        ("simulate --seed -3", "{}"),
        ("simulate", '{"seeds": [-2], "grid": [{}]}'),
        ("simulate", '{"grid": {"seed": [1, 2]}}'),
        ("payoff-sweep", '{"cap": true}'),
        ("payoff-sweep", '{"delta": NaN}'),
        ("payoff-sweep", '{"x": []}'),
        ("payoff-sweep", '{"cap": 100000000}'),
        ("game-report", '{"kappa": 12}'),
        ("game-report", '{"kappa": 8}'),
        ("game-report", '{"kappa": 8, "rounds": 1}'),
        ("frontier", '{"x_step": 1e-6}'),
        ("frontier", '{"x_step": 1e-9}'),
        ("simulate", '{"n": 100000000, "iterations": 1000000000}'),
        ("simulate", '{"n": 2, "iterations": 500000001}'),
        ("simulate", '{"growth_percent_per_10": 50, "iterations": 1000}'),
        ("simulate", '{"n": 100000, "iterations": 1000, "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}'),
        ("simulate", '{"n": 100000, "iterations": 1000, "grid": [{}], '
                     '"seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}'),
        ("simulate", '{"n": 20, "iterations": 3, "seeds": [1, 2, 3]}'),
        ("simulate", '{"grid": {"n": [200000, 300000, 600000]}, "iterations": 1000}'),
        ("estimator-check", '{"n": 100000000}'),
        ("estimator-check", '{"growth_percent_per_10": 1e300}'),
        ("simulate", '{"n": 2, "attach_edges": 1, "iterations": 500000001}'),
        ("simulate", '{"window_n_prime": 1000000}'),
        ("simulate", '{"n": 3, "iterations": 1}'),
        ("simulate", '{"topology": "regular", "n": 5, "degree": 3}'),
        ("simulate", '{"topology": "regular", "n": 4, "degree": 4}'),
        ("estimator-check", '{"topology": "regular", "n": 7, "degree": 3}'),
        ("simulate", '{"n": 50, "gossip_noise": 0.99, "iterations": 500}'),
        ("simulate", '{"topology": "regular", "n": 300, "legit_departure_prob": 0.01, '
                     '"gossip_noise": 0.8}'),
        ("estimator-check", '{"n": 40, "gossip_noise": 1.5}'),
        ("estimator-check", '{"injected": 100000}'),
        # Only 44 of the 100 nodes are potential whitewashers: found when the
        # run is set up, and still a config error with no output directory.
        ("estimator-check", '{"n": 100, "injected": 45, "iterations": 0}'),
        ("estimator-check", '{"n": 10, "attach_edges": 1, "injected": 3, '
                            '"r_ini_max0": 0, "r_ini_min": 0}'),
        # Overlays of 5 x 10^9 edges that every other bound admits: a
        # near-complete regular one, and a scale-free seed clique.
        ("simulate", '{"topology": "regular", "n": 100000, "degree": 99998, "iterations": 1}'),
        ("simulate", '{"n": 1000000, "attach_edges": 100000}'),
        ("simulate", '{"grid": [{}, {"n": 1000000, "attach_edges": 100000}], "iterations": 1}'),
        ("estimator-check", '{"topology": "regular", "n": 100000, "degree": 99998}'),
        ("estimator-check", '{"n": 1000000, "attach_edges": 100000}'),
        ("simulate", '{"seed": 1e30}'),
        ("simulate", '{"seed": 9007199254740993.0}'),
        ("payoff-sweep", '{"cap": 1e30}'),
    ]
] + [
    pytest.param("payoff-sweep", json.dumps({"x": [0.5] * 11, "r_ini": [0.1] * 31}),
                 id="payoff-sweep of 1023 cells"),
    pytest.param("payoff-sweep", json.dumps({"x": [0.5] * 2000, "r_ini": [0.1] * 2000}),
                 id="payoff-sweep of 12M cells"),
    pytest.param("simulate", '{"iterations": 1' + "0" * 400 + "}",
                 id="iterations past the largest float"),
    pytest.param("simulate", GRID_8X8, id="grid of 8^8 cells"),
    pytest.param("simulate", json.dumps({"iterations": 0, "grid": "default",
                                         "seeds": list(range(20000))}),
                 id="default grid over 20000 seeds"),
    pytest.param("simulate", json.dumps({"n": 1000, "iterations": 1, "grid": [{}],
                                         "seeds": list(range(100000))}),
                 id="one cell over 100000 seeds"),
    pytest.param("fixed-point", json.dumps({"w_max": [0.5] * 1001}),
                 id="fixed-point of 1001 w_max values"),
    pytest.param("simulate", '{"grid": [' + ", ".join(["{}"] * 1001) + "]}", id="grid of 1001 cells"),
    pytest.param("simulate", "[" * 100_000 + "]" * 100_000, id="nested 100000 deep"),
    pytest.param("simulate", b'{"n": "\xff"}', id="not UTF-8"),
]


@pytest.mark.parametrize("command, payload", BAD_CONFIGS)
def test_wrong_typed_simulate_values_are_config_errors(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    start = time.perf_counter()
    code = run_cli(*command.split(), "--config", cfg, "--out", tmp_path / "out")
    assert time.perf_counter() - start < 1.0  # every work bound is checked before any work
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_run_and_w_max_bounds_admit_exactly_the_cap(tmp_path):
    # A simulate command makes at most MAX_GRID_CELLS runs (grid cells x
    # seeds), and fixed-point takes at most MAX_GRID_CELLS w_max values.
    plan = cli.parse_config(
        write_config(tmp_path, {"iterations": 0, "grid": [{}, {}], "seeds": list(range(500))})
    )
    assert len(plan.cells) * len(plan.seeds) == cli.MAX_GRID_CELLS
    with pytest.raises(ConfigError, match="1002 runs"):
        cli.parse_config(
            write_config(tmp_path, {"iterations": 0, "grid": [{}, {}], "seeds": list(range(501))})
        )
    plan = cli.parse_config(write_config(tmp_path, {"w_max": [0.5] * 1000}), "fixed-point")
    assert len(plan.w_max) == cli.MAX_GRID_CELLS
    root = Path(__file__).parent.parent
    plan = cli.parse_config(root / "demos" / "configs" / "reference_grid.json")
    assert len(plan.cells) * len(plan.seeds) == 35


def test_work_bound_projects_growth_per_period(tmp_path):
    for n, growth, iterations in [(1000, 8.0, 500), (7, 2.0, 23), (5, 0.0, 9), (2, 50.0, 10)]:
        cfg = SimConfig(n=n, attach_edges=1, growth_percent_per_10=growth, iterations=iterations)
        expected = sum(n * (1 + growth / 100) ** (k // 10) for k in range(1, iterations + 1))
        assert cli._node_iterations(cfg, iterations) == pytest.approx(expected, rel=1e-12)
    # Exactly at the bound is still accepted.
    plan = cli.parse_config(
        write_config(tmp_path, {"n": 2, "attach_edges": 1, "iterations": 500_000_000})
    )
    assert plan.base.iterations == 500_000_000


def test_analytics_work_bounds_accept_every_sample_config(tmp_path):
    # kappa 7 is the largest game-report the budget admits (7.0M assignments).
    assert cli._game_assignments(6, 6) == 347_106
    assert cli._game_assignments(7, 7) == 6_965_104 <= cli.MAX_GAME_ASSIGNMENTS
    assert cli._game_assignments(8, 1) > cli.MAX_GAME_ASSIGNMENTS
    assert cli.parse_config(write_config(tmp_path, {"kappa": 7}), "game-report").kappa == 7
    # rounds above kappa skip the mixed check, so they cost nothing extra.
    assert cli.parse_config(write_config(tmp_path, {"kappa": 3, "rounds": 10**9}), "game-report")
    plan = cli.parse_config(
        write_config(tmp_path, {"x": [0.5] * 10, "r_ini": [0.1] * 100, "regimes": ["permanent"]}),
        "payoff-sweep",
    )
    assert len(plan.x) * len(plan.r_ini) * len(plan.regimes) == cli.MAX_GRID_CELLS
    for path in sorted(Path(__file__).parent.parent.joinpath("demos", "configs").glob("*.json")):
        command = {"timing_game": "game-report", "payoff_sweep": "payoff-sweep"}.get(path.stem)
        if command:
            cli.parse_config(path, command)


def test_window_budget_accepts_every_sample_config(tmp_path):
    # The largest windows today are sf-grow8's: 1,000 nodes grown by 8%
    # every ten steps for 500 steps, with the default window of 10, about
    # 4.7 x 10^5 cells at the end.
    root = Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [
        ("simulate", c) for table in (workloads.SIMULATIONS, workloads.SMOKE_SIMULATIONS)
        for c in table.values()
    ] + [
        (command, c) for command, c in workloads.ANALYTICS + workloads.SMOKE_ANALYTICS
        if command == "estimator-check"
    ] + [("simulate", {"grid": {"n": [10**6], "window_n_prime": [10]}, "iterations": 1})]
    for command, config in configs:
        cli.parse_config(write_config(tmp_path, config), command)
    for path in sorted(root.joinpath("demos", "configs").glob("*.json")):
        command = {"reference_grid": "simulate", "baseline": "simulate",
                   "estimator_check": "estimator-check"}.get(path.stem)
        if command:
            cli.parse_config(path, command)
    cells = SimConfig(n=10**6).n * SimConfig().window_n_prime
    assert cells == cli.MAX_WINDOW_CELLS  # exactly at the bound is accepted


def test_window_budget_counts_growth_and_every_run(tmp_path):
    # Parsed only: were the bound to slip, the CLI would go on to run these.
    for command, config in [
        ("simulate", {"n": 10**6, "growth_percent_per_10": 1, "iterations": 10}),
        ("simulate", {"n": 100000, "window_n_prime": 100, "growth_percent_per_10": 8,
                      "iterations": 560}),  # ~7.4M nodes at the end: 5.5 GiB of windows
        ("simulate", {"grid": {"window_n_prime": [10, 20000]}}),
        ("estimator-check", {"window_n_prime": 1000000}),
        ("estimator-check", {"n": 10**6, "growth_percent_per_10": 1}),
    ]:
        with pytest.raises(ConfigError, match="window_n_prime"):
            cli.parse_config(write_config(tmp_path, config), command)
    # At the bound, a run that stops before its first growth batch fits.
    cli.parse_config(
        write_config(tmp_path, {"n": 10**6, "growth_percent_per_10": 1, "iterations": 9})
    )


def test_edge_bound_counts_growth_and_rejoins(tmp_path):
    # Parsed only: were the bound to slip, the CLI would go on to run these.
    # A regular overlay's n x degree ends, plus attach_edges ends per node
    # for the rejoins, fit exactly at the bound.
    regular = {"topology": "regular", "n": 10**6, "degree": 4, "iterations": 1}
    assert 10**6 * (4 + 2 * SimConfig().attach_edges) == cli.MAX_EDGE_ENDS
    cli.parse_config(write_config(tmp_path, regular))
    # Growth counts: 10^5 nodes of 20 edges each reach 9.3 x 10^6 ends after
    # eleven 8% batches and 1.007 x 10^7 after twelve.
    growing = {"n": 10**5, "attach_edges": 20, "growth_percent_per_10": 8}
    cli.parse_config(write_config(tmp_path, dict(growing, iterations=119)))
    for command, config in [
        ("simulate", dict(regular, degree=6)),
        ("simulate", dict(regular, attach_edges=4)),
        ("simulate", dict(growing, iterations=120)),
        ("simulate", {"grid": {"degree": [2, 6]}, **regular}),
        ("estimator-check", dict(regular, degree=6)),
    ]:
        with pytest.raises(ConfigError, match="edges: the overlay could hold"):
            cli.parse_config(write_config(tmp_path, config), command)


def test_edge_bound_holds_over_runs():
    # The most edge ends a run can hold, against the most it holds after any
    # step. Rejoins that wire far more edges than a regular overlay's degree
    # take the second overlay from 800 ends to about 92,000. A scale-free
    # run without rejoins or departures, where every node owns exactly
    # attach_edges edges, nearly reaches the bound: the projected node count
    # leaves out each growth batch's rounding, which the clique's overcount
    # covers.
    for rejoins, kwargs in [
        (True, {"n": 50, "iterations": 30}),
        (True, {"topology": "regular", "n": 400, "degree": 2, "attach_edges": 300,
                "iterations": 30}),
        (True, {"topology": "regular", "n": 300, "degree": 4, "attach_edges": 5,
                "growth_percent_per_10": 5.0, "legit_departure_prob": 0.01, "iterations": 50}),
        (True, {"n": 200, "attach_edges": 2, "growth_percent_per_10": 8.0, "iterations": 60}),
        (False, {"n": 200, "attach_edges": 2, "growth_percent_per_10": 8.0, "iterations": 60}),
    ]:
        cfg = SimConfig(**kwargs)
        sim = engine.Simulation(cfg)
        sim.auto_whitewash = rejoins
        most = 0
        for _ in range(cfg.iterations):
            sim.step()
            most = max(most, 2 * sim.topology.edge_count)
        bound = cli._edge_ends(cfg, cfg.iterations)
        assert most <= bound, kwargs
        if kwargs.get("degree") == 2:
            assert most > 100 * cfg.n * cfg.degree
    assert most > 0.99 * bound


def test_infeasible_overlays_name_the_generator_rule():
    for kwargs, clause in [
        ({"n": 3}, "n: a scale-free overlay needs n > attach_edges"),
        ({"n": 4, "attach_edges": 4}, "n: a scale-free overlay"),
        ({"topology": "regular", "n": 5, "degree": 3}, "n * degree: must be even"),
        ({"topology": "regular", "n": 4, "degree": 4}, "degree: a regular overlay needs degree < n"),
    ]:
        with pytest.raises(ValueError, match=re.escape(clause)):
            SimConfig(**kwargs)
    # The smallest overlays each generator can build are still accepted, and
    # each rule applies to its own generator only.
    for kwargs in [{"n": 4}, {"topology": "regular", "n": 3, "degree": 2},
                   {"topology": "regular", "n": 2, "degree": 1, "attach_edges": 5},
                   {"n": 5, "degree": 7}]:
        assert engine.run(SimConfig(iterations=2, **kwargs))


def test_game_report_computes_the_residual_once(tmp_path, monkeypatch):
    calls = []
    measure = cli.game.indifference_residual
    monkeypatch.setattr(
        cli.game, "indifference_residual", lambda *a: calls.append(1) or measure(*a)
    )
    cfg = write_config(tmp_path, {"kappa": 4})
    assert run_cli("game-report", "--config", cfg, "--out", tmp_path / "out", "--quiet") == 0
    assert len(calls) == 1


def test_counts_spelled_as_floats_become_ints(tmp_path):
    path = write_config(tmp_path, {"n": 100.0, "grid": [{"degree": 4.0}]})
    plan = cli.parse_config(path, "simulate")
    assert type(plan.base.n) is int and plan.base.n == 100
    assert plan.cells == ({"degree": 4},) and type(plan.cells[0]["degree"]) is int
    for command, key, attr in [
        ("game-report", "kappa", "kappa"),
        ("estimator-check", "injected", "injected"),
        ("payoff-sweep", "cap", "cap"),
    ]:
        plan = cli.parse_config(write_config(tmp_path, {key: 2.0}), command)
        assert type(getattr(plan, attr)) is int and getattr(plan, attr) == 2
    # Every integer below 2**53 is an exact float; 2**53 itself is the first
    # float that also stands for a neighbour (2**53 + 1 parses to it).
    for text, seed in [("1e3", 1000), ("9007199254740991.0", 2**53 - 1),
                       ("1000000000000000000000000000000", 10**30)]:
        plan = cli.parse_config(write_config(tmp_path, '{"seed": %s}' % text), "simulate")
        assert type(plan.base.seed) is int and plan.base.seed == seed
    for text in ("9007199254740992.0", "-9007199254740992.0", "1e30"):
        with pytest.raises(ConfigError, match="seed: must be an integer"):
            cli.parse_config(write_config(tmp_path, '{"seed": %s}' % text), "simulate")


def test_gossip_noise_bound_follows_the_smallest_live_count(tmp_path):
    # The gossiped node count must stay >= 1: (1 - noise) * floor >= 1, where
    # the floor is n without departures and attach_edges + 1 with them.
    for config, ok in [
        ({"n": 50, "gossip_noise": 0.98}, True),
        ({"n": 50, "gossip_noise": 0.99}, False),
        ({"n": 50, "gossip_noise": 0.75, "legit_departure_prob": 0.1}, True),
        ({"n": 50, "gossip_noise": 0.76, "legit_departure_prob": 0.1}, False),
        ({"n": 50, "attach_edges": 9, "gossip_noise": 0.85, "legit_departure_prob": 0.1}, True),
        # 1 - 0.9 rounds to just below 0.1, so 10 nodes can gossip as 0.99...
        ({"n": 50, "attach_edges": 9, "gossip_noise": 0.9, "legit_departure_prob": 0.1}, False),
    ]:
        path = write_config(tmp_path, config)
        if ok:
            assert cli.parse_config(path, "simulate").base.gossip_noise == config["gossip_noise"]
        else:
            with pytest.raises(ConfigError, match="gossip_noise: .* fewer than 1 node"):
                cli.parse_config(path, "simulate")


def test_any_json_object_parses_or_is_a_config_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "config.json"

    def json_objects(keys):
        names = st.sampled_from(sorted(keys)) | st.text(max_size=4)
        leaves = (
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(["default", "regular", "scale_free", "permanent", "finite_cost"])
            | st.sampled_from([0, 1, 2.0, 0.5, -1, 1e-5, 13, 10**7, 10**400])
        )
        values = st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
            max_leaves=12,
        )
        return st.dictionaries(names, values, max_size=6)

    cases = st.one_of(
        [
            st.tuples(st.just(c), json_objects(set(cli._COMMANDS[c][0]) | set(cli._SIM_SPECS)))
            for c in cli.COMMANDS
        ]
    )

    @hypothesis.settings(max_examples=300, deadline=2000, database=None)
    @hypothesis.given(cases)
    def check(case):
        command, config = case
        path.write_text(json.dumps(config))
        try:
            cli.parse_config(path, command)
        except ConfigError:
            pass

    check()


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    code = run_cli("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path)
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_payoff_sweep_csv_marks_unbounded(tmp_path):
    cfg = write_config(tmp_path, {"x": [0.5], "r_ini": [0.03], "regimes": ["zero_cost"]})
    out = tmp_path / "out"
    assert run_cli("payoff-sweep", "--config", cfg, "--out", out, "--quiet") == 0
    lines = (out / "payoff_sweep.csv").read_text().splitlines()
    assert lines[0] == "x,r_ini,regime,mu,z_over_c,k_crossover"
    assert lines[1] == "0.5,0.03,zero_cost,0.5,0,inf"


def test_game_report_contains_span_notes(tmp_path):
    cfg = write_config(tmp_path, {"kappa": 3})
    out = tmp_path / "out"
    assert run_cli("game-report", "--config", cfg, "--out", out, "--quiet") == 0
    text = (out / "game_report.txt").read_text()
    assert "18/81" in text
    assert "20/81" in text
    csv_lines = (out / "game_report.csv").read_text().splitlines()
    assert csv_lines[0] == "span,player,expected_payoff"
    assert len(csv_lines) == 1 + 2 * 3  # spans 2 and 3, three players each


def test_fixed_point_csv_matches_module(tmp_path):
    cfg = write_config(tmp_path, {"w_max": [0.5]})
    out = tmp_path / "out"
    assert run_cli("fixed-point", "--config", cfg, "--out", out, "--quiet") == 0
    line = (out / "fixed_point.csv").read_text().splitlines()[1]
    assert line.split(",")[-1] == f"{(3 - math.sqrt(5)) / 4:.12g}"


def test_fixed_point_accepts_w_max_at_the_floor(tmp_path):
    # w_max below r_ini_min has no root and is a config error (BAD_CONFIGS);
    # at r_ini_min the root is w_max itself.
    cfg = write_config(tmp_path, {"r_ini_min": 0.5, "w_max": [0.6, 0.5]})
    out = tmp_path / "out"
    assert run_cli("fixed-point", "--config", cfg, "--out", out, "--quiet") == 0
    rows = (out / "fixed_point.csv").read_text().splitlines()[1:]
    assert rows == ["0.5,0.5,0.6,0.5", "0.5,0.5,0.5,0.5"]


def test_frontier_emits_curve_and_best_point(tmp_path):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert run_cli("frontier", "--config", cfg, "--out", out, "--quiet") == 0
    best = (out / "frontier_best.csv").read_text().splitlines()
    assert best[0] == "mu,m_ratio,r_star,x_star"
    r_star = float(best[1].split(",")[2])
    assert r_star == pytest.approx(0.036, abs=0.002)
    curve = (out / "frontier.csv").read_text().splitlines()
    assert len(curve) > 100


def test_infeasible_frontier_writes_no_file(tmp_path, capsys):
    # Feasibility depends on the config alone, so it is checked when the
    # config is read: no output directory is made.
    cfg = write_config(tmp_path, {"mu": 0.3, "m_ratio": 2})
    out = tmp_path / "out"
    assert run_cli("frontier", "--config", cfg, "--out", out, "--quiet") == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "config" and "no exponent" in error["detail"]
    assert captured.out == "" and not out.exists()


def test_out_on_a_file_is_an_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 100, "iterations": 0, "injected": 3})
    out = tmp_path / "out"
    out.write_text("")
    assert run_cli("estimator-check", "--config", cfg, "--out", out, "--quiet") == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "io"
    assert out.read_text() == ""


def test_simulate_down_to_a_graph_with_isolated_nodes(tmp_path):
    # Departures shrink the overlay to 4 nodes, and a whitewash rejoin then
    # asks for 3 attachment targets where only 2 nodes have edges. Run in a
    # child process so that a hang fails the test instead of stalling it.
    cfg = write_config(
        tmp_path,
        {"topology": "regular", "n": 8, "degree": 2, "legit_departure_prob": 1.0,
         "r_ini_max0": 0.05, "r_ini_min": 0.01, "iterations": 20, "seed": 3},
    )
    src = str(Path(cli.__file__).parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "p2psim.cli", "simulate", "--config", cfg,
         "--out", tmp_path / "out", "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10
    assert len((tmp_path / "out" / "run.csv").read_text().splitlines()) == 21


@pytest.mark.parametrize("n, degree", [(30, 29), (3000, 2000)])
def test_simulate_a_dense_regular_overlay(tmp_path, n, degree):
    # Above degree (n - 1)/2 the overlay is the complement of a sparser
    # pairing-model one. The pairing model alone gave up on the complete
    # graph of 30 nodes and spent minutes on 3000 nodes of degree 2000
    # before exiting 1; both now run to exit 0. Run in a child process so
    # that a hang fails the test instead of stalling it.
    cfg = write_config(tmp_path, {"topology": "regular", "n": n, "degree": degree, "iterations": 1})
    src = str(Path(cli.__file__).parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "p2psim.cli", "simulate", "--config", cfg,
         "--out", tmp_path / "out", "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 60
    assert len((tmp_path / "out" / "run.csv").read_text().splitlines()) == 2


# ---- child-process fuzz --------------------------------------------------

# Raw JSON text for each way the fuzz breaks one key: wrong types, NaN and
# the infinities, nesting (the deepest past the parser's recursion limit),
# and numbers outside every key's range.
BROKEN_VALUES = {
    "type": ['"abc"', "true", "[]", "{}", '[1, "x"]', '{"n": 3}'],
    "nan": ["NaN", "Infinity", "-Infinity"],
    "nesting": ["[" * 50 + "]" * 50, '{"a": ' * 50 + "1" + "}" * 50, "[" * 5000 + "]" * 5000],
    "range": ["-1", "-0.5", "1e400", "1" + "0" * 400],
}
FUZZ_KINDS = ("valid", "unknown", *BROKEN_VALUES)
CHILD_TIMEOUT_S = 30


def small_config(command: str, rng) -> dict:
    """A valid config for `command` that runs in well under a second."""
    if command == "payoff-sweep":
        return {"mu": rng.uniform(0.1, 1.0), "x": [rng.uniform(0.05, 1.0)],
                "r_ini": [rng.random()], "cap": 10_000}
    if command == "game-report":
        return {"kappa": rng.randint(2, 4)}
    if command == "fixed-point":
        return {"w_max": [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 3))]}
    if command == "frontier":
        return {"mu": rng.uniform(0.05, 0.95), "m_ratio": rng.uniform(0.2, 3.0),
                "x_step": rng.choice([0.05, 0.1])}
    cfg = {"n": rng.randint(10, 40), "topology": rng.choice(["scale_free", "regular"]),
           "degree": 4, "seed": rng.randrange(10**6)}
    if command == "estimator-check":
        return {**cfg, "injected": rng.randint(0, 3)}
    return {**cfg, "iterations": rng.randint(0, 12),
            "growth_percent_per_10": rng.choice([0.0, 5.0]),
            "legit_departure_prob": rng.choice([0.0, 0.05]),
            "gossip_noise": rng.choice([0.0, 0.05])}


def fuzz_config_text(command: str, kind: str) -> str:
    """One generated config: a small valid one, with one key broken in the
    way `kind` names (a key already present is overridden, as a repeated
    JSON key's last value wins)."""
    rng = random.Random(f"{command}/{kind}")
    text = json.dumps(small_config(command, rng))
    if kind == "valid":
        return text
    if kind == "unknown":
        key, raw = rng.choice(["nn", "bogus", "N", ""]), "1"
    else:
        key, raw = rng.choice(sorted(cli._COMMANDS[command][0])), rng.choice(BROKEN_VALUES[kind])
    return f"{text[:-1]}, {json.dumps(key)}: {raw}}}"


def run_child(tmp_path, command: str, text: str) -> subprocess.CompletedProcess:
    cfg = write_config(tmp_path, text)
    src = str(Path(cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "p2psim.cli", command, "--config", cfg,
         "--out", tmp_path / "out", "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


# Values of the right type and inside their key's interval that a config
# must still not get past the parser with: an integer key written as a float
# from 2**53 up (not every integer there is a float, so the float need not
# be the integer written), and gossip noise that can gossip fewer than one
# node (small_config has at most 40 nodes).
EDGE_VALUES = [
    ("simulate", "gossip_noise", "0.99"),
    ("simulate", "seed", "1e30"),
    ("simulate", "iterations", "9007199254740993.0"),
    ("estimator-check", "gossip_noise", "0.99"),
    ("estimator-check", "seed", "9007199254740993.0"),
    ("game-report", "kappa", "1e30"),
    ("payoff-sweep", "cap", "9007199254740993.0"),
]


@pytest.mark.parametrize("command, key, raw", EDGE_VALUES)
def test_cli_child_process_rejects_edge_values(tmp_path, command, key, raw):
    text = json.dumps(small_config(command, random.Random(f"{command}/edge")))
    text = f"{text[:-1]}, {json.dumps(key)}: {raw}}}"
    proc = run_child(tmp_path, command, text)
    assert proc.returncode == 2, (text, proc.stderr)
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, (text, proc.stderr)
    error = json.loads(lines[0])
    assert error["error"] == "config" and key in error["detail"], error


@pytest.mark.parametrize("kind", FUZZ_KINDS)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_child_process_fuzz(tmp_path, command, kind):
    # The contract a caller of the installed command sees: a known exit
    # status, a silent stderr on success, otherwise exactly one JSON error
    # line, and an end within a bounded time.
    text = fuzz_config_text(command, kind)
    proc = run_child(tmp_path, command, text)
    assert proc.returncode in (0, 1, 2, 3), (text, proc.stderr)
    if proc.returncode == 0:
        assert proc.stderr == b"", text
        return
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, (text, proc.stderr)
    error = json.loads(lines[0])
    assert sorted(error) == ["command", "detail", "error"]
    assert error["command"] == command
    if kind in ("unknown", "nan"):
        assert (proc.returncode, error["error"]) == (2, "config"), text


def test_estimator_check_static_is_exact(tmp_path):
    cfg = write_config(
        tmp_path, {"topology": "regular", "n": 400, "iterations": 0, "seed": 3}
    )
    out = tmp_path / "out"
    assert run_cli("estimator-check", "--config", cfg, "--out", out, "--quiet") == 0
    row = (out / "estimator_check.csv").read_text().splitlines()[1].split(",")
    assert float(row[-1]) < 1e-9


def test_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 100, "iterations": 5})
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 0
    assert capsys.readouterr().out == ""
