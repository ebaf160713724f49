"""Workload inputs: what each workload feeds the program, built from the
workload seed, and which output files it must write.

The seed selects one of `INPUT_SETS` recorded input sets (seed modulo
`INPUT_SETS`), so the outputs of every run can be checked against a digest
recorded in `golden.json`. Set 0 is the reference set.
"""

from __future__ import annotations

import json
from pathlib import Path

INPUT_SETS = 16

# Full-size simulation workloads, run as `p2psim simulate` would run them.
SIMULATIONS = {
    # Heaviest cell of the reference grid: 1,000 -> 46,921 nodes by batch
    # inserts, the largest working set, 75% of the time in the estimator sweep.
    "sf-grow8": {
        "topology": "scale_free",
        "n": 1000,
        "growth_percent_per_10": 8.0,
        "iterations": 500,
    },
    # The opposite mutation pattern: no growth, voluntary departures shrink a
    # 10,000-node 6-regular overlay; noisy gossip and the pairing-model
    # generator are on the path too.
    "regular-departures": {
        "topology": "regular",
        "n": 10000,
        "degree": 6,
        "growth_percent_per_10": 0.0,
        "legit_departure_prob": 0.002,
        "gossip_noise": 0.05,
        "iterations": 500,
    },
}

# The non-simulate commands: game-report at the largest size that stays a
# few seconds (kappa 7 takes ten times longer), payoff-sweep and frontier on
# their defaults, fixed-point and estimator-check on their sample configs.
ANALYTICS = (
    ("game-report", {"kappa": 6, "rounds": 6}),
    ("payoff-sweep", {}),
    ("frontier", {}),
    (
        "fixed-point",
        {
            "r_ini_max": 0.5,
            "r_ini_min": 0.03,
            "w_max": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
        },
    ),
    (
        "estimator-check",
        {"topology": "regular", "n": 1000, "degree": 6, "iterations": 0, "injected": 10},
    ),
)

# Tiny stand-ins for the smoke mode: same code paths, well under a second.
SMOKE_SIMULATIONS = {
    "sf-grow8": dict(SIMULATIONS["sf-grow8"], n=60, iterations=30),
    "regular-departures": dict(
        SIMULATIONS["regular-departures"], n=200, iterations=30, legit_departure_prob=0.05
    ),
}
SMOKE_ANALYTICS = (
    ("game-report", {"kappa": 3, "rounds": 3}),
    ("payoff-sweep", {"x": [0.5], "r_ini": [0.1]}),
    ("frontier", {"x_step": 0.1}),
    ("fixed-point", {"w_max": [0.5]}),
    ("estimator-check", {"topology": "regular", "n": 100, "degree": 6, "injected": 3}),
)

OUTPUTS = {
    "simulate": ("run.csv",),
    "game-report": ("game_report.csv", "game_report.txt"),
    "payoff-sweep": ("payoff_sweep.csv",),
    "frontier": ("frontier.csv", "frontier_best.csv"),
    "fixed-point": ("fixed_point.csv",),
    "estimator-check": ("estimator_check.csv",),
}

# Commands whose config carries the input-set seed.
SEEDED = ("simulate", "estimator-check")

NAMES = tuple(SIMULATIONS) + ("analytics",)


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def write_inputs(workload: str, input_seed: int, dest: Path, smoke: bool = False) -> list[dict]:
    """Write the workload's config files under `dest` and return the
    commands one unit runs: [{"command", "config", "outputs"}]."""
    if workload in SIMULATIONS:
        table = SMOKE_SIMULATIONS if smoke else SIMULATIONS
        commands = (("simulate", table[workload]),)
    elif workload == "analytics":
        commands = SMOKE_ANALYTICS if smoke else ANALYTICS
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    dest.mkdir(parents=True, exist_ok=True)
    plan = []
    for command, config in commands:
        if command in SEEDED:
            config = dict(config, seed=input_seed)
        path = dest / f"{command}.json"
        path.write_text(json.dumps(config, sort_keys=True) + "\n")
        plan.append({"command": command, "config": str(path), "outputs": OUTPUTS[command]})
    return plan
