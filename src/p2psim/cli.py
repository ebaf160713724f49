"""Command-line front end: JSON config in, plot-ready CSV out.

Subcommand-first grammar:

    p2psim <command> --config <file> --out <dir> [--seed <u64>] [--quiet]

Commands: simulate, payoff-sweep, game-report, fixed-point, frontier,
estimator-check. Every command reads one JSON object (an empty or
whitespace-only file means all defaults), writes its artifacts under the
output directory, and prints one line per file written. All numeric cells
are rendered with 12 significant digits and LF line endings, so identical
configs and seeds reproduce identical bytes. Errors come back as a single
JSON line on stderr and a non-zero exit status.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine, estimator, game, payoff
from .engine import IterationRecord, SimConfig
from .game import GameSpec
from .payoff import IdentityRegime, PayoffParams

CSV_HEADER = (
    "iteration,n_nodes,whitewash_attempts,whitewash_successes,"
    "whitewash_fraction,mean_offered_r_ini,mean_w_estimate,mean_w_max"
)

COMMANDS = (
    "simulate",
    "payoff-sweep",
    "game-report",
    "fixed-point",
    "frontier",
    "estimator-check",
)

# The scenario set the defaults were tuned against: a growing scale-free
# network at four growth rates plus degree-regular networks at three sizes.
DEFAULT_GRID_CELLS = tuple(
    [
        {"topology": "scale_free", "n": 1000, "growth_percent_per_10": g}
        for g in (0.0, 2.0, 5.0, 8.0)
    ]
    + [{"topology": "regular", "n": n, "growth_percent_per_10": 0.0} for n in (1000, 5000, 10000)]
)

SUMMARY_WINDOW = 100  # trailing iterations summarized per grid cell


class ConfigError(ValueError):
    """Config file rejected; the message lists every violated rule."""


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: Path
    output_dir: Path
    seed_override: int | None = None
    quiet: bool = False


@dataclass(frozen=True)
class SimulatePlan:
    base: SimConfig
    cells: tuple[dict, ...]  # () means a single plain run
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class PayoffSweepPlan:
    mu: float
    xs: tuple[float, ...]
    r_inis: tuple[float, ...]
    regimes: tuple[IdentityRegime, ...]
    z_over_c: float
    m: float
    m_prime: float
    delta: float
    cap: int


@dataclass(frozen=True)
class FixedPointPlan:
    r_ini_max: float
    r_ini_min: float
    w_maxes: tuple[float, ...]


@dataclass(frozen=True)
class FrontierPlan:
    mu: float
    m_ratio: float
    x_step: float


@dataclass(frozen=True)
class EstimatorCheckPlan:
    base: SimConfig
    injected: int


# ---- config parsing ------------------------------------------------------


def _load_json_object(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of named parameters")
    return data


def _check_keys(data: dict, allowed: set[str]) -> list[str]:
    unknown = sorted(set(data) - allowed)
    if unknown:
        return [
            f"unknown key(s): {', '.join(unknown)} (allowed: {', '.join(sorted(allowed))})"
        ]
    return []


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


_SIM_FIELDS = {f.name: f for f in dataclasses.fields(SimConfig)}


def _integral_counts(values: dict) -> dict:
    """JSON may spell a count as 1000.0: make such values ints. Anything
    else that is not an integer (1.5, inf, NaN) is left for SimConfig to
    reject."""
    out = dict(values)
    for name in engine.INTEGER_FIELDS:
        value = out.get(name)
        if isinstance(value, float) and math.isfinite(value) and value == int(value):
            out[name] = int(value)
    return out


def _sim_config(data: dict, problems: list[str], seed_override: int | None) -> SimConfig:
    kwargs = _integral_counts({k: data[k] for k in _SIM_FIELDS if k in data})
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return SimConfig(**kwargs)
    except ValueError as err:
        problems.append(str(err))
        return SimConfig()  # placeholder; problems will be raised by the caller


def _grid_cells(grid, problems: list[str]) -> tuple[dict, ...]:
    if grid is None:
        return ()
    if grid == "default":
        return tuple(dict(c) for c in DEFAULT_GRID_CELLS)
    if isinstance(grid, dict):
        if not grid:
            return ()
        names = sorted(grid)
        for name in names:
            if name not in _SIM_FIELDS:
                problems.append(f"grid: unknown parameter {name!r}")
                return ()
            if not isinstance(grid[name], list) or not grid[name]:
                problems.append(f"grid: {name} must map to a non-empty list of values")
                return ()
        return tuple(
            _integral_counts(dict(zip(names, combo)))
            for combo in itertools.product(*(grid[n] for n in names))
        )
    if isinstance(grid, list):
        cells = []
        for i, cell in enumerate(grid):
            if not isinstance(cell, dict):
                problems.append(f"grid[{i}]: each cell must be an object of overrides")
                return ()
            bad = sorted(set(cell) - set(_SIM_FIELDS))
            if bad:
                problems.append(f"grid[{i}]: unknown parameter(s): {', '.join(bad)}")
                return ()
            cells.append(_integral_counts(cell))
        return tuple(cells)
    problems.append('grid: expected "default", a parameter->values object, or a list of cells')
    return ()


def _parse_simulate(data: dict, seed_override: int | None) -> SimulatePlan:
    problems = _check_keys(data, set(_SIM_FIELDS) | {"grid", "seeds"})
    base = _sim_config(data, problems, seed_override)
    cells = _grid_cells(data.get("grid"), problems)
    if seed_override is not None:
        seeds = [seed_override]
    else:
        seeds = data.get("seeds", [base.seed])
        if not isinstance(seeds, list) or not seeds:
            problems.append("seeds: must be a non-empty list of integers")
            seeds = [base.seed]
        elif not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
            problems.append("seeds: must be a non-empty list of integers")
            seeds = [base.seed]
    if cells and not problems:
        for cell in cells:  # each cell must still make a valid config
            try:
                dataclasses.replace(base, **cell)
            except ValueError as err:
                problems.append(f"grid cell {_cell_id(cell)}: {err}")
    if problems:
        raise ConfigError("; ".join(problems))
    return SimulatePlan(base, cells, tuple(seeds))


def _parse_payoff_sweep(data: dict, _: int | None) -> PayoffSweepPlan:
    allowed = {"mu", "x", "r_ini", "regimes", "z_over_c", "m", "m_prime", "delta", "cap"}
    problems = _check_keys(data, allowed)
    mu = data.get("mu", 0.5)
    xs = [float(v) for v in _as_list(data.get("x", [0.25, 0.5, 0.75, 1.0]))]
    r_inis = [float(v) for v in _as_list(data.get("r_ini", [0.0, 0.03, 0.1, 0.3, 0.5]))]
    names = _as_list(data.get("regimes", [r.value for r in IdentityRegime]))
    z_over_c = float(data.get("z_over_c", 1.0))
    regimes = []
    for name in names:
        try:
            regimes.append(IdentityRegime(name))
        except ValueError:
            problems.append(
                f"regimes: {name!r} is not one of {[r.value for r in IdentityRegime]}"
            )
    if not 0 < mu <= 1:
        problems.append("mu: must be in (0, 1]")
    for x in xs:
        if not 0 < x <= 1:
            problems.append(f"x: {x!r} outside (0, 1]")
    for r in r_inis:
        if not 0 <= r <= 1:
            problems.append(f"r_ini: {r!r} outside [0, 1]")
    if z_over_c < 0:
        problems.append("z_over_c: must be >= 0")
    if IdentityRegime.FINITE_COST in regimes and z_over_c <= 0:
        problems.append("z_over_c: finite_cost regime needs a positive identity price")
    delta = float(data.get("delta", 0.0))
    if delta < 0:
        problems.append("delta: must be >= 0")
    cap = data.get("cap", payoff.DEFAULT_CROSSOVER_CAP)
    if not isinstance(cap, int) or cap < 1:
        problems.append("cap: must be a positive integer")
        cap = payoff.DEFAULT_CROSSOVER_CAP
    if problems:
        raise ConfigError("; ".join(problems))
    return PayoffSweepPlan(
        float(mu), tuple(xs), tuple(r_inis), tuple(regimes),
        z_over_c, float(data.get("m", 1.0)), float(data.get("m_prime", 1.0)), delta, cap,
    )


def _parse_game_report(data: dict, _: int | None) -> GameSpec:
    problems = _check_keys(data, {"kappa", "rounds", "r_ini_max", "r_ini_min", "honesty"})
    kappa = data.get("kappa", 3)
    if not isinstance(kappa, int) or isinstance(kappa, bool):
        problems.append("kappa: must be an integer")
        kappa = 3
    honesty = data.get("honesty")
    try:
        spec = GameSpec(
            kappa=kappa,
            rounds=data.get("rounds", kappa),
            r_ini_max=data.get("r_ini_max", 0.5),
            r_ini_min=data.get("r_ini_min", 0.03),
            honesty=tuple(honesty) if honesty is not None else None,
        )
    except (ValueError, TypeError) as err:
        problems.append(str(err))
        spec = None
    if problems:
        raise ConfigError("; ".join(problems))
    return spec


def _parse_fixed_point(data: dict, _: int | None) -> FixedPointPlan:
    problems = _check_keys(data, {"r_ini_max", "r_ini_min", "w_max"})
    r_max = float(data.get("r_ini_max", 0.5))
    r_min = float(data.get("r_ini_min", 0.03))
    w_maxes = [float(v) for v in _as_list(data.get("w_max", [0.5]))]
    if not 0 <= r_min <= 1 or not 0 <= r_max <= 1:
        problems.append("r_ini_max/r_ini_min: must be in [0, 1]")
    for w in w_maxes:
        if not 0 < w <= 1:
            problems.append(f"w_max: {w!r} outside (0, 1]")
    if problems:
        raise ConfigError("; ".join(problems))
    return FixedPointPlan(r_max, r_min, tuple(w_maxes))


def _parse_frontier(data: dict, _: int | None) -> FrontierPlan:
    problems = _check_keys(data, {"mu", "m_ratio", "x_step"})
    mu = float(data.get("mu", 0.5))
    m_ratio = float(data.get("m_ratio", 1.0))
    x_step = float(data.get("x_step", 0.005))
    if not 0 < mu < 1:
        problems.append("mu: must be in (0, 1)")
    if m_ratio <= 0:
        problems.append("m_ratio: must be positive")
    if not 0 < x_step <= 0.5:
        problems.append("x_step: must be in (0, 0.5]")
    if problems:
        raise ConfigError("; ".join(problems))
    return FrontierPlan(mu, m_ratio, x_step)


def _parse_estimator_check(data: dict, seed_override: int | None) -> EstimatorCheckPlan:
    problems = _check_keys(data, set(_SIM_FIELDS) | {"injected"})
    base = _sim_config(data, problems, seed_override)
    injected = data.get("injected", 10)
    if not isinstance(injected, int) or isinstance(injected, bool) or injected < 0:
        problems.append("injected: must be a non-negative integer")
    if problems:
        raise ConfigError("; ".join(problems))
    return EstimatorCheckPlan(base, injected)


_PARSERS = {
    "simulate": _parse_simulate,
    "payoff-sweep": _parse_payoff_sweep,
    "game-report": _parse_game_report,
    "fixed-point": _parse_fixed_point,
    "frontier": _parse_frontier,
    "estimator-check": _parse_estimator_check,
}


def parse_config(path: Path, command: str = "simulate", seed_override: int | None = None):
    """Load and validate the JSON config for one command.

    Returns the command's plan object with defaults filled in. Raises
    ConfigError with every problem listed (parse position for syntax
    errors, one clause per violated rule otherwise).
    """
    if command not in _PARSERS:
        raise ConfigError(f"unknown command {command!r}")
    return _PARSERS[command](_load_json_object(Path(path)), seed_override)


# ---- CSV emission --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        if math.isinf(value):
            return "inf"
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_csv(records: list[IterationRecord], path: Path) -> None:
    """Write one iteration per row under the fixed simulate header; floats
    carry 12 significant digits so a parse round-trips the run exactly."""
    _write_csv(Path(path), CSV_HEADER, (dataclasses.astuple(r) for r in records))


def read_records_csv(path: Path) -> list[IterationRecord]:
    """Parse a file produced by emit_csv back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the simulate header")
    out = []
    for line in lines[1:]:
        it, nn, wa, ws, frac, off, west, wmax = line.split(",")
        out.append(
            IterationRecord(int(it), int(nn), int(wa), int(ws),
                            float(frac), float(off), float(west), float(wmax))
        )
    return out


# ---- command bodies ------------------------------------------------------


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _cell_id(cell: dict) -> str:
    if not cell:
        return "base"
    return "-".join(f"{k}={_fmt(v)}" for k, v in sorted(cell.items()))


def _tail_means(records: list[IterationRecord]) -> tuple[float, float]:
    tail = records[-SUMMARY_WINDOW:]
    if not tail:
        return 0.0, 0.0
    frac = sum(r.whitewash_fraction for r in tail) / len(tail)
    offer = sum(r.mean_offered_r_ini for r in tail) / len(tail)
    return frac, offer


def scenario_grid(
    base: SimConfig,
    cells: tuple[dict, ...],
    seeds: tuple[int, ...],
    out_dir: Path,
    quiet: bool = False,
) -> list[tuple]:
    """Run every cell x seed, write one CSV per run plus a summary CSV of
    trailing-window means, and return the summary rows."""
    summary = []
    for cell in cells:
        cid = _cell_id(cell)
        for seed in seeds:
            cfg = dataclasses.replace(base, **cell, seed=seed)
            records = engine.run(cfg)
            path = out_dir / f"sim-{cid}-seed{seed}.csv"
            emit_csv(records, path)
            _say(quiet, f"wrote {path}")
            frac, offer = _tail_means(records)
            summary.append((cid, seed, frac, offer))
    path = out_dir / "summary.csv"
    _write_csv(
        path,
        "scenario,seed,final_window_whitewash_fraction,final_window_mean_offer",
        summary,
    )
    _say(quiet, f"wrote {path}")
    return summary


def _run_simulate(plan: SimulatePlan, out_dir: Path, quiet: bool) -> None:
    if plan.cells:
        scenario_grid(plan.base, plan.cells, plan.seeds, out_dir, quiet)
        return
    records = engine.run(plan.base)
    path = out_dir / "run.csv"
    emit_csv(records, path)
    _say(quiet, f"wrote {path}")
    frac, offer = _tail_means(records)
    _say(quiet, f"final-window whitewash fraction {_fmt(frac)}, mean offer {_fmt(offer)}")


def _run_payoff_sweep(plan: PayoffSweepPlan, out_dir: Path, quiet: bool) -> None:
    rows = []
    for x, r_ini, regime in itertools.product(plan.xs, plan.r_inis, plan.regimes):
        z = plan.z_over_c if regime is IdentityRegime.FINITE_COST else 0.0
        params = PayoffParams(
            mu=plan.mu, x=x, r_ini=r_ini, delta=plan.delta,
            z=z, m=plan.m, m_prime=plan.m_prime,
        )
        try:
            k = payoff.crossover_round(params, regime, cap=plan.cap)
        except payoff.CrossoverCapExceeded:
            k = f">{plan.cap}"
        rows.append((x, r_ini, regime.value, plan.mu, z, k))
    path = out_dir / "payoff_sweep.csv"
    _write_csv(path, "x,r_ini,regime,mu,z_over_c,k_crossover", rows)
    _say(quiet, f"wrote {path}")


def _run_game_report(spec: GameSpec, out_dir: Path, quiet: bool) -> None:
    pure = game.pure_strategy_analysis(spec)
    mixed_ok = 2 <= spec.rounds <= spec.kappa
    profile = game.mixed_equilibrium(spec) if mixed_ok else None
    span = game.best_randomization_span(spec) if spec.kappa >= 2 else None

    rows = []
    if span is not None:
        for s in span.spans:
            for j, u in enumerate(span.payoffs_by_span[s]):
                rows.append((s, j, u))
    path = out_dir / "game_report.csv"
    _write_csv(path, "span,player,expected_payoff", rows)
    _say(quiet, f"wrote {path}")

    lines = [
        f"whitewash timing game: {spec.kappa} players, {spec.rounds} rounds",
        f"offer schedule by co-arrival count: "
        f"{', '.join(_fmt(v) for v in spec.schedule())}",
        "",
        "pure strategies:",
        f"  whitewashing weakly dominant: {pure.whitewash_weakly_dominant}",
        f"  all-whitewash payoff: {_fmt(pure.all_whitewash_payoff)}",
        f"  {pure.collapse_note}",
    ]
    if profile is not None:
        residual = game.indifference_residual(spec, profile)
        lines += [
            "",
            "mixed equilibrium (uniform over rounds):",
            f"  round probabilities per player: "
            f"{', '.join(_fmt(float(p)) for p in profile.probs[0])}",
            f"  indifference residual: {_fmt(residual)}",
        ]
    if span is not None:
        lines += [
            "",
            "randomization spans:",
            f"  best span per player: {', '.join(str(s) for s in span.best_span_per_player)}",
            f"  full span weakly dominates: {span.full_span_dominates}",
            f"  whitewash-every-round payoffs: "
            f"{', '.join(_fmt(u) for u in span.every_round_payoffs)}",
        ]
        lines += [f"  note: {n}" for n in span.notes]
    path = out_dir / "game_report.txt"
    path.write_text("\n".join(lines) + "\n")
    _say(quiet, f"wrote {path}")


def _run_fixed_point(plan: FixedPointPlan, out_dir: Path, quiet: bool) -> None:
    rows = []
    for w_max in plan.w_maxes:
        w = game.fixed_point(plan.r_ini_max, plan.r_ini_min, w_max)
        rows.append((plan.r_ini_max, plan.r_ini_min, w_max, w))
        _say(quiet, f"w_max {_fmt(w_max)}: operating point {_fmt(w)}")
    path = out_dir / "fixed_point.csv"
    _write_csv(path, "r_ini_max,r_ini_min,w_max,fixed_point", rows)
    _say(quiet, f"wrote {path}")


def _run_frontier(plan: FrontierPlan, out_dir: Path, quiet: bool) -> None:
    xs = np.arange(plan.x_step, 1.0, plan.x_step)
    rows = [(float(x), payoff.feasibility_boundary(plan.mu, float(x), plan.m_ratio)) for x in xs]
    path = out_dir / "frontier.csv"
    _write_csv(path, "x,max_r_ini", rows)
    _say(quiet, f"wrote {path}")
    r_star, x_star = payoff.max_feasible_r_ini(plan.mu, plan.m_ratio)
    path = out_dir / "frontier_best.csv"
    _write_csv(path, "mu,m_ratio,r_star,x_star", [(plan.mu, plan.m_ratio, r_star, x_star)])
    _say(quiet, f"wrote {path}")
    _say(quiet, f"largest defensible newcomer grant {_fmt(r_star)} at exponent {_fmt(x_star)}")


def _run_estimator_check(plan: EstimatorCheckPlan, out_dir: Path, quiet: bool) -> None:
    estimated, true_level = engine.closed_world_estimator_check(plan.base, plan.injected)
    row = (
        plan.base.topology, plan.base.n, plan.base.growth_percent_per_10,
        plan.base.seed, plan.injected, estimated, true_level, abs(estimated - true_level),
    )
    path = out_dir / "estimator_check.csv"
    _write_csv(
        path,
        "topology,n,growth_percent_per_10,seed,injected,estimated,true_level,abs_error",
        [row],
    )
    _say(quiet, f"wrote {path}")
    _say(
        quiet,
        f"estimated {_fmt(estimated)} vs planted {_fmt(true_level)} "
        f"(abs error {_fmt(abs(estimated - true_level))})",
    )


_RUNNERS = {
    "simulate": _run_simulate,
    "payoff-sweep": _run_payoff_sweep,
    "game-report": _run_game_report,
    "fixed-point": _run_fixed_point,
    "frontier": _run_frontier,
    "estimator-check": _run_estimator_check,
}


# ---- entry point ---------------------------------------------------------


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2psim",
        description="whitewash-resistant P2P reputation simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path, help="JSON parameter file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def _error_line(kind: str, command: str, detail: str) -> None:
    print(json.dumps({"error": kind, "command": command, "detail": detail}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        output_dir=args.out,
        seed_override=args.seed,
        quiet=args.quiet,
    )
    try:
        plan = parse_config(manifest.config_path, manifest.command, manifest.seed_override)
    except ConfigError as err:
        _error_line("config", manifest.command, str(err))
        return 2
    try:
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[manifest.command](plan, manifest.output_dir, manifest.quiet)
    except OSError as err:
        _error_line("io", manifest.command, str(err))
        return 3
    except Exception as err:  # noqa: BLE001 - boundary: report, do not crash
        _error_line("run", manifest.command, f"{type(err).__name__}: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
