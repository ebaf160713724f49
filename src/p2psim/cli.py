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
import collections
import dataclasses
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine, game, payoff
from .engine import IterationRecord, SimConfig
from .game import GameSpec
from .payoff import IdentityRegime, PayoffParams

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(IterationRecord))

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


# ---- config schema -------------------------------------------------------
#
# Every command reads its keys through one table of Specs. The same rules
# hold for every key of every command and every grid cell: a bool, NaN, an
# infinity, a value of the wrong kind or an empty list is rejected; a float
# with an integral value below 2**53 in magnitude is read as an int where an
# int is wanted (past 2**53 a float need not be the integer it was written
# as: 1e30 reads as 1000000000000000019884624838656). A number
# outside its Spec's interval is rejected. Rules that a library object
# enforces (SimConfig's ranges, GameSpec's) stay there: its ValueError
# becomes one clause of the ConfigError.


@dataclass(frozen=True)
class Spec:
    """How one config key is read: its kind (int, float, str, an Enum, or a
    reader function), its default, the interval a number must lie in,
    written like "(0, 1]", and whether it takes a non-empty list (a lone
    value stands for a list of one)."""

    kind: object
    default: object = None
    interval: str | None = None
    many: bool = False


def _field(default, interval: str):
    """A plan field whose config key must lie in `interval`."""
    return dataclasses.field(default=default, metadata={"interval": interval})


def _specs(cls) -> dict[str, Spec]:
    """One Spec per field of a plan or config dataclass: the kind from its
    annotation (tuple[X, ...] is a list of X), default and interval from
    the field."""
    hints = typing.get_type_hints(cls)
    specs = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        many = typing.get_origin(kind) is tuple
        specs[f.name] = Spec(
            typing.get_args(kind)[0] if many else kind, f.default, f.metadata.get("interval"), many
        )
    return specs


@dataclass(frozen=True)
class SimulatePlan:
    base: SimConfig
    cells: tuple[dict, ...]  # () means a single plain run
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class PayoffSweepPlan:
    mu: float = _field(0.5, "(0, 1]")
    x: tuple[float, ...] = _field((0.25, 0.5, 0.75, 1.0), "(0, 1]")
    r_ini: tuple[float, ...] = _field((0.0, 0.03, 0.1, 0.3, 0.5), "[0, 1]")
    regimes: tuple[IdentityRegime, ...] = tuple(IdentityRegime)
    z_over_c: float = _field(1.0, "[0, inf)")
    m: float = _field(1.0, "[0, inf)")
    m_prime: float = _field(1.0, "[0, inf)")
    delta: float = _field(0.0, "[0, inf)")
    # Work bound: a cell evaluates the few rounds around its crossover, but
    # one whose gap stays within rounding of 0 walks up to `cap` rounds.
    cap: int = _field(payoff.DEFAULT_CROSSOVER_CAP, "[1, 1e7]")


@dataclass(frozen=True)
class FixedPointPlan:
    r_ini_max: float = _field(0.5, "[0, 1]")
    r_ini_min: float = _field(0.03, "[0, 1]")
    w_max: tuple[float, ...] = _field((0.5,), "(0, 1]")


@dataclass(frozen=True)
class FrontierPlan:
    mu: float = _field(0.5, "(0, 1)")
    m_ratio: float = _field(1.0, "(0, inf)")
    # Work bound: the curve has at most 1/x_step points.
    x_step: float = _field(0.005, "[1e-5, 0.5]")


@dataclass(frozen=True)
class EstimatorCheckPlan:
    base: SimConfig
    injected: int


# Work bound on a simulate grid (cells, and runs: cells x seeds), a payoff
# sweep and a fixed-point w_max list, checked before a cross product expands.
MAX_GRID_CELLS = 1000
# Work bound on one simulate or estimator-check command: the node-iterations
# all its runs project (`_project_run`), about 170 8%-growth scale-free runs.
MAX_NODE_ITERATIONS = 10**9
# Bound on one run's estimator windows (`_project_run`): window_n_prime float64
# levels per node, 80 MB here, counted at the node count growth projects. A run
# drops the rows of removed nodes (`Simulation._compact`), and its rows stay
# within twice its peak live count plus one growth batch on high-churn runs
# (tests/test_engine.py), so what it allocates stays within about twice this.
MAX_WINDOW_CELLS = 10**7
# Bound on one run's overlay edge ends (two per edge), at the most it can hold
# (`_project_run`). Slab slack and stale pool entries come on top, up to about
# 7 int64 words per edge end at a dense build's peak (ROADMAP item 19).
MAX_EDGE_ENDS = 10**7
# The longest file name most file systems take, in bytes: a grid run's CSV
# is named after its cell's overrides and seed, so long overrides can pass it.
MAX_FILE_NAME_BYTES = 255
# Largest kappa one game-report takes, from a budget of 10^7 joint round
# assignments across its exact enumerations: s^kappa for each span s =
# 2..kappa, plus kappa * rounds^kappa for the residual at 2 <= rounds <= kappa.
# The worst kappa-7 report (rounds 7) takes 1,200,303 + 7 * 7^7 = 6,965,104,
# about 0.2 s; kappa 8's spans alone take 24,684,611.
MAX_GAME_KAPPA = 7

_SIM_SPECS = _specs(SimConfig)
# A grid cell overrides any SimConfig field but the seed, which `seeds` sets.
_CELL_SPECS = {k: s for k, s in _SIM_SPECS.items() if k != "seed"}
_COLUMN_SPECS = {k: dataclasses.replace(s, many=True) for k, s in _CELL_SPECS.items()}


def _inside(value, interval: str) -> bool:
    lo, hi = (float(end.strip("[]() ")) for end in interval.split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    return above and (value < hi if interval[-1] == ")" else value <= hi)


def _read_one(name: str, spec: Spec, value):
    kind = spec.kind
    if kind is int:
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name}: must be an integer, got {value!r}")
    elif kind is float:  # the bound is false for NaN, infinities and ints past a float
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
        ):
            raise ValueError(f"{name}: must be a finite number, got {value!r}")
    elif kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name}: must be a string, got {value!r}")
    else:  # an Enum or a reader function
        try:
            value = kind(value)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
    if spec.interval and not _inside(value, spec.interval):
        raise ValueError(f"{name}: {value!r} outside {spec.interval}")
    return value


def _read(name: str, spec: Spec, value):
    """The value of one key, read by its Spec; raises ValueError listing
    every problem. null stands for the default where that is null."""
    if value is None and spec.default is None:
        return None
    if not spec.many:
        return _read_one(name, spec, value)
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ValueError(f"{name}: must be a non-empty list")
    out, problems = [], []
    for item in items:
        try:
            out.append(_read_one(name, spec, item))
        except ValueError as err:
            problems.append(str(err))
    if problems:
        raise ValueError("; ".join(problems))
    return tuple(out)


def _read_object(data: dict, specs: dict[str, Spec], problems: list[str], where: str = "") -> dict:
    """The keys of `data` that read cleanly; every problem, unknown keys
    included, is added to `problems` prefixed by `where`."""
    unknown = sorted(set(data) - set(specs))
    if unknown:
        problems.append(
            f"{where}unknown key(s): {', '.join(unknown)} (allowed: {', '.join(sorted(specs))})"
        )
    out = {}
    for name, value in data.items():
        if name in specs:
            try:
                out[name] = _read(name, specs[name], value)
            except ValueError as err:
                problems.append(where + str(err))
    return out


def _grid(grid) -> tuple[dict, ...]:
    """Read a simulate grid: "default", a {parameter: [values]} cross
    product, or a list of override objects."""
    problems: list[str] = []
    if grid == "default":
        return tuple(dict(c) for c in DEFAULT_GRID_CELLS)
    if isinstance(grid, dict) and grid:
        columns = _read_object(grid, _COLUMN_SPECS, problems)
        size = math.prod(len(v) for v in columns.values())
        if size > MAX_GRID_CELLS:
            problems.append(f"{size} cells, more than {MAX_GRID_CELLS}")
        if not problems:
            names = sorted(columns)
            return tuple(
                dict(zip(names, combo)) for combo in itertools.product(*(columns[n] for n in names))
            )
    elif isinstance(grid, list) and grid:
        if len(grid) > MAX_GRID_CELLS:
            raise ValueError(f"{len(grid)} cells, more than {MAX_GRID_CELLS}")
        cells = []
        for i, cell in enumerate(grid):
            if isinstance(cell, dict):
                cells.append(_read_object(cell, _CELL_SPECS, problems, f"cell {i}: "))
            else:
                problems.append(f"cell {i}: must be an object of overrides")
        if not problems:
            return tuple(cells)
    else:
        problems.append(
            'expected "default", a non-empty {parameter: [values]} object '
            "or a non-empty list of override objects"
        )
    raise ValueError("; ".join(problems))


def _project_run(cfg: SimConfig, iterations: int) -> tuple[float, float]:
    """Project one run of `iterations` steps with every growth batch adding
    its full percentage (departures only shrink it). Raises ValueError where
    its estimator windows pass MAX_WINDOW_CELLS, else where its overlay can
    hold more than MAX_EDGE_ENDS edge ends; returns its edge ends and
    node-iterations. Every edge is one node's own: a node that attaches, at
    growth or at a whitewash rejoin, owns the edges it wires, attach_edges
    (or every other node, when there are fewer), and so does each node of a
    scale-free build, the seed clique's included. Only live nodes own edges,
    and rejoins and departures never raise the live count. The windows are
    compared as logarithms, the periods capped where the work bound rejects
    the run anyway; once they fit, the grown node count is below
    MAX_WINDOW_CELLS, so no float below can overflow."""
    period = engine.GROWTH_PERIOD
    periods = iterations // period
    rate = math.log1p(cfg.growth_percent_per_10 / 100)
    growth = min(periods, MAX_NODE_ITERATIONS) * rate
    if math.log(cfg.n * cfg.window_n_prime) + growth > math.log(MAX_WINDOW_CELLS):
        raise ValueError(
            f"window_n_prime: {cfg.n} nodes x {cfg.window_n_prime} levels, with growth, "
            f"is more than {MAX_WINDOW_CELLS:.0e} window cells"
        )
    grown = math.exp(growth)
    most = cfg.n * grown
    built = cfg.n * cfg.degree if cfg.topology == "regular" else 0
    ends = built + 2 * min(cfg.attach_edges, most) * most
    if ends > MAX_EDGE_ENDS:
        raise ValueError(
            f"edges: the overlay could hold {ends:.3g} edge ends (two per edge, with growth "
            f"and rejoins), more than {MAX_EDGE_ENDS:.0e}"
        )
    # The sum over k = 1..iterations of n * (1 + g/100) ** (k // period), in
    # closed form per growth period. Every term is at least n, and a run this
    # guard passes has fewer growth periods than `growth` caps.
    if cfg.n * iterations > MAX_NODE_ITERATIONS:
        return ends, math.inf
    full = periods if rate == 0 else math.expm1(growth) / math.expm1(rate)
    last = (iterations - period * periods + 1) * grown
    return ends, cfg.n * (period * full + last - 1)


def _check_work(node_iterations: float) -> None:
    if node_iterations > MAX_NODE_ITERATIONS:
        raise ValueError(
            f"work: more than {MAX_NODE_ITERATIONS:.0e} node-iterations projected "
            "(grid cells x seeds x nodes x iterations, with growth)"
        )


def _simulate_plan(grid, seeds, **sim) -> SimulatePlan:
    base = SimConfig(**sim)
    if seeds is not None and not grid:
        raise ValueError("seeds: needs a grid (a run without one uses seed)")
    cells, seeds = grid or (), seeds or (base.seed,)
    if len(cells) * len(seeds) > MAX_GRID_CELLS:
        raise ValueError(
            f"{len(cells) * len(seeds)} runs (grid cells x seeds), more than {MAX_GRID_CELLS}"
        )
    problems, runs = [], []
    for label, change in [(f"grid cell {_cell_id(c)}", c) for c in cells] + [
        (f"seeds: {s}", {"seed": s}) for s in seeds
    ]:
        try:
            runs.append(dataclasses.replace(base, **change))
        except ValueError as err:
            problems.append(f"{label}: {err}")
    problems += [  # the largest seed names the longest CSV of a cell
        f"grid cell {_cell_id(c)}: its CSV name is longer than {MAX_FILE_NAME_BYTES} bytes"
        for c in cells
        if len(_run_file(c, max(seeds)).encode()) > MAX_FILE_NAME_BYTES
    ]
    named = collections.Counter(_run_file(c, s) for c in cells for s in seeds)
    problems += [  # equal cells, cells that format alike, a repeated seed
        f"grid: {runs} runs (grid cells x seeds) would all write {name}"
        for name, runs in named.items()
        if runs > 1
    ]
    if problems:
        raise ValueError("; ".join(problems))
    runs = runs[: len(cells)] or [base]  # a seed changes no projection
    _check_work(len(seeds) * sum(_project_run(cfg, cfg.iterations)[1] for cfg in runs))
    return SimulatePlan(base, cells, seeds)


def _estimator_check_plan(injected, **sim) -> EstimatorCheckPlan:
    base = SimConfig(**sim)
    _check_work(_project_run(base, engine.GROWTH_PERIOD + 1)[1])
    return EstimatorCheckPlan(base, injected)


def _payoff_sweep_plan(**values) -> PayoffSweepPlan:
    plan = PayoffSweepPlan(**values)
    problems = []
    cells = len(plan.x) * len(plan.r_ini) * len(plan.regimes)
    if cells > MAX_GRID_CELLS:
        problems.append(f"{cells} cells (x by r_ini by regimes), more than {MAX_GRID_CELLS}")
    if IdentityRegime.FINITE_COST in plan.regimes and plan.z_over_c <= 0:
        problems.append("z_over_c: finite_cost regime needs a positive identity price")
    if problems:
        raise ValueError("; ".join(problems))
    return plan


def _fixed_point_plan(**values) -> FixedPointPlan:
    plan = FixedPointPlan(**values)
    if len(plan.w_max) > MAX_GRID_CELLS:
        raise ValueError(f"w_max: {len(plan.w_max)} values, more than {MAX_GRID_CELLS}")
    # The offer curve minus the diagonal is r_ini_min - w_max at w = w_max
    # and at least 0 at w = 0, so it has a root in [0, w_max] exactly when
    # w_max >= r_ini_min.
    low = [w for w in plan.w_max if w < plan.r_ini_min]
    if low:
        raise ValueError(
            f"w_max: {low} below r_ini_min {plan.r_ini_min!r}, where the offer curve "
            "never meets the diagonal"
        )
    return plan


def _frontier_plan(**values) -> tuple[FrontierPlan, tuple[float, float]]:
    """The plan and its best point (r_star, x_star). An infeasible (mu, m_ratio)
    raises `payoff.InfeasibleRegionError`, a ValueError: a config error."""
    plan = FrontierPlan(**values)
    return plan, payoff.max_feasible_r_ini(plan.mu, plan.m_ratio)


def _game_spec(kappa, rounds, **rest) -> GameSpec:
    rounds = kappa if rounds is None else rounds
    return GameSpec(kappa, rounds, **rest)


def parse_config(path: Path, command: str = "simulate", seed_override: int | None = None):
    """Load and validate the JSON config for one command.

    Returns the command's plan object with defaults filled in (frontier's
    with its best point). Raises ConfigError with every problem listed
    (parse position for syntax errors, one clause per violated rule otherwise).
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    specs, build, _ = _COMMANDS[command]
    problems: list[str] = []
    values = {name: spec.default for name, spec in specs.items()}
    values.update(_read_object(_load_json_object(Path(path)), specs, problems))
    if seed_override is not None and "seed" in specs:  # --seed replaces seed and seeds
        values["seed"] = seed_override
        if "seeds" in specs:
            values["seeds"] = None
    try:
        plan = build(**values)
    except ValueError as err:
        problems.append(str(err))
    if problems:
        raise ConfigError("; ".join(problems))
    return plan


def _load_json_object(path: Path) -> dict:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise ConfigError("config nests too deeply") from err
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of named parameters")
    return data


# ---- CSV emission --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        if math.isinf(value):
            return "inf"
        return f"{float(value):.12g}"
    return str(value)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _write_csv(path: Path, header: str, rows, quiet: bool) -> None:
    """Write the header and one line per row, then `wrote <path>` unless quiet."""
    # Every command writes a CSV first, so a run that fails before it leaves
    # no output directory.
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    _say(quiet, f"wrote {path}")


def emit_csv(records: list[IterationRecord], path: Path) -> None:
    """Write one iteration per row under the fixed simulate header; floats
    carry 12 significant digits so a parse round-trips the run exactly."""
    _write_csv(Path(path), CSV_HEADER, map(dataclasses.astuple, records), quiet=True)


# ---- command bodies ------------------------------------------------------


def _cell_id(cell: dict) -> str:
    if not cell:
        return "base"
    return "-".join(f"{k}={_fmt(v)}" for k, v in sorted(cell.items()))


def _run_file(cell: dict, seed: int) -> str:
    """The name of one grid run's CSV."""
    return f"sim-{_cell_id(cell)}-seed{seed}.csv"


def _tail_means(records: list[IterationRecord]) -> tuple[float, float]:
    tail = records[-SUMMARY_WINDOW:]
    if not tail:
        return 0.0, 0.0
    frac = sum(r.whitewash_fraction for r in tail) / len(tail)
    offer = sum(r.mean_offered_r_ini for r in tail) / len(tail)
    return frac, offer


def _run_simulate(plan: SimulatePlan, out_dir: Path, quiet: bool) -> None:
    """Run every grid cell x seed, or the one plain run, and write a CSV per
    run. A grid then writes a summary CSV of trailing-window means; a plain
    run prints them."""
    summary = []
    for cell in plan.cells or ({},):
        for seed in plan.seeds:
            records = engine.run(dataclasses.replace(plan.base, **cell, seed=seed))
            path = out_dir / (_run_file(cell, seed) if plan.cells else "run.csv")
            _write_csv(path, CSV_HEADER, map(dataclasses.astuple, records), quiet)
            summary.append((_cell_id(cell), seed, *_tail_means(records)))
    if plan.cells:
        _write_csv(
            out_dir / "summary.csv",
            "scenario,seed,final_window_whitewash_fraction,final_window_mean_offer",
            summary,
            quiet,
        )
    else:
        _, _, frac, offer = summary[0]
        _say(quiet, f"final-window whitewash fraction {_fmt(frac)}, mean offer {_fmt(offer)}")


def _run_payoff_sweep(plan: PayoffSweepPlan, out_dir: Path, quiet: bool) -> None:
    rows = []
    for x, r_ini, regime in itertools.product(plan.x, plan.r_ini, plan.regimes):
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
    _write_csv(out_dir / "payoff_sweep.csv", "x,r_ini,regime,mu,z_over_c,k_crossover", rows, quiet)


def _run_game_report(spec: GameSpec, out_dir: Path, quiet: bool) -> None:
    pure = game.pure_strategy_analysis(spec)
    mixed_ok = 2 <= spec.rounds <= spec.kappa
    residual = game.mixed_equilibrium(spec) if mixed_ok else None
    span = game.best_randomization_span(spec)

    rows = []
    for s in span.spans:
        for j, u in enumerate(span.payoffs_by_span[s]):
            rows.append((s, j, u))
    _write_csv(out_dir / "game_report.csv", "span,player,expected_payoff", rows, quiet)

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
    if residual is not None:
        lines += [
            "",
            "mixed equilibrium (uniform over rounds):",
            f"  round probabilities per player: "
            f"{', '.join([_fmt(1.0 / spec.rounds)] * spec.rounds)}",
            f"  indifference residual: {_fmt(residual)}",
        ]
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
    for w_max in plan.w_max:
        w = game.fixed_point(plan.r_ini_max, plan.r_ini_min, w_max)
        rows.append((plan.r_ini_max, plan.r_ini_min, w_max, w))
        _say(quiet, f"w_max {_fmt(w_max)}: operating point {_fmt(w)}")
    _write_csv(out_dir / "fixed_point.csv", "r_ini_max,r_ini_min,w_max,fixed_point", rows, quiet)


def _run_frontier(
    planned: tuple[FrontierPlan, tuple[float, float]], out_dir: Path, quiet: bool
) -> None:
    plan, (r_star, x_star) = planned
    xs = np.arange(plan.x_step, 1.0, plan.x_step)
    rows = [(float(x), payoff.feasibility_boundary(plan.mu, float(x), plan.m_ratio)) for x in xs]
    _write_csv(out_dir / "frontier.csv", "x,max_r_ini", rows, quiet)
    best = [(plan.mu, plan.m_ratio, r_star, x_star)]
    _write_csv(out_dir / "frontier_best.csv", "mu,m_ratio,r_star,x_star", best, quiet)
    _say(quiet, f"largest defensible newcomer grant {_fmt(r_star)} at exponent {_fmt(x_star)}")


def _run_estimator_check(plan: EstimatorCheckPlan, out_dir: Path, quiet: bool) -> None:
    # How many potential whitewashers the run holds is known only once it
    # has run, so a shortfall is a config error found at run time.
    try:
        estimated, true_level = engine.closed_world_estimator_check(plan.base, plan.injected)
    except engine.TooFewWhitewashers as err:
        raise ConfigError(str(err)) from err
    row = (
        plan.base.topology, plan.base.n, plan.base.growth_percent_per_10,
        plan.base.seed, plan.injected, estimated, true_level, abs(estimated - true_level),
    )
    _write_csv(
        out_dir / "estimator_check.csv",
        "topology,n,growth_percent_per_10,seed,injected,estimated,true_level,abs_error",
        [row],
        quiet,
    )
    _say(
        quiet,
        f"estimated {_fmt(estimated)} vs planted {_fmt(true_level)} "
        f"(abs error {_fmt(abs(estimated - true_level))})",
    )


# command -> (config keys, plan builder, runner)
_COMMANDS = {
    "simulate": (
        {**_SIM_SPECS, "grid": Spec(_grid), "seeds": Spec(int, many=True)},
        _simulate_plan,
        _run_simulate,
    ),
    "payoff-sweep": (_specs(PayoffSweepPlan), _payoff_sweep_plan, _run_payoff_sweep),
    "game-report": (
        {
            # The dominance analysis needs two players.
            "kappa": Spec(int, 3, f"[2, {MAX_GAME_KAPPA}]"),
            "rounds": Spec(int),  # null means kappa
            "r_ini_max": Spec(float, 0.5),
            "r_ini_min": Spec(float, 0.03),
            "honesty": Spec(float, many=True),
        },
        _game_spec,
        _run_game_report,
    ),
    "fixed-point": (_specs(FixedPointPlan), _fixed_point_plan, _run_fixed_point),
    "frontier": (_specs(FrontierPlan), _frontier_plan, _run_frontier),
    "estimator-check": (
        {**_SIM_SPECS, "injected": Spec(int, 10, "[0, inf)")},
        _estimator_check_plan,
        _run_estimator_check,
    ),
}
COMMANDS = tuple(_COMMANDS)


# ---- entry point ---------------------------------------------------------


def _build_arg_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given a known command, it holds that
    command's subparser alone: the usage and errors are the same, and the
    others cost a few milliseconds each to build."""
    parser = argparse.ArgumentParser(
        prog="p2psim",
        description="whitewash-resistant P2P reputation simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in [command] if command in _COMMANDS else COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path, help="JSON parameter file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def _error_line(kind: str, command: str, detail: str) -> None:
    print(json.dumps({"error": kind, "command": command, "detail": detail}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_arg_parser(argv[0] if argv else None).parse_args(argv)
    try:
        plan = parse_config(args.config, args.command, args.seed)
        _COMMANDS[args.command][2](plan, args.out, args.quiet)
    except ConfigError as err:
        _error_line("config", args.command, str(err))
        return 2
    except OSError as err:
        _error_line("io", args.command, str(err))
        return 3
    except Exception as err:  # noqa: BLE001 - boundary: report, do not crash
        _error_line("run", args.command, f"{type(err).__name__}: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
