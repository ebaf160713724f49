"""Span tracer for the traced benchmark run.

Wrappers go around the calls into each layer of the package, from outside:
the package itself is not edited. Each call records a span (name, start,
end, parent) in memory; self times, call counts and counters are worked out
after the run. A wrapped name that no longer exists is reported as missing,
and every metric that depends on it comes out as null.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from time import monotonic

# span name -> the functions it wraps, as (module, attribute path). A leaf
# span records nothing inside itself: graph generation calls the sampler a
# thousand times in set-up, which belongs to generation, not to sampling.
TARGETS = {
    "engine.step": (("p2psim.engine", "Simulation.step"),),
    "engine.transactions": (("p2psim.engine", "Simulation._record_transactions"),),
    "estimator.sweep": (("p2psim.engine", "Simulation._estimate"),),
    "gossip.snapshot": (("p2psim.engine", "take_snapshot"),),
    "engine.wave": (("p2psim.engine", "Simulation._whitewash_wave"),),
    "agents.decide": (("p2psim.agents", "decide_whitewash"),),
    "engine.departures": (("p2psim.engine", "Simulation._voluntary_departures"),),
    "engine.grow": (("p2psim.engine", "Simulation._grow_population"),),
    "graph.sample": (("p2psim.graph", "Topology.sample_attachment_targets"),),
    "graph.remove_node": (("p2psim.graph", "remove_node"),),
    "graph.rebuild_pool": (("p2psim.graph", "Topology._rebuild_pool"),),
    "graph.generate": (
        ("p2psim.graph", "generate_scale_free"),
        ("p2psim.graph", "generate_regular"),
    ),
    "game.expected_payoffs": (("p2psim.game", "expected_payoffs"),),
    "game.indifference_residual": (("p2psim.game", "indifference_residual"),),
    "game.span": (("p2psim.game", "best_randomization_span"),),
    "payoff.crossover_round": (("p2psim.payoff", "crossover_round"),),
    "payoff.frontier": (
        ("p2psim.payoff", "feasibility_boundary"),
        ("p2psim.payoff", "max_feasible_r_ini"),
    ),
    "cli.parse": (("p2psim.cli", "parse_config"),),
    "cli.emit": (("p2psim.cli", "emit_csv"), ("p2psim.cli", "_write_csv")),
}
LEAVES = {"graph.generate"}

# The phases of a simulated step: every span under engine.step. Their self
# times, without engine.step's own, should account for nearly all of run_s.
ENGINE_PHASES = (
    "estimator.sweep", "gossip.snapshot", "engine.wave", "agents.decide",
    "engine.departures", "engine.grow", "graph.sample", "graph.remove_node",
    "graph.rebuild_pool", "engine.transactions",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.missing: set[str] = set()
        self.last_sim = None
        self._stack: list[int] = []
        self._leaf_depth = 0

    def wrap(self, name: str, fn, after=None):
        leaf = name in LEAVES
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._leaf_depth:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            self._leaf_depth += leaf
            rec[1] = monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = monotonic()
                self._leaf_depth -= leaf
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the span names of the rest."""
        hooks = {
            "engine.step": self._after_step,
            "estimator.sweep": self._after_sweep,
            "agents.decide": self._after_decide,
        }
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))

    def _after_step(self, args, _result) -> None:
        self.last_sim = args[0]

    def _after_sweep(self, args, _result) -> None:
        sweep = getattr(args[0], "last_w_sweep", None)
        if sweep is None:
            self.missing.add("Simulation.last_w_sweep")
        else:
            self.counters["estimator.swept_nodes"] += len(sweep)

    def _after_decide(self, _args, outcome) -> None:
        if outcome.name != "NO_ATTEMPT":
            self.counters["agents.attempts"] += 1
        if outcome.name == "WHITEWASHED":
            self.counters["agents.successes"] += 1

    def self_times(self, since: float = float("-inf")) -> tuple[dict, Counter]:
        """Self time and call count per span name, over spans started at or
        after `since`."""
        self_s: dict[str, float] = {name: 0.0 for name in TARGETS}
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            if start < since:
                continue
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def wrapper_cost(batches: int = 7, calls: int = 20000) -> float:
    """Seconds the span wrapper adds to one call: a wrapped no-op against the
    bare no-op on a tracer of its own, median over `batches` batches."""

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    costs = []
    for _ in range(batches):
        probe.spans.clear()
        t0 = monotonic()
        for _ in range(calls):
            noop()
        t1 = monotonic()
        for _ in range(calls):
            wrapped()
        t2 = monotonic()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def engine_phase_share(tracer: Tracer, run_start: float, run_s: float) -> float:
    """Share of the run phase in the engine phases' self times."""
    run_self, _ = tracer.self_times(since=run_start)
    return sum(run_self[name] for name in ENGINE_PHASES) / run_s if run_s > 0 else 0.0


def layer_metrics(tracer: Tracer, run_start: float) -> dict:
    """Per-layer metrics of one traced unit. Times are self times in
    seconds over the whole unit; `trace.overhead_s` is the wrapper's cost
    per call times the spans recorded in the run phase."""
    s, calls = tracer.self_times()
    _, run_calls = tracer.self_times(since=run_start)
    k = tracer.counters
    swept = k["estimator.swept_nodes"]
    decisions = calls["agents.decide"]
    attempts = k["agents.attempts"]
    topo = tracer.last_sim.topology if tracer.last_sim is not None else None
    values = {
        "estimator.sweep_s": (s["estimator.sweep"], ("estimator.sweep",)),
        "estimator.swept_nodes": (swept, ("estimator.sweep", "Simulation.last_w_sweep")),
        "estimator.sweep_us_per_node": (
            1e6 * s["estimator.sweep"] / swept if swept else 0.0,
            ("estimator.sweep", "Simulation.last_w_sweep"),
        ),
        "engine.wave_s": (s["engine.wave"], ("engine.wave",)),
        "agents.decide_s": (s["agents.decide"], ("agents.decide",)),
        "agents.decide_calls": (decisions, ("agents.decide",)),
        "agents.attempt_ratio": (attempts / decisions if decisions else 0.0, ("agents.decide",)),
        "agents.success_ratio": (
            k["agents.successes"] / attempts if attempts else 0.0, ("agents.decide",)
        ),
        "engine.grow_s": (s["engine.grow"], ("engine.grow",)),
        "graph.sample_s": (s["graph.sample"], ("graph.sample",)),
        "graph.sample_calls": (calls["graph.sample"], ("graph.sample",)),
        "engine.departures_s": (s["engine.departures"], ("engine.departures",)),
        "graph.remove_node_s": (s["graph.remove_node"], ("graph.remove_node",)),
        "graph.remove_node_calls": (calls["graph.remove_node"], ("graph.remove_node",)),
        "graph.pool_rebuilds": (calls["graph.rebuild_pool"], ("graph.rebuild_pool",)),
        "graph.generate_s": (s["graph.generate"], ("graph.generate",)),
        "graph.final_nodes": (topo.node_count if topo else 0, ("engine.step",)),
        "graph.final_edges": (topo.edge_count if topo else 0, ("engine.step",)),
        "gossip.snapshot_s": (s["gossip.snapshot"], ("gossip.snapshot",)),
        "gossip.snapshot_calls": (calls["gossip.snapshot"], ("gossip.snapshot",)),
        "engine.transactions_s": (s["engine.transactions"], ("engine.transactions",)),
        "engine.step_s": (s["engine.step"], ("engine.step",)),
        "game.expected_payoffs_s": (s["game.expected_payoffs"], ("game.expected_payoffs",)),
        "game.indifference_residual_s": (
            s["game.indifference_residual"], ("game.indifference_residual",)
        ),
        "game.span_s": (s["game.span"], ("game.span",)),
        "payoff.crossover_round_s": (s["payoff.crossover_round"], ("payoff.crossover_round",)),
        "payoff.crossover_round_calls": (
            calls["payoff.crossover_round"], ("payoff.crossover_round",)
        ),
        "payoff.frontier_s": (s["payoff.frontier"], ("payoff.frontier",)),
        "cli.parse_s": (s["cli.parse"], ("cli.parse",)),
        "cli.emit_s": (s["cli.emit"], ("cli.emit",)),
        "trace.overhead_s": (wrapper_cost() * sum(run_calls.values()), ()),
    }
    return {
        metric: None if tracer.missing.intersection(needs) else value
        for metric, (value, needs) in values.items()
    }
