"""One unit of a benchmark workload, run in a fresh process.

    python3 perfbench/unit.py <spec.json> <start>

The spec lists the commands to run (their configs and outputs), the output
directory, and whether to trace or to stop after set-up. `<start>` is the
time, on the system-wide monotonic clock, at which the parent started this
process. Set-up runs from then until the first simulated step or command
body is about to begin; the run ends when every output is written. An
untraced unit reports both at the host's nominal speed, from the meter in
`meter.py`, and on the wall clock; a traced unit reports wall-clock times.
The result goes to the spec's `result` path as JSON; a failed command exits
non-zero.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from meter import Meter


def _simulate(cli, engine, command: dict, out: Path, setup_only: bool) -> dict:
    plan = cli.parse_config(Path(command["config"]), "simulate")
    sim = engine.Simulation(plan.base)
    setup_end = time.monotonic()
    if setup_only:
        return {"setup_end": setup_end}
    run_start = time.monotonic()
    records = [sim.step() for _ in range(plan.base.iterations)]
    cli.emit_csv(records, out / "run.csv")
    run_end = time.monotonic()
    node_iters = sum(r.n_nodes for r in records)
    return {"setup_end": setup_end, "run_start": run_start, "run_end": run_end,
            "node_iters": node_iters}


def _count_node_iters(engine) -> list[int]:
    """Make Simulation.step add each record's n_nodes to the returned total,
    so the node-iterations of commands that step a simulation inside them
    (estimator-check) are counted as taken. It costs one call per step."""
    total = [0]
    step = engine.Simulation.step

    def counted(self):
        record = step(self)
        total[0] += record.n_nodes
        return record

    engine.Simulation.step = counted
    return total


def _analytics(cli, engine, commands: list[dict], out: Path, setup_only: bool) -> dict:
    for c in commands:
        cli.parse_config(Path(c["config"]), c["command"])
    setup_end = time.monotonic()
    if setup_only:
        return {"setup_end": setup_end}
    node_iters = _count_node_iters(engine)
    run_start = time.monotonic()
    for command in commands:
        argv = [command["command"], "--config", command["config"], "--out", str(out), "--quiet"]
        status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"{command['command']} exited with status {status}")
    run_end = time.monotonic()
    return {"setup_end": setup_end, "run_start": run_start, "run_end": run_end,
            "node_iters": node_iters[0]}


def main(spec_path: str, started: float) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = meter = None
    if not spec["trace"]:
        meter = Meter()
        meter.start()
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import numpy
    from p2psim import cli, engine

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"p2psim imported from {cli.__file__}, not from {src}")
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "simulate":
        result = _simulate(cli, engine, spec["commands"][0], out, spec["setup_only"])
    else:
        result = _analytics(cli, engine, spec["commands"], out, spec["setup_only"])
    phases = {"setup": (started, result["setup_end"])}
    if not spec["setup_only"]:
        phases["run"] = (result["run_start"], result["run_end"])
    if meter is not None:
        meter.stop()
        result["meter_loop_s"] = meter.median_loop_s()
    for name, (t0, t1) in phases.items():
        result[f"{name}_s"] = t1 - t0 if meter is None else meter.seconds(t0, t1)
        result[f"wall_{name}_s"] = t1 - t0 if meter is None else meter.wall_seconds(t0, t1)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    if tracer is not None and not spec["setup_only"]:
        tracer.write(out.parent / "spans.csv")
        result["layers"] = spans.layer_metrics(tracer, result["run_start"])
        result["engine_phase_share"] = spans.engine_phase_share(
            tracer, result["run_start"], result["run_s"]
        )
        result["missing_spans"] = sorted(tracer.missing)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
