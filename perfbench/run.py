"""p2psim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports the package from `src/` there
and writes only under `.perfbench_out/`. Workloads are listed in
`workloads.py`. Each unit of work runs in a fresh single-threaded process
(`unit.py`): one full simulation, or one pass over the analytics commands.
Units repeat while the next one should end within `--seconds` (at least one
runs), so a run never takes much longer than the larger of `--seconds` and
one unit; unit k takes input set seed + k (modulo the number of recorded
sets). Every unit's outputs are checked against the SHA-256 digests in
`golden.json`.

With `--trace 0` the last line reports the end-to-end metrics, medians over
the units of the run: set-up time (five set-up-only processes are added to
the samples), run time, simulated node-iterations per second of run time,
and peak resident memory. Set-up and run time are seconds at the host's
nominal speed, as `meter.py` measures them inside each unit; the manifest
gives their wall-clock medians beside them. With `--trace 1`, traced units
run on the seed's input set; the spans are written beside the outputs, the
last line reports the per-layer metrics, and the manifest gives the share of
each unit's run time spent in the engine phases. A unit fails if its process
raises or exits non-zero, a command exits non-zero, or an output's digest
differs; `failed` over `attempted` is the error rate.

Smoke mode runs every workload on tiny inputs, checks that every metric
named in BENCHMARK.json is reported with its unit, and checks that a flipped
byte in a copied output counts as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
TIME_LIMIT = 170.0  # seconds; a run must end within 180
SETUP_SAMPLES = 5
# The engine phases' self times must account for this share of a traced
# simulation's run time, or the spans miss a part of the step.
MIN_PHASE_SHARE = 0.9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        # Bytecode is cached inside the checkout, as an installed package's
        # would be, and filled by a warm-up process before anything is timed.
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Starts the units of one workload and keeps the failure count.

    `golden` maps an input set to the digests of its outputs. With `record`
    set, the first unit of an input set that has none records them, and
    later units of that set are checked against it."""

    def __init__(self, workload: str, out: Path, golden: dict, record: bool = False,
                 smoke: bool = False):
        self.workload = workload
        self.kind = "simulate" if workload in workloads.SIMULATIONS else "analytics"
        self.out = out
        self.golden = golden
        self.record = record
        self.smoke = smoke
        self.deadline = time.monotonic() + TIME_LIMIT
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self._commands: dict[int, list[dict]] = {}

    def commands(self, input_set: int) -> list[dict]:
        if input_set not in self._commands:
            dest = self.out / "inputs" / str(input_set)
            self._commands[input_set] = workloads.write_inputs(
                self.workload, input_set, dest, self.smoke
            )
        return self._commands[input_set]

    def unit(self, input_set: int, trace: bool = False, setup_only: bool = False,
             counted: bool = True):
        """Run one unit; return its result, or None if it failed."""
        self.units += 1
        unit_dir = self.out / f"unit-{self.units}"
        unit_dir.mkdir(parents=True)
        spec = {
            "kind": self.kind, "commands": self.commands(input_set),
            "out": str(unit_dir / "out"), "trace": trace, "setup_only": setup_only,
            "src": str(SRC), "result": str(unit_dir / "result.json"),
        }
        spec_path = unit_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        self.attempted += counted
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "unit.py"), str(spec_path), repr(spawned)],
                cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{unit_dir.name}: killed at the time limit")
        if proc.returncode != 0:
            return self._fail(f"{unit_dir.name}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads((unit_dir / "result.json").read_text())
        result["input_set"] = input_set
        if not setup_only and not self.verify(unit_dir / "out", input_set):
            return None
        return result

    def verify(self, out_dir: Path, input_set: int) -> bool:
        """Compare every output of a unit with its recorded digest; a
        mismatch or a missing output counts the unit as failed."""
        names = [name for c in self.commands(input_set) for name in c["outputs"]]
        missing = [name for name in names if not (out_dir / name).is_file()]
        if missing:
            self._fail(f"{out_dir}: missing {', '.join(missing)}")
            return False
        found = {name: _sha256(out_dir / name) for name in names}
        expected = self.golden.get(str(input_set))
        if expected is None and self.record:
            self.golden[str(input_set)] = found
            return True
        bad = [name for name in names if expected is None or found[name] != expected.get(name)]
        if bad:
            self._fail(f"{out_dir}: digest differs from the recorded one: {', '.join(bad)}")
        return not bad

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"failed: {message}", file=sys.stderr)
        return None

    def timed_units(self, first: int, seconds: float, trace: bool = False,
                    vary_inputs: bool = True) -> list[dict]:
        """Run units while the next one, taking as long as the last, should
        end within `seconds` and the time limit; at least one runs."""
        results = []
        start = time.monotonic()
        k = 0
        while True:
            began = time.monotonic()
            input_set = workloads.input_set(first + k) if vary_inputs else first
            result = self.unit(input_set, trace=trace)
            k += 1
            if result is not None:
                results.append(result)
            now = time.monotonic()
            last = now - began
            if now - start + last > seconds or now + last > self.deadline:
                return results


def _median(values):
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "p2psim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict,
            smoke: bool = False):
    """One benchmark run. Returns (result line, manifest, runner), or None
    when no measured unit completed."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    if smoke:
        runner = Runner(workload, out, {}, record=True, smoke=True)
    else:
        table = json.loads((HERE / "golden.json").read_text())
        runner = Runner(workload, out, table.get(workload, {}))
    first = workloads.input_set(seed)
    # The warm-up unit fills the bytecode cache; in smoke mode it runs in
    # full and records the digests the later units must reproduce.
    warm = runner.unit(first, setup_only=not smoke, counted=False)
    if warm is None:
        return None

    setups, plain, traced = [], [], []
    if trace:
        traced = runner.timed_units(first, seconds, trace=True, vary_inputs=False)
    else:
        setups = [runner.unit(first, setup_only=True) for _ in range(SETUP_SAMPLES)]
        setups = [r for r in setups if r is not None]
        plain = runner.timed_units(first, seconds)
    if not (traced if trace else plain):
        return None

    phase_share = wall = None
    if trace:
        values = {
            name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
        }
        if runner.kind == "simulate":
            phase_share = statistics.median(r["engine_phase_share"] for r in traced)
            if phase_share < MIN_PHASE_SHARE:
                print(f"engine phases cover only {phase_share:.3f} of the traced run_s",
                      file=sys.stderr)
        missing = sorted(set().union(*(r["missing_spans"] for r in traced)))
        if missing:
            print(f"missing spans, reported as null: {', '.join(missing)}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "node_iters_per_s": statistics.median(r["node_iters"] / r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        wall = {
            "setup_s": statistics.median(r["wall_setup_s"] for r in setups + plain),
            "run_s": statistics.median(r["wall_run_s"] for r in plain),
            "meter_loop_s": statistics.median(r["meter_loop_s"] for r in plain),
        }
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    line = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "input_sets": sorted({r["input_set"] for r in plain + traced}),
        "configs": {c["command"]: json.loads(Path(c["config"]).read_text())
                    for c in runner.commands(first)},
        "units": len(plain), "traced_units": len(traced),
        "engine_phase_share": phase_share, "wall_medians": wall,
        "setup_samples": len(setups) + len(plain),
        "attempted": runner.attempted, "failed": runner.failed,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": warm["numpy"],
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (out / "result.json").write_text(json.dumps(line) + "\n")
    return line, manifest, runner


def _metric_units(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def smoke() -> list[str]:
    problems = []
    for workload in workloads.NAMES:
        runner = None
        for trace in (False, True):
            units = _metric_units(trace)
            got = measure(workload, seed=1, seconds=0, trace=trace, units=units, smoke=True)
            if got is None:
                problems.append(f"{workload} trace={int(trace)}: no unit completed")
                continue
            line, _, runner = got
            if line["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {line['failed']} units failed")
            for name, unit in units.items():
                metric = line["metrics"][name]
                if not isinstance(metric["value"], (int, float)) or metric["unit"] != unit:
                    problems.append(f"{workload} trace={int(trace)}: {name} reported as {metric}")
        if runner is None:
            continue
        copy = runner.out / "flipped"
        shutil.copytree(runner.out / "unit-1" / "out", copy)
        victim = copy / runner.commands(1)[0]["outputs"][0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        print(f"smoke: flipped one byte of {victim}; it must fail:", file=sys.stderr)
        before = runner.failed
        if runner.verify(copy, 1) or runner.failed != before + 1:
            problems.append(f"{workload}: a flipped byte in {victim.name} was not counted")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "p2psim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} is not a p2psim checkout (need src/p2psim and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: ok" if not problems else "smoke: FAILED")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    got = measure(args.workload, args.seed, args.seconds, trace, _metric_units(trace))
    if got is None:
        print("no unit completed; no result", file=sys.stderr)
        return 1
    line, manifest, _ = got
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
