"""Run the benchmark once per seed and summarize how steady each metric is.

    python3 perfbench/spread.py [--workload NAME ...] [--traced] [--out FILE]
                                [--against FILE]

Run it from the root of a checkout. It runs each workload at seeds 0 to 9
and, for every end-to-end metric, prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
beside a third of the metric's bound from BENCHMARK.json. With `--traced`
it adds one traced run at seed 0 for the per-layer metrics. `--out` saves
the summary with each run's counts, metric values and manifest as JSON, the
form baseline.json is kept in. `--against` compares every median with the
one in an earlier report and flags it when it is worse by more than the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path.cwd()
SEEDS = range(10)


def _run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("manifest "))


def _entry(seed: int, line: dict, manifest: dict) -> dict:
    """One run as kept in the report: its counts, metric values and manifest."""
    return {
        "seed": seed, "attempted": line["attempted"], "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "manifest": manifest,
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path, help="earlier report to compare medians with")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    report = {}
    for workload in args.workload or workloads.NAMES:
        runs = []
        for seed in SEEDS:
            line, manifest = _run(workload, seed, bench["run_seconds"], trace=False)
            runs.append(_entry(seed, line, manifest))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs]) for name in bounds}
        for name, s in summary.items():
            verdict = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} (bound/3 {bounds[name] / 3:.4f}) {verdict}",
                  flush=True)
        for name, s in summary.items():
            if workload not in earlier:
                break
            old = earlier[workload]["end_to_end"][name]["median"]
            change = s["median"] / old - 1
            worse = change > bounds[name] if better[name] == "lower" else -change > bounds[name]
            print(f"  {name}: median {change:+.4f} against the earlier report "
                  f"(bound {bounds[name]}) {'WORSE' if worse else 'ok'}", flush=True)
        report[workload] = {"end_to_end": summary, "runs": runs}
        if args.traced:
            line, manifest = _run(workload, SEEDS[0], bench["run_seconds"], trace=True)
            report[workload]["traced"] = _entry(SEEDS[0], line, manifest)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
