"""Record the output digests that the benchmark checks every run against.

    python3 perfbench/make_golden.py

Run it from the root of a checkout at the commit whose outputs are the
reference. It runs one unit of every workload on every input set, writes
`golden.json` and reports every digest that changed. The benchmark itself
never writes this file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

GOLDEN = run.HERE / "golden.json"


def _digests(workload: str, input_set: int) -> dict:
    out = run.OUT / "golden" / f"{workload}-{input_set}"
    shutil.rmtree(out, ignore_errors=True)
    runner = run.Runner(workload, out, {}, record=True)
    if runner.unit(input_set) is None:
        raise SystemExit(f"{workload} input set {input_set} failed")
    return runner.golden[str(input_set)]


def main() -> int:
    jobs = [(w, s) for w in workloads.NAMES for s in range(workloads.INPUT_SETS)]
    found = [_digests(*job) for job in jobs]
    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    new: dict = {}
    for (workload, input_set), digests in zip(jobs, found):
        new.setdefault(workload, {})[str(input_set)] = digests
        before = old.get(workload, {}).get(str(input_set), {})
        for name, digest in digests.items():
            if before.get(name) not in (None, digest):
                print(f"changed: {workload} set {input_set} {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
