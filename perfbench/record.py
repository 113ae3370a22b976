"""Run the benchmark over several seeds and append the result to the trajectory.

    python3 perfbench/record.py --label baseline --commit e431a80 --seeds 1-10

For every gated workload in BENCHMARK.json this makes one untraced run per
seed, one after another, then one traced run per workload (the gated ones
and ``roots``) on the first seed. Each end-to-end metric gets its median,
quartiles and spread (quartile distance over the median, the steadiness
measure of BENCHMARK.json); every failed item line is kept. The entry is
appended to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED = ("roots",)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    failures = [ln.strip() for ln in lines if ln.lstrip().startswith(("failed #", "WRONG #"))]
    return json.loads(lines[-1]), failures


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    entry = {"label": args.label, "commit": args.commit, "run_seconds": seconds,
             "seeds": seeds, "end_to_end": {}, "per_layer": {}, "failures": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values, reasons, runs = {}, Counter(), []
        for seed in seeds:
            res, failures = _run(name, seed, seconds, 0)
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         "correct": res["correct"]})
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            reasons.update(f.split(": ", 1)[-1].split(" (")[0] for f in failures)
            print(f"{name} seed {seed}: {res['attempted']} items, {res['failed']} failed", flush=True)
        entry["end_to_end"][name] = {k: _summary(v) for k, v in values.items()}
        entry["failures"][name] = {"runs": runs, "reasons": dict(reasons)}
    for name in [*(w["name"] for w in bench["workloads"]), *TRACED]:
        res, failures = _run(name, seeds[0], seconds, 1)
        entry["per_layer"][name] = {
            "seed": seeds[0], "attempted": res["attempted"], "failed": res["failed"],
            "correct": res["correct"], "failed_items": failures,
            "metrics": {k: m["value"] for k, m in res["metrics"].items()},
        }
        print(f"{name} traced", flush=True)

    path = HERE / "trajectory.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
