"""Run every workload on several seeds, twice, and compare the two sets.

    python3 bench/baseline.py --seeds 1 2 3 --out bench/out/summary.json

Each seed is one untraced run of ``bench/run.py``.  The seeds are run as
two sets, one after the other, over all workloads; one more traced run
per workload gives the per-layer figures.  For each set and end-to-end
metric the summary holds the median, the quartiles and their distance as
a share of the median (the spread), as ``statistics.quantiles`` gives
them, and for each metric the ratio of the second set's median to the
first's.  ``bench/baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {w: {} for w in names}}
    for s in range(SETS):
        for workload in names:
            runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
            summary["workloads"][workload][f"set{s + 1}"] = {
                "correct": [r["correct"] for r in runs],
                "failed_share": [r["failed"] / r["attempted"] for r in runs],
                "wall_s": [round(r["wall_s"], 1) for r in runs],
                "end_to_end": summarise(runs),
            }
            args.out.write_text(json.dumps(summary, indent=1))
            for name, m in summary["workloads"][workload][f"set{s + 1}"]["end_to_end"].items():
                print(f"set {s + 1} {workload:14s} {name:18s} median {m['median']:.6g} "
                      f"{m['unit']:12s} spread {m['spread']:.3f}", flush=True)
    for workload in names:
        entry = summary["workloads"][workload]
        first, second = entry["set1"]["end_to_end"], entry[f"set{SETS}"]["end_to_end"]
        entry["median_ratio"] = {name: second[name]["median"] / first[name]["median"]
                                 for name in first}
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record = json.loads((BENCH / "out" / f"{workload}-seed{args.seeds[0]}-trace0.json").read_text())
        summary["environment"] = record["environment"]
        args.out.write_text(json.dumps(summary, indent=1))
        for name, ratio in entry["median_ratio"].items():
            print(f"{workload:14s} {name:18s} median ratio {ratio:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
