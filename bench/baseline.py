"""Run the benchmark over ten seeds and summarise each metric.

    python3 bench/baseline.py --out bench/BASELINE.json

For every workload, runs ``run.py`` once per seed 1-10 (untraced), then
once per seed 1-3 with ``--trace 1``, each for BENCHMARK.json's
``run_seconds``, and records each metric's values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance
as a share of the median. Runs one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {}
    for workload, spec in WORKLOADS.items():
        e2e = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, s, seconds, 1) for s in TRACED_SEEDS]
        summary[workload] = {
            "why": spec.why,
            "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
            "traced_seeds": f"{TRACED_SEEDS[0]}-{TRACED_SEEDS[-1]}",
            "seconds": seconds,
            "end_to_end": summarise(e2e), "per_layer": summarise(traced),
        }
        for name, stats in summary[workload]["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
