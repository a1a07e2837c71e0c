"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --workloads paper-cold,service-mixed \\
        --seeds 1-10 [--traced-seed 1]

Runs ``run.py`` once per (workload, seed) untraced and reports, per
end-to-end metric, the median and the spread (distance between the
first and third quartile over the median) next to the bound in
BENCHMARK.json.  A spread above a third of its bound is flagged;
``setup_s`` is exempt, as only its median is compared between runs.
With ``--traced-seed``, each workload also runs traced twice on that
seed and every exact count must read the same both times.  Exits 1 on
any flag, failed run or count mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "discovery.rfds", "discovery.insert_rows",
    "distance.lev_calls", "distance.lev_length_filtered",
    "core.candidates", "core.verify_calls", "core.cells",
    "core.cells_imputed",
    "index.probes", "index.pruned_pairs", "index.fallbacks",
    "index.fallbacks.unindexed", "index.fallbacks.full_scan",
    "index.fallbacks.unsupported", "index.fallbacks.hot_group",
    "index.fallbacks.probe_cost", "index.builds", "index.updates",
    "service.persists", "pipeline.state_saves", "pipeline.degraded_runs",
    "journal.records",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{completed.returncode}: {completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    flagged = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            result = run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: outputs incorrect")
                flagged = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.5g}"
                for name in bounds
            ), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bad = name != "setup_s" and spread > bounds[name] / 3
            flagged |= bad
            print(f"  {workload:<15} {name:<12} median {median:<12.6g} "
                  f"spread {spread:6.3f}  bound {bounds[name]}"
                  f"{'  <-- above a third of the bound' if bad else ''}")
        if args.traced_seed is not None:
            first, second = (
                run(workload, args.traced_seed, seconds, 1)["metrics"]
                for _ in range(2)
            )
            for name in EXACT_COUNTS:
                a, b = first[name]["value"], second[name]["value"]
                if a != b:
                    flagged = True
                    print(f"  {workload}: {name} {a} != {b}")
            print(f"  {workload}: exact counts checked on seed "
                  f"{args.traced_seed}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
