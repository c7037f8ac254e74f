"""Measure the benchmark's run-to-run spread.

Runs ``gralbench/run.py`` once per seed for each workload (untraced), and
for every end-to-end metric reports the median and the distance between the
first and third quartile of the values as a share of the median — the
spread that must stay within the metric's bound in ``BENCHMARK.json``.
Run from the repository root::

    python3 gralbench/steady.py --runs 10 --first-seed 1 --out gralbench/spread.json

The output file records, per workload and metric, the observed spread next
to the bound, the seeds, the per-run values and each run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median) as the acceptance computes it."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(1, "src")
    from repro.obs import clock

    benchmark = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in benchmark["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report: dict = {"seeds": seeds, "run_seconds": benchmark["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in benchmark["end_to_end"]}
        walls: list[float] = []
        for seed in seeds:
            command = [sys.executable, *benchmark["command"][1:], "--workload", name,
                       "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                       "--trace", "0"]
            start = clock.now()
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            walls.append(round(clock.now() - start, 1))
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: run failed\n{done.stdout[-2000:]}", file=sys.stderr)
                ok = False
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: {walls[-1]} s", flush=True)
        rows = {}
        for metric in benchmark["end_to_end"]:
            median, share = spread(values[metric["name"]])
            rows[metric["name"]] = {
                "median": median,
                "spread": round(share, 4),
                "bound": metric["bound"],
                "values": values[metric["name"]],
            }
            print(f"  {metric['name']:16s} median {median:12.4f}  spread {share:7.4f}  "
                  f"bound {metric['bound']}", flush=True)
        report["workloads"][name] = {"run_wall_s": walls, "metrics": rows}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
