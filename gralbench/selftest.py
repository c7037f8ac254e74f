"""Self-test of the benchmark itself (``python3 gralbench/run.py --self-test``).

Asserts, for every workload:

* two traced runs at one seed give identical deterministic counters (every
  per-layer metric that is not a time or a rate) and identical groups
  digests — the workload's identity is exact;
* a second seed changes the generated corpus while the spec the program
  receives differs only in the dataset path — the seed reaches only the
  generator;

and that ``mapping.json`` names exactly the per-layer metrics and workloads
of ``BENCHMARK.json``.  Prints one line per check and exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

#: Units of per-layer metrics that are measured times or rates; every other
#: per-layer metric is a deterministic function of the inputs.
TIMED_UNITS = ("s", "1/s")


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        raise SystemExit(1)


def check_mapping(root: Path, benchmark: dict) -> None:
    mapping = json.loads((root / "gralbench" / "mapping.json").read_text(encoding="utf-8"))
    mapped = [name for layer in mapping["layers"] for name in layer["metrics"]]
    declared = [metric["name"] for metric in benchmark["per_layer"]]
    check(sorted(mapped) == sorted(declared), "mapping.json lists each per-layer metric once")
    named = {move["workload"] for layer in mapping["layers"] for move in layer["moves"]}
    workload_names = {workload["name"] for workload in benchmark["workloads"]}
    check(named <= workload_names, "mapping.json names only declared workloads")
    check(set(mapping["end_to_end"]) == {m["name"] for m in benchmark["end_to_end"]},
          "mapping.json describes each end-to-end metric")
    check(workload_names == set(workloads.WORKLOADS), "BENCHMARK.json and workloads.py agree")


def traced(root: Path, workload, seed: int, workdir: Path, tag: str) -> tuple[dict, dict]:
    work = workdir / f"{workload.name}-{tag}"
    runner = workloads.Runner(workload, seed, root, work)
    trace = workdir / f"{workload.name}-{tag}.jsonl"
    try:
        if workload.kind == "batch":
            metrics, detail = runner.traced_batch(trace)
        else:
            metrics, detail = runner.traced_stream(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(not runner.tally.failures, f"{workload.name} {tag}: every output check passed"
          + (f" ({runner.tally.failures[0]})" if runner.tally.failures else ""))
    return metrics, detail


def main(root: Path, seed: int) -> int:
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_mapping(root, benchmark)
    counters = [
        metric["name"]
        for metric in benchmark["per_layer"]
        if metric["unit"] not in TIMED_UNITS and not metric["name"].startswith("trace.")
    ]
    workdir = root / ".gralbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS.values():
            first, first_detail = traced(root, workload, seed, workdir, "a")
            second, second_detail = traced(root, workload, seed, workdir, "b")
            differ = [n for n in counters if first.get(n, 0) != second.get(n, 0)]
            check(not differ, f"{workload.name}: counters repeat exactly at seed {seed}"
                  + (f" (differ: {differ})" if differ else ""))
            check(first_detail["digest"] == second_detail["digest"],
                  f"{workload.name}: groups digest repeats at seed {seed}")

            here = workloads.make_corpus(workload, seed, 0, workdir / "seed-a")
            there = workloads.make_corpus(workload, seed + 1, 0, workdir / "seed-b")
            check(here.csv.read_bytes() != there.csv.read_bytes(),
                  f"{workload.name}: seed {seed + 1} generates another corpus")
            check(here.spec.read_text().replace(here.csv.as_posix(), "")
                  == there.spec.read_text().replace(there.csv.as_posix(), ""),
                  f"{workload.name}: the spec differs only in its dataset path")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
