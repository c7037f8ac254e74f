"""GraLMatch whole-run benchmark.

Run from the repository root::

    python3 gralbench/run.py --workload batch-logistic --seed 1 --seconds 45 --trace 0
    python3 gralbench/run.py --workload ingest-stream --seed 1 --seconds 45 --trace 1
    python3 gralbench/run.py --self-test --seed 1

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; which
layer metric should move which end-to-end metric on which workload is in
``gralbench/mapping.json``.  With ``--trace 0`` the run times untraced
operations and reports the end-to-end metrics; with ``--trace 1`` it
replays one operation layer by layer under a trace and reports the
per-layer metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

Lines before it stamp the environment, the corpus shape and any failure.
The full result and the trace (readable with ``repro report``) are kept
under ``.gralbench/results/``.  Without ``src/repro`` under the working
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

#: Thread caps for every BLAS/OpenMP pool, set before numpy is imported so
#: the benchmark process and every operation process it starts (and their
#: pool workers, which inherit the environment) run single-threaded
#: numerics: two pool workers never oversubscribe a two-core machine.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="assert that one seed repeats exactly and that "
                             "another seed changes only the corpus")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def stamp() -> dict:
    import numpy

    from repro.obs import effective_cpu_count

    return {
        "effective_cpu_count": effective_cpu_count(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def run_workload(root: Path, args: argparse.Namespace) -> int:
    import workloads

    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = root / ".gralbench"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = out / f"work-{name}-{os.getpid()}"
    runner = workloads.Runner(workload, args.seed, root, work)
    metrics: dict = {}
    detail: dict = {}
    try:
        if args.trace:
            trace = results / f"{name}.jsonl"
            if workload.kind == "batch":
                metrics, detail = runner.traced_batch(trace)
            else:
                metrics, detail = runner.traced_stream(trace)
        elif workload.kind == "batch":
            metrics, detail = runner.batch_metrics(args.seconds)
        else:
            metrics, detail = runner.stream_metrics(args.seconds)
    except Exception:  # the run's boundary: report the failure, keep the result line
        runner.tally.fail(traceback.format_exc(limit=4))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = runner.tally
    failed = len(tally.failures)
    attempted = max(tally.attempted, failed, 1)
    # Layer metrics a workload does not exercise (the incremental layer on
    # batch runs, the worker pool on the serial stream) read 0.
    absent = sorted(m["name"] for m in declared if m["name"] not in metrics)
    reported = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    full = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp(),
        "detail": detail,
        "absent": absent,
        "extra": {k: v for k, v in metrics.items() if k not in reported},
        "failures": tally.failures,
        "metrics": reported,
    }
    (results / f"{name}.json").write_text(json.dumps(full, indent=2, default=str) + "\n")
    print("stamp: " + json.dumps(full["stamp"], sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True, default=str))
    for reason in tally.failures:
        print("failure: " + reason.replace("\n", " | "))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}; run the "
              "benchmark from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(1, str(root / "src"))
    if args.self_test:
        import selftest

        return selftest.main(root, args.seed)
    return run_workload(root, args)


if __name__ == "__main__":
    sys.exit(main())
