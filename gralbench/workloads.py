"""The benchmark's workloads: set-up, timed operations, checks, traced pass.

A *batch* workload times ``repro run <spec> --groups-out <file>`` in a fresh
process per operation.  The *stream* workload times
``repro.api.ingest(state_dir, csv)`` calls against a fine-tuned state: one
bulk ingest of the base corpus, then a stream of small deltas.

Inputs come only from the seed: each run generates ``corpora`` company
corpora (``GenerationConfig(num_entities, num_sources=4, seed=...)``) and
writes them to CSV during set-up; the program receives the CSV files and a
spec.  A run makes one pass over its corpora — one ``repro run`` per corpus,
or one stream round per corpus — because the work per corpus varies with
the corpus (Algorithm 1's removals), and a median over several corpora
repeats across seeds where one corpus does not.  The measuring time
(``--seconds``) only caps the pass: no corpus is started once it is spent.

Every operation's output is checked, and a failed check counts the
operation as failed:

* batch: the exit code, and the post-cleanup F1 / purity the benchmark
  recomputes from the groups file against the table ``repro run`` prints;
* stream: ``num_records`` grows by the delta size and
  ``pairs_scored + pairs_reused == num_candidates`` on every ingest;
* traced pass: the layer-by-layer replay (``layers.py``) writes the same
  groups digest as the untraced operation, the stream's final groups are
  byte-identical to a batch pipeline run over the same record order, and
  ``repro report`` renders the trace.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import layers
from repro.api import build_pipeline, ingest, load_spec, open_state
from repro.cli import write_groups_json
from repro.core.groups import EntityGroups
from repro.datagen.config import GenerationConfig
from repro.datagen.generator import generate_benchmark
from repro.datagen.io import write_dataset_csv
from repro.datagen.records import Dataset
from repro.incremental import IncrementalMatcher
from repro.obs import JsonlSink, TraceRecorder, clock

#: Seconds after which one operation counts as failed (timed out).
OP_TIMEOUT_S = 120
#: Set-ups per batch run; ``setup_s`` is their median.
BATCH_SETUPS = 3
#: Bulk ingests per stream round, each into its own copy of the fresh
#: state; the stream then continues on the last copy.
BULK_REPEATS = 3
#: Sources per generated corpus.
NUM_SOURCES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "stream"
    model: str
    entities: int
    corpora: int
    workers: int
    #: Stream only: deltas per round and records per delta.
    deltas: int = 0
    delta_size: int = 5


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("batch-logistic", "batch", "logistic", 600, 6, 2),
        Workload("ingest-stream", "stream", "logistic", 400, 4, 1, deltas=25),
        Workload("batch-transformer", "batch", "distilbert-128-15k", 200, 3, 2),
    )
}


@dataclass
class Corpus:
    """One generated corpus and the files the program receives."""

    index: int
    dataset: Dataset
    csv: Path
    spec: Path
    #: Stream only: base CSV and delta CSVs, in ingestion order.
    base: Path | None = None
    deltas: list[Path] = field(default_factory=list)
    stream_records: list = field(default_factory=list)


@dataclass
class Tally:
    """Operations attempted/failed and the reasons for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if not condition:
            self.fail(reason)
        return condition


def corpus_seed(seed: int, index: int) -> int:
    """Generator seed of corpus ``index`` of a run at ``seed``."""
    return seed * 1000 + index


def spec_text(workload: Workload, csv: Path) -> str:
    """The experiment spec the program receives (independent of the seed)."""
    return (
        "[experiment]\n"
        f'dataset = "{csv.as_posix()}"\n'
        'kind = "companies"\n'
        f'model = "{workload.model}"\n'
        "epochs = 1\n"
        "seed = 0\n"
        "\n"
        "[pipeline.runtime]\n"
        f"workers = {workload.workers}\n"
        'executor = "process"\n'
    )


def make_corpus(workload: Workload, seed: int, index: int, work: Path) -> Corpus:
    """Generate corpus ``index`` and write its CSV (and stream) files."""
    config = GenerationConfig(
        num_entities=workload.entities,
        num_sources=NUM_SOURCES,
        seed=corpus_seed(seed, index),
    )
    dataset = generate_benchmark(config).companies
    directory = work / f"corpus{index}"
    csv = write_dataset_csv(dataset, directory / f"companies{index}.csv")
    spec = directory / "spec.toml"
    spec.write_text(spec_text(workload, csv), encoding="utf-8")
    corpus = Corpus(index=index, dataset=dataset, csv=csv, spec=spec)
    if workload.kind == "stream":
        records = dataset.records
        rng = random.Random(config.seed)
        held = rng.sample(range(len(records)), workload.deltas * workload.delta_size)
        held_set = set(held)
        base = [record for i, record in enumerate(records) if i not in held_set]
        corpus.base = write_dataset_csv(
            Dataset(f"base{index}", base), directory / "base.csv"
        )
        corpus.stream_records = list(base)
        for number in range(workload.deltas):
            chunk = held[number * workload.delta_size:(number + 1) * workload.delta_size]
            delta = [records[i] for i in chunk]
            corpus.stream_records.extend(delta)
            corpus.deltas.append(
                write_dataset_csv(
                    Dataset(f"delta{number}", delta), directory / f"delta{number:03d}.csv"
                )
            )
    return corpus


def dir_megabytes(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def children_rusage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of all reaped child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def self_rusage() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def percentile(values: list[float], fraction: float) -> float:
    """Inclusive linear-interpolation percentile (no extrapolation)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_fraction(count: int) -> float:
    """The highest of p90/p75/p50 with at least ten samples beyond it."""
    for percent in (90, 75):
        if count * (100 - percent) >= 10 * 100:
            return percent / 100
    return 0.5


def run_process(command: list[str], **kwargs) -> subprocess.CompletedProcess | None:
    """Run ``command`` to completion in its own process group.

    Returns ``None`` on timeout, after killing the whole group (the child's
    pool workers included) and reaping the child.
    """
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, **kwargs,
    )
    try:
        stdout, stderr = child.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def read_groups(path: Path) -> EntityGroups:
    return EntityGroups(json.loads(path.read_text(encoding="utf-8"))["groups"])


def parse_result_table(stdout: str) -> dict[str, float]:
    """The score columns of the table ``repro run`` prints, as floats."""
    lines = stdout.splitlines()
    for number, line in enumerate(lines):
        if "Pairwise F1" in line and number + 2 < len(lines):
            header = [cell.strip() for cell in line.split(" | ")]
            row = [cell.strip() for cell in lines[number + 2].split(" | ")]
            return {
                key: float(value)
                for key, value in zip(header, row)
                if key in ("Post F1", "Post ClPur")
            }
    raise ValueError("no result table in repro run output")


class Runner:
    """Runs one workload at one seed inside its own work directory."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(Path(layers.__file__).parent)]
        )

    # -- set-up --------------------------------------------------------------

    def setup_corpora(self, count: int, repeats: int) -> tuple[list[Corpus], list[float]]:
        """Generate the run's corpora ``repeats`` times; the last set is used."""
        times: list[float] = []
        corpora: list[Corpus] = []
        for _ in range(repeats):
            start = clock.now()
            corpora = [
                make_corpus(self.workload, self.seed, index, self.work)
                for index in range(count)
            ]
            times.append(clock.now() - start)
        return corpora, times

    def open_stream_state(self, corpus: Corpus, name: str) -> Path:
        state_dir = self.work / name
        shutil.rmtree(state_dir, ignore_errors=True)
        open_state(state_dir, spec=corpus.spec, train_dataset=corpus.csv).close()
        return state_dir

    # -- batch ---------------------------------------------------------------

    def batch_op(self, corpus: Corpus) -> dict | None:
        """One timed ``repro run`` in a fresh process, checked."""
        self.tally.attempted += 1
        groups_out = self.work / f"groups{corpus.index}.json"
        command = [
            sys.executable, "-m", "repro.cli", "run", str(corpus.spec),
            "--groups-out", str(groups_out),
        ]
        cpu_before, _ = children_rusage()
        start = clock.now()
        done = run_process(command, cwd=self.root, env=self.env)
        wall = clock.now() - start
        if done is None:
            self.tally.fail(f"corpus {corpus.index}: repro run timed out")
            return None
        cpu_after, _ = children_rusage()
        tag = f"corpus {corpus.index}"
        if not self.tally.check(done.returncode == 0, f"{tag}: exit {done.returncode}: {done.stderr[-300:]}"):
            return None
        table = parse_result_table(done.stdout)
        post = layers.final_quality(read_groups(groups_out), corpus.dataset.true_matches())
        if not self.tally.check(
            abs(100 * post["post_f1"] - table["Post F1"]) <= 0.0051
            and abs(post["post_purity"] - table["Post ClPur"]) <= 0.0051,
            f"{tag}: recomputed post-cleanup scores disagree with the printed table",
        ):
            return None
        return {
            "corpus": corpus.index,
            "wall": wall,
            "cpu": cpu_after - cpu_before,
            "digest": layers.file_digest(groups_out),
            "scores": post,
        }

    def batch_metrics(self, seconds: float) -> tuple[dict, dict]:
        corpora, setups = self.setup_corpora(self.workload.corpora, BATCH_SETUPS)
        ops: list[dict] = []
        start = clock.now()
        for corpus in corpora:
            if corpus.index and clock.now() - start >= seconds:
                break
            result = self.batch_op(corpus)
            if result is not None:
                ops.append(result)
        walls = [op["wall"] for op in ops]
        _, peak = children_rusage()
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls) if walls else 0.0,
            "cpu_s": statistics.median(op["cpu"] for op in ops) if ops else 0.0,
            "peak_rss_mb": peak,
        }
        metrics.update(latency_metrics(walls))
        metrics.update(mean_scores(ops))
        detail = {
            "samples": {"setup": len(setups), "ops": len(walls),
                        "tail": f"p{round(100 * tail_fraction(len(walls)))}"},
            "ops": [[op["corpus"], round(op["wall"], 4), round(op["cpu"], 4)] for op in ops],
            "shape": {
                f"corpus{c.index}": {"records": len(c.dataset)} for c in corpora
            },
            "digests": [op["digest"] for op in ops],
        }
        return metrics, detail

    # -- stream --------------------------------------------------------------

    def check_ingest(self, report, expected_records: int, tag: str) -> None:
        """An ingest must add exactly its records and account for every
        candidate as either scored or reused."""
        self.tally.check(
            report.num_records == expected_records
            and report.pairs_scored + report.pairs_reused == report.num_candidates,
            f"{tag}: num_records {report.num_records} (expected "
            f"{expected_records}), scored {report.pairs_scored} + reused "
            f"{report.pairs_reused} vs {report.num_candidates} candidates",
        )

    def stream_round(self, index: int) -> dict:
        """Set-up (timed), bulk ingest, then every delta, all checked."""
        start = clock.now()
        corpus = make_corpus(self.workload, self.seed, index, self.work)
        state_dir = self.open_stream_state(corpus, f"state{index}")
        setup = clock.now() - start
        tag = f"corpus {index}"
        delta_size = self.workload.delta_size

        bulks: list[float] = []
        latencies: list[float] = []
        cpus: list[float] = []
        base_records = len(corpus.stream_records) - len(corpus.deltas) * delta_size
        fresh = state_dir.with_name(state_dir.name + "-fresh")
        shutil.rmtree(fresh, ignore_errors=True)
        shutil.copytree(state_dir, fresh)
        for repeat in range(BULK_REPEATS):
            if repeat:
                shutil.rmtree(state_dir)
                shutil.copytree(fresh, state_dir)
            self.tally.attempted += 1
            start = clock.now()
            try:
                report = ingest(state_dir, corpus.base)
            except Exception as error:  # an operation failure, counted not raised
                self.tally.fail(f"{tag} bulk ingest: {error!r}")
                continue
            bulks.append(clock.now() - start)
            self.check_ingest(report, base_records, f"{tag} bulk ingest {repeat}")
        records = base_records
        for number, delta in enumerate(corpus.deltas):
            self.tally.attempted += 1
            cpu_before, _ = self_rusage()
            start = clock.now()
            try:
                report = ingest(state_dir, delta)
            except Exception as error:  # an operation failure, counted not raised
                self.tally.fail(f"{tag} delta {number}: {error!r}")
                continue
            latencies.append(clock.now() - start)
            cpus.append(self_rusage()[0] - cpu_before)
            self.check_ingest(report, records + delta_size, f"{tag} delta {number}")
            records = report.num_records
        final = IncrementalMatcher.load(state_dir)
        groups_out = self.work / f"stream-groups{index}.json"
        write_groups_json(final.groups, groups_out)
        return {
            "corpus": corpus,
            "setup": setup,
            "bulks": bulks,
            "latencies": latencies,
            "cpus": cpus,
            "digest": layers.file_digest(groups_out),
            "state_mb": dir_megabytes(state_dir),
            "scores": stream_scores(final, corpus.dataset),
        }

    def stream_metrics(self, seconds: float) -> tuple[dict, dict]:
        rounds: list[dict] = []
        start = clock.now()
        for index in range(self.workload.corpora):
            if index and clock.now() - start >= seconds:
                break
            rounds.append(self.stream_round(index))
        latencies = [value for r in rounds for value in r["latencies"]]
        bulks = [value for r in rounds for value in r["bulks"]]
        metrics = {
            "setup_s": statistics.median(r["setup"] for r in rounds),
            "run_s": statistics.median(bulks) if bulks else 0.0,
            "cpu_s": statistics.median(value for r in rounds for value in r["cpus"]) if latencies else 0.0,
            "peak_rss_mb": self_rusage()[1],
        }
        metrics.update(latency_metrics(latencies))
        metrics.update(mean_scores(rounds))
        detail = {
            "samples": {"setup": len(rounds), "bulk": len(bulks), "deltas": len(latencies),
                        "tail": f"p{round(100 * tail_fraction(len(latencies)))}"},
            "shape": {
                f"corpus{r['corpus'].index}": {"records": len(r["corpus"].dataset)} for r in rounds
            },
            "state_mb": [r["state_mb"] for r in rounds],
            "digests": [r["digest"] for r in rounds],
        }
        return metrics, detail

    # -- traced pass ---------------------------------------------------------

    def render_report(self, trace: Path) -> None:
        done = run_process(
            [sys.executable, "-m", "repro.cli", "report", str(trace)],
            cwd=self.root, env=self.env,
        )
        self.tally.check(
            done is not None and done.returncode == 0 and "Trace" in done.stdout,
            f"repro report failed on {trace.name}",
        )

    def traced_batch(self, trace: Path) -> tuple[dict, dict]:
        """Corpus 0: one untraced ``repro run``, then the traced replay."""
        corpora, _ = self.setup_corpora(1, 1)
        corpus = corpora[0]
        untraced = self.batch_op(corpus)
        self.tally.attempted += 1
        groups_out = self.work / "traced-groups.json"
        launched = clock.now()
        done = run_process(
            [
                sys.executable, str(Path(layers.__file__)), str(corpus.spec),
                str(corpus.csv), str(groups_out), str(trace), repr(launched),
            ],
            cwd=self.root, env=self.env,
        )
        traced_wall = clock.now() - launched
        if done is None or done.returncode != 0:
            self.tally.fail(f"traced replay failed: {done and done.stderr[-300:]}")
            return {}, {}
        result = json.loads(done.stdout.splitlines()[-1])
        if untraced is not None:
            self.tally.check(
                result["digest"] == untraced["digest"],
                "traced layer-by-layer groups differ from repro run's",
            )
            for key in ("post_f1", "post_purity"):
                self.tally.check(
                    abs(result["scores"][key] - untraced["scores"][key]) <= 1e-9,
                    f"traced {key} differs from the untraced run's",
                )
        self.render_report(trace)
        seconds = result["layers"]
        counts = result["counts"]
        metrics = layer_seconds_metrics(seconds)
        metrics.update(counts)
        metrics.update(quality_metrics(result["scores"]))
        metrics.update(
            {
                "matching.pairs_per_s": counts["blocking.candidates"] / seconds["matching"],
                "blocking.candidates_per_s": counts["blocking.candidates"] / seconds["blocking"],
                "trace.gap_frac": result["gap_s"] / result["root_s"],
                "trace.overhead_frac": (
                    traced_wall / untraced["wall"] - 1 if untraced else 0.0
                ),
            }
        )
        detail = {"digest": result["digest"], "scores": result["scores"], "trace": trace.name}
        return metrics, detail

    def traced_stream(self, trace: Path) -> tuple[dict, dict]:
        """Corpus 0: one untraced round, then the traced replay of set-up
        and every ingest, then the batch-equivalence check."""
        untraced = self.stream_round(0)
        corpus = untraced["corpus"]
        recorder = TraceRecorder(sink=JsonlSink(trace))
        state_dir = self.work / "traced-state"
        with recorder.span("setup", kind="run") as setup_root:
            counts = layers.stream_setup(recorder, corpus.spec, corpus.csv, state_dir)
        roots = [setup_root]
        reports = []
        for number, path in enumerate([corpus.base, *corpus.deltas]):
            self.tally.attempted += 1
            with recorder.span("ingest", kind="run", op=number) as root:
                report, state = layers.ingest_operation(recorder, state_dir, path)
                root.attributes.update(
                    new_records=report.num_new_records,
                    records_rescored=report.records_rescored,
                    pairs_scored=report.pairs_scored,
                    pairs_reused=report.pairs_reused,
                    components_recleaned=report.components_recleaned,
                )
            roots.append(root)
            reports.append(report)
        final = state.state
        stream_out = self.work / "traced-stream-groups.json"
        write_groups_json(state.groups, stream_out)
        with recorder.span("check.batch", kind="run"):
            dataset = Dataset(corpus.dataset.name, corpus.stream_records)
            with recorder.span("batch.run"):
                with build_pipeline(load_spec(corpus.spec), final.matcher, dataset) as pipeline:
                    batch = pipeline.run(dataset)
            with recorder.span("evaluation.score") as score_span:
                scores = stream_scores(state, corpus.dataset)
        recorder.finish()
        batch_out = self.work / "traced-batch-groups.json"
        write_groups_json(batch.groups, batch_out)
        digest = layers.file_digest(stream_out)
        self.tally.check(
            digest == layers.file_digest(batch_out),
            "stream groups differ from a batch run over the same record order",
        )
        self.tally.check(digest == untraced["digest"], "traced stream groups differ from the untraced stream's")
        cleanup = final.cleanup_report
        for name, value in (
            ("mincut_removals", batch.cleanup_report.mincut_removals),
            ("betweenness_removals", batch.cleanup_report.betweenness_removals),
            ("initial_largest_component", batch.cleanup_report.initial_largest_component),
        ):
            self.tally.check(getattr(cleanup, name) == value, f"stream cleanup {name} differs from batch")
        self.render_report(trace)

        bulk, deltas = reports[0], reports[1:]
        delta_roots = roots[2:]
        kept_nodes = {node for edge in final.kept_edges for node in edge}
        setup_seconds = layers.span_seconds(setup_root)
        new = sum(r.num_new_records for r in deltas)
        scored = sum(r.pairs_scored for r in deltas)
        reused = sum(r.pairs_reused for r in deltas)
        metrics = layer_seconds_metrics(setup_seconds)
        metrics.update(counts)
        metrics.update(quality_metrics(scores))
        metrics.update(
            {
                "datagen.records": len(dataset),
                "blocking.s": bulk.timings["blocking"],
                "blocking.candidates": bulk.num_candidates,
                "blocking.candidates_per_s": bulk.num_candidates / bulk.timings["blocking"],
                "matching.s": bulk.timings["pairwise_matching"],
                "matching.pairs_per_s": bulk.pairs_scored / bulk.timings["pairwise_matching"],
                "matching.positive": bulk.num_positive,
                "precleanup.s": bulk.timings["pre_cleanup"],
                "precleanup.kept": bulk.num_kept,
                "precleanup.removed": bulk.num_positive - bulk.num_kept,
                "cleanup.s": bulk.timings["graph_cleanup"],
                "cleanup.mincut_removals": cleanup.mincut_removals,
                "cleanup.betweenness_removals": cleanup.betweenness_removals,
                "cleanup.largest_in": cleanup.initial_largest_component,
                "cleanup.components_out": sum(
                    1 for group in state.groups if group & kept_nodes
                ),
                "grouping.s": bulk.timings["grouping"],
                "evaluation.score_s": score_span.duration,
                "incremental.load_s": median_child(delta_roots, "incremental.load"),
                "incremental.ingest_s": median_child(delta_roots, "incremental.ingest"),
                "incremental.save_s": median_child(delta_roots, "incremental.save"),
                "incremental.blocking_s": statistics.median(r.timings["blocking"] for r in deltas),
                "incremental.matching_s": statistics.median(
                    r.timings.get("pairwise_matching", 0.0) for r in deltas
                ),
                "incremental.cleanup_s": statistics.median(r.timings["graph_cleanup"] for r in deltas),
                "incremental.records_rescored": sum(r.records_rescored for r in deltas),
                "incremental.rescored_per_new": sum(r.records_rescored for r in deltas) / new,
                "incremental.pairs_scored": scored,
                "incremental.decision_cache_hit": reused / (scored + reused),
                "incremental.components_recleaned": sum(r.components_recleaned for r in deltas),
                "incremental.cleanup_memo_hit": sum(r.components_reused for r in deltas)
                / sum(r.components_total for r in deltas),
                "incremental.dsu_rebuilds": sum(r.dsu_rebuilt for r in deltas),
                "incremental.state_mb": dir_megabytes(state_dir),
                "trace.gap_frac": sum(layers.uncovered_seconds(r) for r in roots)
                / sum(r.duration for r in roots),
                "trace.overhead_frac": statistics.median(r.duration for r in delta_roots)
                / statistics.median(untraced["latencies"]) - 1,
            }
        )
        detail = {"digest": digest, "scores": scores, "trace": trace.name}
        return metrics, detail


def layer_seconds_metrics(seconds: dict[str, float]) -> dict[str, float]:
    """Per-layer seconds under their metric names (``cleanup`` → ``cleanup.s``,
    ``training.fit`` → ``training.fit_s``)."""
    return {
        (f"{name}.s" if "." not in name else f"{name}_s"): value
        for name, value in seconds.items()
    }


def quality_metrics(scores: dict[str, float]) -> dict[str, float]:
    """The intermediate-stage quality scores, as per-layer metrics."""
    return {
        "evaluation.pairwise_f1": scores["pairwise_f1"],
        "evaluation.pre_f1": scores["pre_f1"],
    }


def median_child(roots, name: str) -> float:
    return statistics.median(
        child.duration for root in roots for child in root.children if child.name == name
    )


def stream_scores(matcher: IncrementalMatcher, dataset: Dataset) -> dict[str, float]:
    positive = [decision.pair for decision in matcher.decisions() if decision.is_match]
    return layers.quality(
        positive, matcher.state.pre_cleanup_groups, matcher.groups, dataset.true_matches()
    )


def latency_metrics(seconds: list[float]) -> dict[str, float]:
    """Median and tail latency (see :func:`tail_fraction`) in milliseconds."""
    if not seconds:
        return {"latency_ms.p50": 0.0, "latency_ms.tail": 0.0}
    return {
        "latency_ms.p50": 1000 * statistics.median(seconds),
        "latency_ms.tail": 1000 * percentile(seconds, tail_fraction(len(seconds))),
    }


def mean_scores(results: list[dict]) -> dict[str, float]:
    """Final-group quality averaged over the run's corpora (one result each)."""
    return {
        key: statistics.fmean(r["scores"][key] for r in results) if results else 0.0
        for key in ("post_f1", "post_purity")
    }
