"""One GraLMatch operation as the sequence of public layer calls it makes.

``repro run`` and ``repro ingest`` are single calls; this module replays
the same work one layer at a time, so a trace recorded *around* each call
splits an operation into per-layer seconds and counts without any span
inside the program.  Every layer is entered through its public function:

* batch: ``read_dataset_csv`` → ``split_dataset`` → ``FineTuner.build_pairs``
  → ``build_matcher`` + ``fit`` → ``PipelineRuntime.run_blocking`` →
  ``PipelineRuntime.run_matching`` → ``apply_pre_cleanup`` →
  ``CLEANUPS[strategy]`` → ``groups_from_components`` →
  ``repro.core.metrics`` → ``write_groups_json``;
* stream: the same fine-tuning, then per operation
  ``IncrementalMatcher.load`` → ``ingest`` → ``save``.

The replay must produce the groups ``repro run`` writes, byte for byte;
``workloads.py`` checks that on every traced run.  Span names are the
layer names: ``workloads.layer_seconds_metrics`` turns ``cleanup`` into
the ``cleanup.s`` metric and ``training.fit`` into ``training.fit_s``.

Run as a script, it performs one traced batch operation in a fresh process
(so the trace covers interpreter start-up exactly like ``repro run``) and
prints its layer figures as one JSON line::

    python3 gralbench/layers.py SPEC.toml CSV GROUPS_OUT TRACE_OUT LAUNCHED
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from repro.api import build_pipeline, load_spec
from repro.cli import write_groups_json
from repro.core.metrics import group_matching_scores, pairwise_scores
from repro.core.stages import apply_pre_cleanup, groups_from_components
from repro.datagen.io import read_dataset_csv
from repro.evaluation.splits import split_dataset
from repro.incremental import IncrementalMatcher
from repro.matching.base import TrainablePairwiseMatcher
from repro.matching.models import build_matcher, resolve_model_spec
from repro.matching.pairs import as_record_pairs
from repro.matching.training import FineTuner
from repro.obs import JsonlSink, TraceRecorder, clock
from repro.registry import CLEANUPS

def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fine_tune(recorder, dataset, spec) -> tuple[Any, dict[str, Any]]:
    """Fine-tune ``spec``'s model on ``dataset`` exactly as
    :class:`~repro.evaluation.experiment.EntityGroupMatchingExperiment`
    does, one public call per span.  Returns the fitted matcher and counts.
    """
    config = spec.to_experiment_config()
    model = resolve_model_spec(config.model)
    with recorder.span("evaluation.split"):
        splits = split_dataset(dataset, seed=config.seed)
    tuner = FineTuner(
        negative_ratio=config.negative_ratio,
        num_epochs=config.num_epochs,
        seed=config.seed,
    )
    with recorder.span("training.pairs") as span:
        train_pairs = tuner.build_pairs(dataset, splits.train_entities, model)
        validation_pairs = tuner.build_pairs(
            dataset, splits.validation_entities, model
        )
        if span is not None:
            span.attributes.update(
                train=len(train_pairs), validation=len(validation_pairs)
            )
    with recorder.span("training.fit"):
        attributes = dataset.records[0].MATCHING_ATTRIBUTES
        matcher = build_matcher(
            model, attributes, seed=config.seed, num_epochs=config.num_epochs
        )
        if isinstance(matcher, TrainablePairwiseMatcher):
            record_pairs, labels = as_record_pairs(train_pairs)
            validation_record_pairs, validation_labels = as_record_pairs(
                validation_pairs
            )
            matcher.fit(
                record_pairs,
                labels,
                validation_pairs=validation_record_pairs,
                validation_labels=validation_labels,
            )
    return matcher, {"training.pairs": len(train_pairs) + len(validation_pairs)}


def final_quality(groups, truth) -> dict[str, float]:
    """F1 and cluster purity of the final groups, as 0..1 ratios."""
    post = group_matching_scores(groups, truth)
    return {"post_f1": post.f1, "post_purity": post.cluster_purity}


def quality(positive_edges, pre_groups, groups, truth) -> dict[str, float]:
    """The final-group scores plus the pairwise and pre-cleanup F1."""
    return {
        "pairwise_f1": pairwise_scores(positive_edges, truth).f1,
        "pre_f1": group_matching_scores(pre_groups, truth).f1,
        **final_quality(groups, truth),
    }


def batch_operation(
    recorder, spec_path: Path, csv_path: Path, groups_out: Path
) -> dict[str, Any]:
    """One ``repro run <spec> --groups-out`` as public layer calls.

    Opens no root span itself: the caller owns the operation's root.
    Returns the groups digest, the layer counts and the quality scores.
    """
    spec = load_spec(spec_path)
    with recorder.span("datagen.read"):
        dataset = read_dataset_csv(csv_path)
    matcher, counts = fine_tune(recorder, dataset, spec)
    pipeline = build_pipeline(spec, matcher, dataset)
    runtime = pipeline.runtime
    profiler = runtime.profiler()
    with recorder.span("blocking"):
        candidates = runtime.run_blocking(pipeline.blocking, dataset, profiler)
    with recorder.span("matching"):
        decisions = runtime.run_matching(matcher, dataset, candidates, profiler)
    with recorder.span("precleanup"):
        positive_edges, _, kept_edges, removed = apply_pre_cleanup(
            decisions, candidates, pipeline.pre_cleanup_config
        )
    with recorder.span("cleanup"):
        cleanup = CLEANUPS.get(pipeline.cleanup_strategy)
        components, report = cleanup(kept_edges, pipeline.cleanup_config)
    with recorder.span("grouping"):
        record_ids = [record.record_id for record in dataset]
        groups, pre_groups = groups_from_components(
            components, record_ids, positive_edges
        )
    with recorder.span("evaluation.score"):
        scores = quality(positive_edges, pre_groups, groups, dataset.true_matches())
    with recorder.span("output.write"):
        write_groups_json(groups, groups_out)
    pool = runtime.pool_stats() or {}
    with recorder.span("runtime.close"):
        runtime.close()
    counts.update(
        {
            "datagen.records": len(dataset),
            "blocking.candidates": len(candidates),
            "matching.positive": len(positive_edges),
            "precleanup.kept": len(kept_edges),
            "precleanup.removed": len(removed),
            "cleanup.mincut_removals": report.mincut_removals,
            "cleanup.betweenness_removals": report.betweenness_removals,
            "cleanup.largest_in": report.initial_largest_component,
            "cleanup.components_out": len(components),
            "runtime.spawns": pool.get("spawns", 0),
            "runtime.publishes": pool.get("publishes", 0),
            "runtime.fetches": pool.get("fetches", 0),
        }
    )
    return {"digest": file_digest(groups_out), "counts": counts, "scores": scores}


def stream_setup(recorder, spec_path: Path, csv_path: Path, state_dir: Path) -> dict:
    """``repro.api.open_state`` as public layer calls: fine-tune the spec's
    model on the corpus, wrap the pipeline in an empty incremental state
    and save it.  Returns the layer counts."""
    spec = load_spec(spec_path)
    with recorder.span("datagen.read"):
        dataset = read_dataset_csv(csv_path)
    matcher, counts = fine_tune(recorder, dataset, spec)
    with recorder.span("incremental.save"):
        state = IncrementalMatcher.from_pipeline(
            build_pipeline(spec, matcher, dataset), name=dataset.name
        )
        state.save(state_dir)
        state.close()
    return counts


def ingest_operation(recorder, state_dir: Path, csv_path: Path):
    """``repro.api.ingest(state_dir, csv)`` as public layer calls.

    Returns the :class:`~repro.incremental.IngestReport` and the (closed)
    matcher holding the updated state.
    """
    with recorder.span("datagen.read"):
        records = read_dataset_csv(csv_path).records
    with recorder.span("incremental.load"):
        state = IncrementalMatcher.load(state_dir)
    with recorder.span("incremental.ingest"):
        report = state.ingest(records)
    with recorder.span("incremental.save"):
        state.save()
        state.close()
    return report, state


def span_seconds(root) -> dict[str, float]:
    """Seconds per direct child span of ``root``, summed by name."""
    seconds: dict[str, float] = {}
    for child in root.children:
        seconds[child.name] = seconds.get(child.name, 0.0) + child.duration
    return seconds


def uncovered_seconds(root) -> float:
    """Seconds of ``root`` that no direct child span covers."""
    covered = 0.0
    cursor = root.start
    for child in sorted(root.children, key=lambda span: span.start):
        start, end = max(child.start, cursor), min(child.end, root.end)
        if end > start:
            covered += end - start
            cursor = end
    return root.duration - covered


def _main(argv: list[str]) -> int:
    imported = clock.now()
    spec_path, csv_path, groups_out, trace_out = map(Path, argv[:4])
    launched = float(argv[4])
    recorder = TraceRecorder(sink=JsonlSink(trace_out))
    with recorder.span("repro.run", kind="run", csv=csv_path.name) as root:
        # The parent clocked the launch on the same system-wide monotonic
        # clock; stretch the root back to it so interpreter start-up and
        # imports are inside the operation, as they are for `repro run`.
        root.start = launched
        recorder.add_span("process.start", kind="span", start=launched, end=imported)
        result = batch_operation(recorder, spec_path, csv_path, groups_out)
    recorder.finish()
    result["layers"] = span_seconds(root)
    result["root_s"] = root.duration
    result["gap_s"] = uncovered_seconds(root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
