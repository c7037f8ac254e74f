"""The high-level facade: specs in, pipelines and results out.

Three entry points cover the config-driven workflow end to end:

* :func:`load_spec` — read an :class:`~repro.specs.ExperimentSpec` from a
  JSON or TOML file (or an already-parsed mapping),
* :func:`build_pipeline` — resolve a spec into a runnable
  :class:`~repro.core.pipeline.EntityGroupMatchingPipeline` around a given
  matcher,
* :func:`run_experiment` — the whole Table 4 protocol (fine-tune, run,
  score) from a spec,
* :func:`open_state` / :func:`ingest` — the incremental-ingestion
  counterpart: initialise or reopen a persistent
  :class:`~repro.incremental.MatchState` and feed it record deltas.

The CLI's ``repro run config.toml`` / ``repro ingest`` are thin wrappers
over these, and ``repro match`` builds a spec internally — there is exactly
one code path from configuration to results.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from collections.abc import Mapping
from typing import Any

from repro.specs import ExperimentSpec, PipelineSpec, SpecValidationError

#: Spec file suffixes :func:`load_spec` understands, mapped to their parser.
SPEC_SUFFIXES = (".toml", ".json")


def load_spec(source: str | Path | Mapping[str, Any]) -> ExperimentSpec:
    """Load an :class:`ExperimentSpec` from a file path or parsed mapping.

    Paths are dispatched on suffix (case-insensitive): ``.toml`` parses as
    TOML, ``.json`` as JSON.  Every failure mode — missing file, directory,
    unknown suffix — raises a :class:`SpecValidationError` naming the path
    and the supported extensions, never a raw ``FileNotFoundError`` /
    ``KeyError`` traceback.  Relative dataset paths inside the spec are
    interpreted against the current working directory (not the spec file),
    matching how the CLI documents them.
    """
    if isinstance(source, Mapping):
        return ExperimentSpec.from_dict(source)
    path = Path(source)
    supported = " or ".join(SPEC_SUFFIXES)
    if not path.exists():
        raise SpecValidationError(
            str(path), f"spec file not found (expected a {supported} file)"
        )
    if path.is_dir():
        raise SpecValidationError(
            str(path), f"expected a {supported} spec file, got a directory"
        )
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        return ExperimentSpec.from_toml(text)
    if suffix == ".json":
        return ExperimentSpec.from_json(text)
    raise SpecValidationError(
        str(path),
        f"unsupported spec format {suffix or path.name!r}; expected {supported}",
    )


def _effective_pipeline_spec(
    spec: ExperimentSpec | PipelineSpec,
) -> tuple[PipelineSpec, str | None, dict[str, dict[str, Any]]]:
    """Normalise either spec flavour to (pipeline spec, kind, extra params).

    The extra params carry the experiment-level ``token_overlap`` top-n
    default through the same injection mechanism the experiment harness
    uses, so both construction paths share one resolver
    (:meth:`PipelineSpec.build_blocking`).
    """
    if isinstance(spec, ExperimentSpec):
        pipeline = spec.pipeline
        if not pipeline.blocking:
            pipeline = replace(pipeline, blocking=spec.blocking_specs)
        return pipeline, spec.kind, {"token_overlap": {"top_n": spec.token_top_n}}
    return spec, None, {}


def build_pipeline(
    spec: PipelineSpec | ExperimentSpec,
    matcher,
    dataset=None,
    extra_blocking_params: Mapping[str, Mapping[str, Any]] | None = None,
):
    """Build the pipeline a spec describes, around an existing matcher.

    ``dataset`` (optional) only informs derived defaults — ``mu`` from the
    source count — it is not consumed.  ``extra_blocking_params`` injects
    run-time-only constructor params by blocking name; an ``issuer_match``
    blocking *requires* its company-group mapping this way (e.g.
    ``{"issuer_match": {"issuer_groups": company_groups}}``) because the
    mapping only exists at run time — the full experiment harness
    (:func:`run_experiment`) injects the ground-truth oracle automatically.
    Pass an :class:`ExperimentSpec` to inherit its kind-derived defaults,
    or a bare :class:`PipelineSpec` for full manual control.

    The returned pipeline owns its execution runtime: under a parallel
    ``[pipeline.runtime]``, worker processes persist across
    :meth:`~repro.core.pipeline.EntityGroupMatchingPipeline.run` calls —
    call ``pipeline.close()`` when done, or use the pipeline as a context
    manager.
    """
    from repro.core.pipeline import EntityGroupMatchingPipeline

    pipeline_spec, kind, extra = _effective_pipeline_spec(spec)
    for name, params in (extra_blocking_params or {}).items():
        extra[name] = {**extra.get(name, {}), **params}
    num_sources = len(dataset.sources) if dataset is not None else None
    return EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=pipeline_spec.build_blocking(extra),
        cleanup_config=pipeline_spec.build_cleanup_config(num_sources),
        pre_cleanup_config=pipeline_spec.build_pre_cleanup_config(kind),
        runtime=pipeline_spec.runtime.to_runtime_config(),
        cleanup_strategy=pipeline_spec.cleanup.strategy,
    )


def run_experiment(
    spec: ExperimentSpec | str | Path | Mapping[str, Any],
    dataset=None,
):
    """Run the full fine-tune + match + score experiment a spec describes.

    ``dataset`` may be passed directly (a
    :class:`~repro.datagen.records.Dataset`); otherwise the spec's
    ``dataset`` CSV path is loaded.  Returns the
    :class:`~repro.evaluation.experiment.ExperimentResult` (one Table 4
    row, with the full :class:`~repro.core.pipeline.PipelineResult`
    attached).
    """
    from repro.datagen.io import read_dataset_csv
    from repro.evaluation.experiment import EntityGroupMatchingExperiment

    if not isinstance(spec, ExperimentSpec):
        spec = load_spec(spec)
    if dataset is None:
        if spec.dataset is None:
            raise SpecValidationError(
                "experiment.dataset", "no dataset path in the spec and none passed in"
            )
        dataset_path = Path(spec.dataset)
        if not dataset_path.exists():
            raise SpecValidationError(
                "experiment.dataset", f"dataset file not found: {dataset_path}"
            )
        dataset = read_dataset_csv(dataset_path)
    experiment = EntityGroupMatchingExperiment(dataset, spec.to_experiment_config())
    return experiment.run()


def _as_dataset(source):
    """Accept a Dataset or a CSV path."""
    from repro.datagen.io import read_dataset_csv
    from repro.datagen.records import Dataset

    if isinstance(source, Dataset):
        return source
    path = Path(source)
    if not path.exists():
        raise SpecValidationError(str(path), "dataset file not found")
    return read_dataset_csv(path)


def open_state(
    state_dir: str | Path,
    *,
    spec: ExperimentSpec | str | Path | Mapping[str, Any] | None = None,
    train_dataset=None,
    runtime=None,
    save: bool = True,
):
    """Open — or initialise — a persistent incremental match state.

    If ``state_dir`` already holds a saved state, it is loaded (``spec`` and
    ``train_dataset`` are ignored; ``runtime`` optionally overrides the
    stored engine settings, which never changes results).  Otherwise a fresh
    state is initialised from ``spec``: the spec's model is fine-tuned on
    ``train_dataset`` with exactly the :func:`run_experiment` protocol, so
    ingesting that corpus (in any partition) reproduces ``run_experiment``'s
    groups byte for byte.  With ``save`` (default) the fresh state is
    persisted to ``state_dir`` immediately.

    Returns an :class:`~repro.incremental.IncrementalMatcher`.  Under a
    parallel runtime the matcher keeps one worker pool (and the
    shipped profile store) alive *across* :func:`ingest` calls — that is
    what makes multi-batch ingestion fast — so close it when done
    (``matcher.close()``) or use it as a context manager.
    """
    from repro.evaluation.experiment import EntityGroupMatchingExperiment
    from repro.incremental import IncrementalMatcher, is_state_dir

    state_dir = Path(state_dir)
    if is_state_dir(state_dir):
        return IncrementalMatcher.load(state_dir, runtime=runtime)
    if spec is None:
        raise SpecValidationError(
            str(state_dir),
            "not an initialised match state and no spec was given — pass "
            "spec= (and train_dataset=) to create one",
        )
    if not isinstance(spec, ExperimentSpec):
        spec = load_spec(spec)
    if train_dataset is None:
        if spec.dataset is None:
            raise SpecValidationError(
                "experiment.dataset",
                "initialising a match state needs a training dataset: pass "
                "train_dataset= or set experiment.dataset in the spec",
            )
        train_dataset = spec.dataset
    train_dataset = _as_dataset(train_dataset)
    experiment = EntityGroupMatchingExperiment(
        train_dataset, spec.to_experiment_config()
    )
    matcher = IncrementalMatcher.from_pipeline(
        experiment.build_pipeline(), name=train_dataset.name
    )
    if runtime is not None:
        from repro.runtime import PipelineRuntime, RuntimeConfig

        if isinstance(runtime, RuntimeConfig):
            runtime = PipelineRuntime(runtime)
        matcher.runtime = runtime
    matcher.state_dir = state_dir
    if save:
        matcher.save(state_dir)
    return matcher


def ingest(state, records, *, save: bool = True):
    """Ingest a record delta into a persistent match state.

    ``state`` is an :class:`~repro.incremental.IncrementalMatcher` or a
    state directory path; ``records`` is a
    :class:`~repro.datagen.records.Dataset`, a CSV path, or an iterable of
    records.  With ``save`` (default) the updated state is persisted back
    to its directory — a matcher that has no directory (never saved or
    loaded) raises rather than silently dropping the persistence; pass
    ``save=False`` for deliberate in-memory use.  Returns the
    :class:`~repro.incremental.IngestReport`.
    """
    from repro.incremental import IncrementalMatcher

    matcher = state if isinstance(state, IncrementalMatcher) else open_state(state)
    if save and matcher.state_dir is None:
        raise ValueError(
            "ingest(save=True) needs a state directory, but this matcher "
            "was never saved or loaded — save it first or pass save=False "
            "for in-memory ingestion"
        )
    if isinstance(records, (str, Path)):
        records = _as_dataset(records)
    batch = records.records if hasattr(records, "records") else list(records)
    report = matcher.ingest(batch)
    if save:
        matcher.save()
    return report


__all__ = [
    "build_pipeline",
    "ingest",
    "load_spec",
    "open_state",
    "run_experiment",
]
