"""Spec round-tripping: dataclass ⇄ JSON/TOML ⇄ runnable pipeline.

The load-bearing property: a spec serialised to JSON or TOML, parsed back
and resolved with ``build_pipeline`` produces *identical run artefacts* to
the directly constructed pipeline on a real (small, generated) dataset.
"""

from dataclasses import asdict, fields

import pytest

from repro.api import build_pipeline, load_spec
from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import RuntimeConfig
from repro.specs import (
    CleanupSpec,
    ComponentSpec,
    ExperimentSpec,
    PipelineSpec,
    PreCleanupSpec,
    RuntimeSpec,
    SpecValidationError,
    StateSpec,
)


def full_pipeline_spec() -> PipelineSpec:
    return PipelineSpec(
        blocking=(
            ComponentSpec("id_overlap"),
            ComponentSpec("token_overlap", {"top_n": 3}),
        ),
        cleanup=CleanupSpec(strategy="gralmatch", gamma=20, mu=4),
        pre_cleanup=PreCleanupSpec(enabled=True, max_component_size=30),
        runtime=RuntimeSpec(workers=2, batch_size=64, executor="thread",
                            blocking_shards=3),
        state=StateSpec(dir="state/companies", autosave=False),
    )


def full_experiment_spec() -> ExperimentSpec:
    return ExperimentSpec(
        dataset="data/companies.csv",
        kind="companies",
        model="logistic",
        epochs=2,
        seed=1,
        negative_ratio=4,
        token_top_n=3,
        pipeline=full_pipeline_spec(),
    )


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("fmt", ["json", "toml"])
    def test_pipeline_spec_round_trips(self, fmt):
        spec = full_pipeline_spec()
        text = getattr(spec, f"to_{fmt}")()
        assert getattr(PipelineSpec, f"from_{fmt}")(text) == spec

    @pytest.mark.parametrize("fmt", ["json", "toml"])
    def test_experiment_spec_round_trips(self, fmt):
        spec = full_experiment_spec()
        text = getattr(spec, f"to_{fmt}")()
        assert getattr(ExperimentSpec, f"from_{fmt}")(text) == spec

    @pytest.mark.parametrize("fmt", ["json", "toml"])
    def test_defaults_round_trip(self, fmt):
        spec = ExperimentSpec()
        text = getattr(spec, f"to_{fmt}")()
        assert getattr(ExperimentSpec, f"from_{fmt}")(text) == spec

    def test_runtime_spec_mirrors_runtime_config(self):
        # One settable field per engine knob, no more: every RuntimeSpec
        # field maps onto the RuntimeConfig field of the same name.
        spec = full_pipeline_spec().runtime
        assert [f.name for f in fields(RuntimeSpec)] == [
            f.name for f in fields(RuntimeConfig)
        ]
        assert asdict(spec) == asdict(spec.to_runtime_config())

    def test_gamma_infinity_round_trips(self):
        spec = PipelineSpec(
            blocking=(ComponentSpec("id_overlap"),),
            cleanup=CleanupSpec(gamma="inf", mu=4),
        )
        parsed = PipelineSpec.from_toml(spec.to_toml())
        assert parsed == spec
        assert parsed.build_cleanup_config().gamma is None

    def test_load_spec_from_files(self, tmp_path):
        spec = full_experiment_spec()
        toml_path = tmp_path / "exp.toml"
        toml_path.write_text(spec.to_toml())
        json_path = tmp_path / "exp.json"
        json_path.write_text(spec.to_json())
        assert load_spec(toml_path) == spec
        assert load_spec(json_path) == spec

    def test_load_spec_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("experiment:\n")
        with pytest.raises(SpecValidationError, match="unsupported spec format"):
            load_spec(path)


class TestLoadSpecFailureModes:
    """The satellite: every load failure is a SpecValidationError naming the
    path and the supported extensions — never a raw traceback."""

    def test_missing_file_names_path_and_extensions(self, tmp_path):
        path = tmp_path / "nowhere.toml"
        with pytest.raises(SpecValidationError) as excinfo:
            load_spec(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "spec file not found" in message
        assert ".toml or .json" in message
        assert not isinstance(excinfo.value, FileNotFoundError)

    def test_directory_is_rejected_not_traceback(self, tmp_path):
        with pytest.raises(SpecValidationError) as excinfo:
            load_spec(tmp_path)
        message = str(excinfo.value)
        assert str(tmp_path) in message
        assert "directory" in message
        assert ".toml or .json" in message

    def test_unknown_suffix_lists_supported_extensions(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\n")
        with pytest.raises(SpecValidationError) as excinfo:
            load_spec(path)
        message = str(excinfo.value)
        assert "'.ini'" in message
        assert ".toml or .json" in message

    def test_suffixless_file_names_the_file(self, tmp_path):
        path = tmp_path / "config"
        path.write_text("{}")
        with pytest.raises(SpecValidationError, match="unsupported spec format"):
            load_spec(path)

    def test_suffix_dispatch_is_case_insensitive(self, tmp_path):
        spec = full_experiment_spec()
        path = tmp_path / "EXP.TOML"
        path.write_text(spec.to_toml())
        assert load_spec(path) == spec


class TestValidationErrorsNameTheKey:
    @pytest.mark.parametrize(
        "document,key",
        [
            ('[experiment]\nepochs = "three"\n', "experiment.epochs"),
            ("[experiment]\nepochs = 0\n", "experiment.epochs"),
            ('[experiment]\nknid = "companies"\n', "experiment.knid"),
            ('[experiment]\nkind = "galaxies"\n', "experiment.kind"),
            ("[[pipeline.blocking]]\nparams = {}\n", "pipeline.blocking[0].name"),
            ("[[pipeline.blocking]]\ntop_n = 5\n", "pipeline.blocking[0].top_n"),
            ('[pipeline.cleanup]\ngamma = "huge"\n', "pipeline.cleanup.gamma"),
            ("[pipeline.cleanup]\nmu = 0\n", "pipeline.cleanup.mu"),
            ('[pipeline.runtime]\nexecutor = "fiber"\n', "pipeline.runtime.executor"),
            ("[pipeline.runtime]\nworkers = -1\n", "pipeline.runtime.workers"),
            ("[pipeline.runtime]\nblocking_shards = 0\n", "pipeline.runtime.blocking_shards"),
            ('[pipeline.runtime]\nblocking_shards = "all"\n', "pipeline.runtime.blocking_shards"),
            # The retired matching-route and pool-mode knobs are unknown keys now.
            ("[pipeline.runtime]\nprofile_cache = true\n", "pipeline.runtime.profile_cache"),
            ("[pipeline.runtime]\ncolumnar_dispatch = false\n",
             "pipeline.runtime.columnar_dispatch"),
            ("[pipeline.runtime]\nwarm_pool = false\n", "pipeline.runtime.warm_pool"),
            ("[pipeline.state]\ndir = 5\n", "pipeline.state.dir"),
            ('[pipeline.state]\nautosave = "yes"\n', "pipeline.state.autosave"),
            ('[pipeline.state]\ndirectory = "x"\n', "pipeline.state.directory"),
        ],
    )
    def test_offending_key_is_named(self, document, key):
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_toml(document)
        assert str(excinfo.value).startswith(key + ":")
        assert excinfo.value.key == key

    def test_second_blocking_entry_is_indexed(self):
        document = (
            '[[pipeline.blocking]]\nname = "id_overlap"\n'
            "[[pipeline.blocking]]\nnme = 5\n"
        )
        with pytest.raises(SpecValidationError, match=r"pipeline\.blocking\[1\]"):
            ExperimentSpec.from_toml(document)


class TestBuildPipelineEquivalence:
    @pytest.fixture(scope="class")
    def small_setup(self):
        benchmark = generate_benchmark(
            GenerationConfig(num_entities=30, num_sources=4, seed=11,
                             acquisition_rate=0.05, merger_rate=0.05)
        )
        companies = benchmark.companies
        pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=100).fit(record_pairs, labels)
        return companies, matcher

    @pytest.mark.parametrize("fmt", ["json", "toml"])
    def test_round_tripped_spec_runs_identically(self, small_setup, fmt):
        companies, matcher = small_setup

        direct = EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig(gamma=20, mu=4),
            pre_cleanup_config=PreCleanupConfig(enabled=True, max_component_size=30),
            runtime=RuntimeConfig(workers=2, batch_size=64, executor="thread",
                                  blocking_shards=3),
        )
        spec = full_pipeline_spec()
        text = getattr(spec, f"to_{fmt}")()
        parsed = getattr(PipelineSpec, f"from_{fmt}")(text)
        from_spec = build_pipeline(parsed, matcher)

        expected = direct.run(companies)
        observed = from_spec.run(companies)

        assert observed.candidates == expected.candidates
        assert observed.decisions == expected.decisions
        assert observed.positive_edges == expected.positive_edges
        assert observed.pre_cleanup_removed == expected.pre_cleanup_removed
        assert observed.cleanup_report.removed_edges == expected.cleanup_report.removed_edges
        assert observed.groups.groups == expected.groups.groups
        assert observed.pre_cleanup_groups.groups == expected.pre_cleanup_groups.groups

    def test_experiment_spec_build_pipeline_injects_token_top_n(self, small_setup):
        _, matcher = small_setup
        spec = ExperimentSpec(kind="companies", token_top_n=3)
        pipeline = build_pipeline(spec, matcher)
        assert isinstance(pipeline.blocking, CombinedBlocking)
        token = pipeline.blocking.blockings[1]
        assert isinstance(token, TokenOverlapBlocking)
        assert token.top_n == 3

    def test_experiment_spec_derives_cleanup_from_dataset(self, small_setup):
        companies, matcher = small_setup
        pipeline = build_pipeline(ExperimentSpec(kind="companies"), matcher,
                                  dataset=companies)
        assert pipeline.cleanup_config.mu == len(companies.sources)
        assert pipeline.cleanup_config.gamma == 5 * len(companies.sources)

    def test_gamma_only_cleanup_derives_mu_from_dataset(self, small_setup):
        # A partially-set [pipeline.cleanup] must still derive the unset
        # threshold from the dataset: gamma=4 is valid on a 4-source dataset
        # (mu=4), and must not fall back to the library default mu=5.
        companies, _ = small_setup
        from repro.evaluation.experiment import EntityGroupMatchingExperiment

        spec = ExperimentSpec(
            kind="companies", model="logistic", epochs=1,
            pipeline=PipelineSpec(cleanup=CleanupSpec(gamma=4)),
        )
        experiment = EntityGroupMatchingExperiment(companies, spec.to_experiment_config())
        config = experiment.build_cleanup_config()
        assert config.mu == len(companies.sources) == 4
        assert config.gamma == 4

    def test_gamma_infinity_via_experiment_spec(self, small_setup):
        companies, _ = small_setup
        from repro.evaluation.experiment import EntityGroupMatchingExperiment

        spec = ExperimentSpec(
            kind="companies", model="logistic",
            pipeline=PipelineSpec(cleanup=CleanupSpec(gamma="inf")),
        )
        experiment = EntityGroupMatchingExperiment(companies, spec.to_experiment_config())
        config = experiment.build_cleanup_config()
        assert config.gamma is None
        assert config.mu == len(companies.sources)

    def test_unknown_model_is_a_named_spec_error(self):
        with pytest.raises(SpecValidationError, match="experiment.model") as excinfo:
            ExperimentSpec(model="distilbert")
        assert "available" in str(excinfo.value)


class TestStageEditing:
    def test_insert_and_replace_stages(self, tmp_path):
        from repro.core.stages import PipelineStage
        from repro.matching import IdOverlapMatcher

        class AuditStage(PipelineStage):
            name = "audit"

            def run(self, context):
                context.extras["audited_candidates"] = len(context.candidates)

        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(),
            blocking=IdOverlapBlocking(),
        )
        assert pipeline.stage_names() == [
            "blocking",
            "pairwise_matching",
            "pre_cleanup",
            "gralmatch_cleanup",
            "grouping",
        ]
        pipeline.insert_after("blocking", AuditStage())
        assert pipeline.stage_names()[1] == "audit"

        benchmark = generate_benchmark(
            GenerationConfig(num_entities=10, num_sources=3, seed=5)
        )
        result = pipeline.run(benchmark.companies)
        assert "audit" in result.timings
        assert result.groups is not None

    def test_unknown_stage_name_raises(self):
        from repro.matching import IdOverlapMatcher

        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(), blocking=IdOverlapBlocking()
        )
        with pytest.raises(KeyError, match="no stage named 'nope'"):
            pipeline.insert_before("nope", object())
