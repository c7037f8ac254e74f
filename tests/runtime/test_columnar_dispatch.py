"""The two matching routes: columnar and record pairs, byte-identical.

``run_matching`` picks the route by the matcher's ``columnar_capable``
flag.  Columnar matchers score id-pair chunks with ``score_profiled``
(probability arrays, lazy
:class:`~repro.matching.decisions.DecisionVector`); the rest score
record-pair chunks with ``decide_batches``.  The contract: the columnar
route's decisions equal the matcher's own ``decide`` on the record pairs
byte for byte — at any worker count, on either executor — and non-columnar matchers come back as plain decision lists.
"""

import numpy as np
import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import apply_pre_cleanup
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher, ThresholdNameMatcher
from repro.matching.decisions import DecisionVector
from repro.matching.heuristic import IdOverlapMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import PipelineRuntime, RuntimeConfig, StageProfiler


@pytest.fixture(scope="module")
def setup():
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=40, num_sources=4, seed=7,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    companies = benchmark.companies
    pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=80).fit(record_pairs, labels)
    blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
    candidates = blocking.candidate_pairs(companies)
    return companies, matcher, blocking, candidates


def run_matching(companies, matcher, candidates, **config):
    with PipelineRuntime(RuntimeConfig(batch_size=32, **config)) as runtime:
        return runtime.run_matching(matcher, companies, candidates)


CONFIGS = [
    pytest.param({"workers": 1}, id="serial"),
    pytest.param({"workers": 2, "executor": "thread"}, id="thread"),
    pytest.param({"workers": 2, "executor": "process"}, id="process"),
]


class RecordPairLogistic(LogisticRegressionMatcher):
    """A fitted logistic model routed through record pairs, not the store."""

    columnar_capable = False


def record_pair_route(matcher):
    twin = RecordPairLogistic.__new__(RecordPairLogistic)
    twin.__dict__.update(matcher.__dict__)
    return twin


def record_pairs(companies, candidates):
    return [
        (companies.record(c.left_id), companies.record(c.right_id)) for c in candidates
    ]


@pytest.mark.parametrize("config", CONFIGS)
class TestColumnarEqualsRecordPairs:
    def test_logistic_decisions_bitwise_identical(self, setup, config):
        companies, matcher, _, candidates = setup
        columnar = run_matching(companies, matcher, candidates, **config)
        reference = matcher.decide(record_pairs(companies, candidates))
        assert isinstance(columnar, DecisionVector)
        # Element-wise dataclass equality covers ids, verdicts and exact
        # probabilities — both comparison directions go through the vector.
        assert columnar == reference
        assert [d.probability for d in columnar] == [d.probability for d in reference]
        assert [d.is_match for d in columnar] == [d.is_match for d in reference]

    def test_record_pair_route_of_the_same_model_is_identical(self, setup, config):
        # Both routes, one fitted model: chunked record pairs (a profile
        # store per chunk inside extract_batch) against the dataset-wide
        # store the columnar route ships once.
        companies, matcher, _, candidates = setup
        columnar = run_matching(companies, matcher, candidates, **config)
        routed = run_matching(companies, record_pair_route(matcher), candidates, **config)
        assert not isinstance(routed, DecisionVector)
        assert columnar == routed
        assert [d.probability for d in columnar] == [d.probability for d in routed]

    def test_threshold_matcher_decisions_identical(self, setup, config):
        companies, _, _, candidates = setup
        matcher = ThresholdNameMatcher(similarity_threshold=0.9)
        columnar = run_matching(companies, matcher, candidates, **config)
        assert isinstance(columnar, DecisionVector)
        assert columnar == matcher.decide(record_pairs(companies, candidates))

    def test_non_columnar_matcher_takes_the_record_pair_route(self, setup, config):
        companies, _, _, candidates = setup
        matcher = IdOverlapMatcher()
        assert not matcher.columnar_capable
        decisions = run_matching(companies, matcher, candidates, **config)
        assert not isinstance(decisions, DecisionVector)
        assert decisions == matcher.decide(record_pairs(companies, candidates))

    def test_pre_cleanup_mask_fast_path_identical(self, setup, config):
        companies, matcher, _, candidates = setup
        pre_config = PreCleanupConfig(max_component_size=30)
        columnar = run_matching(companies, matcher, candidates, **config)
        assert (
            apply_pre_cleanup(columnar, candidates, pre_config)
            == apply_pre_cleanup(list(columnar), candidates, pre_config)
        )


class TestDecisionVector:
    def make(self):
        pairs = [("a", "b"), ("c", "d"), ("e", "f")]
        probabilities = np.array([0.9, 0.2, 0.5], dtype=np.float64)
        return DecisionVector(pairs, probabilities, threshold=0.5)

    def test_sequence_protocol(self):
        vector = self.make()
        assert len(vector) == 3
        assert vector[0].pair == ("a", "b")
        assert vector[0].probability == 0.9
        assert vector[0].is_match is True
        assert vector[1].is_match is False
        assert vector[2].is_match is True  # >= threshold, like decide()
        assert vector[-1] == vector[2]
        assert vector[1:] == [vector[1], vector[2]]
        assert [d.left_id for d in vector] == ["a", "c", "e"]

    def test_equality_against_lists_both_directions(self):
        vector = self.make()
        materialised = list(vector)
        assert vector == materialised
        assert materialised == vector
        assert vector != materialised[:2]
        assert vector != [*materialised[:2], vector[0]]

    def test_positive_pairs_matches_object_filter(self):
        vector = self.make()
        assert vector.positive_pairs() == [
            decision.pair for decision in vector if decision.is_match
        ]

    def test_explicit_mask_overrides_threshold(self):
        vector = DecisionVector(
            [("a", "b")], np.array([0.9]), is_match=np.array([False])
        )
        assert vector[0].is_match is False
        assert vector.positive_pairs() == []

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionVector([("a", "b")], np.zeros(2), threshold=0.5)
        with pytest.raises(ValueError):
            DecisionVector([("a", "b")], np.zeros(1))  # no threshold, no mask


class TestMechanics:
    def test_chunk_items_record_pair_counts(self, setup):
        companies, matcher, _, candidates = setup
        profiler = StageProfiler()
        with PipelineRuntime(RuntimeConfig(batch_size=32)) as runtime:
            runtime.run_matching(matcher, companies, candidates, profiler)
        items = profiler.chunk_items("pairwise_matching")
        assert sum(items) == len(candidates)
        assert all(count <= 32 for count in items)
        throughput = profiler.chunk_throughput("pairwise_matching")
        assert len(throughput) == len(items)
        assert all(t is None or t > 0 for t in throughput)
        assert profiler.stage_throughput("pairwise_matching") > 0

    def test_precomputed_id_pairs_short_circuit(self, setup):
        companies, matcher, _, candidates = setup
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        with PipelineRuntime(RuntimeConfig(batch_size=32)) as runtime:
            direct = runtime.run_matching(matcher, companies, candidates)
            precomputed = runtime.run_matching(
                matcher, companies, candidates, id_pairs=id_pairs
            )
        assert direct == precomputed

    def test_misaligned_id_pairs_rejected(self, setup):
        companies, matcher, _, candidates = setup
        with PipelineRuntime(RuntimeConfig(batch_size=32)) as runtime:
            with pytest.raises(ValueError):
                runtime.run_matching(
                    matcher, companies, candidates, id_pairs=[("a", "b")]
                )
