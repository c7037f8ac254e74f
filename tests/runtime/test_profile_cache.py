"""Mechanics of the columnar route's profile store.

A columnar matcher's ``prepare_profiles`` runs once per ``run_matching``
call, however many chunks the candidates split into; the base matcher's
columnar entry points refuse to run.  Output equality with the record-pair
route is pinned in ``test_columnar_dispatch.py``.
"""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher, ThresholdNameMatcher
from repro.matching.base import PairwiseMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import PipelineRuntime, RuntimeConfig


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
    runtime = PipelineRuntime(RuntimeConfig(batch_size=32, **config))
    return runtime.run_matching(matcher, companies, candidates)


class TestProfiledPathMechanics:
    def test_empty_candidates_return_no_decisions(self, setup):
        companies, matcher, _, _ = setup
        assert run_matching(companies, matcher, [], workers=1) == []

    def test_prepare_profiles_called_once_per_run(self, setup):
        companies, _, _, candidates = setup

        class CountingMatcher(ThresholdNameMatcher):
            prepare_calls = 0

            def prepare_profiles(self, records):  # repro-lint: disable=protocol-conformance -- counting wrapper; flag and the rest of the protocol are inherited
                type(self).prepare_calls += 1
                return super().prepare_profiles(records)

        matcher = CountingMatcher(similarity_threshold=0.9)
        decisions = run_matching(companies, matcher, candidates, workers=1)
        assert len(decisions) == len(candidates)
        # batch_size=32 means many chunks, but the store is prepared once.
        assert CountingMatcher.prepare_calls == 1

    def test_base_matcher_columnar_entry_points_raise(self):
        class Plain(PairwiseMatcher):
            def predict_proba(self, pairs):
                return [0.0 for _ in pairs]

        plain = Plain()
        with pytest.raises(NotImplementedError):
            plain.prepare_profiles([])
        with pytest.raises(NotImplementedError):
            plain.score_profiled(None, [("a", "b")])
