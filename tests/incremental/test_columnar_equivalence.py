"""The matching route is invisible to incremental ingestion.

The batch golden result is produced by the columnar logistic matcher.
Ingesting any partition of the same records with the *same fitted model*
on the record-pair route — plain decision lists into the decision cache —
must reproduce it byte for byte.  Ingested decisions are served as a lazy
:class:`~repro.matching.decisions.DecisionVector` gathered off the cache
arrays either way, and a second delta reuses cached rows instead of
rescoring them.
"""

import pytest

from repro.incremental import IncrementalMatcher
from repro.matching import LogisticRegressionMatcher
from repro.matching.decisions import DecisionCache, DecisionVector
from repro.runtime import RuntimeConfig

from tests.incremental.test_batch_equivalence import (
    RUNTIMES,
    assert_equals_batch,
    ingest_in_batches,
    partition_records,
)


class RecordPairLogistic(LogisticRegressionMatcher):
    """A fitted logistic model routed through record pairs, not the store."""

    columnar_capable = False


def record_pair_route(matcher):
    twin = RecordPairLogistic.__new__(RecordPairLogistic)
    twin.__dict__.update(matcher.__dict__)
    return twin


def ingest_record_pairs(golden_setup, pipeline_factory, batches, runtime):
    _, matcher = golden_setup
    incremental = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime, matcher=record_pair_route(matcher)), name="golden"
    )
    for batch in batches:
        incremental.ingest(batch)
    return incremental


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
class TestRecordPairRoutePartitionInvariance:
    def test_record_pair_route_reproduces_the_columnar_batch_run(
        self, golden_setup, pipeline_factory, batch_result, runtime, num_batches
    ):
        companies, _ = golden_setup
        batches = partition_records(companies.records, num_batches)
        matcher = ingest_record_pairs(golden_setup, pipeline_factory, batches, runtime)
        try:
            assert matcher.state.profiles is None  # the store was never built
            assert_equals_batch(matcher, batch_result)
        finally:
            matcher.close()


class TestDecisionCacheMechanics:
    def test_cache_contents_identical_across_routes(
        self, golden_setup, pipeline_factory
    ):
        # Not just the served artefacts: the persistent cache rows themselves
        # (pairs, probabilities, verdicts) must match, so a state written on
        # one route reads back identically on the other.
        companies, _ = golden_setup
        batches = partition_records(companies.records, 2)
        columnar = ingest_in_batches(pipeline_factory, batches, RuntimeConfig())
        record_pairs = ingest_record_pairs(
            golden_setup, pipeline_factory, batches, RuntimeConfig()
        )
        assert isinstance(record_pairs.state.decisions, DecisionCache)
        assert columnar.state.decisions == record_pairs.state.decisions

    def test_decisions_are_served_as_a_vector(
        self, golden_setup, pipeline_factory, batch_result
    ):
        companies, _ = golden_setup
        matcher = ingest_in_batches(
            pipeline_factory, [companies.records], RuntimeConfig()
        )
        decisions = matcher.decisions()
        assert isinstance(decisions, DecisionVector)
        assert decisions == batch_result.decisions

    def test_delta_savings_survive_the_columnar_route(
        self, golden_setup, pipeline_factory, batch_result
    ):
        companies, _ = golden_setup
        halves = partition_records(companies.records, 2)
        matcher = ingest_in_batches(pipeline_factory, halves[:1], RuntimeConfig())
        report = matcher.ingest(halves[1])
        assert report.pairs_reused > 0
        assert report.pairs_scored < len(batch_result.candidates)
