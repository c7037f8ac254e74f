"""Ingest observability: run spans per batch and pinned delta metrics.

The counter values are pinned exactly for the golden fixture (seed 42, 50
entities, two half batches) — the same determinism contract the golden
regression suite relies on makes cache-hit counts stable, so a drift here
means the decision cache or cleanup memo changed behaviour, not noise.
"""

import pytest

from repro.incremental import IncrementalMatcher
from repro.obs import TraceRecorder
from repro.runtime import PipelineRuntime, RuntimeConfig


@pytest.fixture()
def traced_two_batch_ingest(golden_setup, pipeline_factory):
    companies, _ = golden_setup
    recorder = TraceRecorder()
    runtime = PipelineRuntime(RuntimeConfig(), recorder=recorder)
    matcher = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime), name="golden-traced"
    )
    records = companies.records
    half = len(records) // 2
    reports = [matcher.ingest(records[:half]), matcher.ingest(records[half:])]
    matcher.close()
    return recorder, reports


class TestIngestSpans:
    def test_one_run_span_per_batch_with_delta_attributes(
        self, traced_two_batch_ingest
    ):
        recorder, reports = traced_two_batch_ingest
        spans = recorder.trace().find("ingest", kind="run")
        assert len(spans) == 2
        for span, report in zip(spans, reports):
            assert span.attributes == {
                "new_records": report.num_new_records,
                "records_rescored": report.records_rescored,
                "pairs_scored": report.pairs_scored,
                "pairs_reused": report.pairs_reused,
                "components_recleaned": report.components_recleaned,
                "components_reused": report.components_reused,
            }

    def test_stage_spans_nest_under_each_ingest(self, traced_two_batch_ingest):
        recorder, _ = traced_two_batch_ingest
        for span in recorder.trace().find("ingest", kind="run"):
            stages = [c.name for c in span.children if c.kind == "stage"]
            assert "pairwise_matching" in stages
            assert "graph_cleanup" in stages


class TestIngestMetrics:
    def test_counters_accumulate_the_per_batch_reports(
        self, traced_two_batch_ingest
    ):
        recorder, reports = traced_two_batch_ingest
        counters = recorder.metrics.counters()
        assert counters["decision_cache.hits"] == sum(
            r.pairs_reused for r in reports
        )
        assert counters["decision_cache.misses"] == sum(
            r.pairs_scored for r in reports
        )
        assert counters["cleanup_memo.hits"] == sum(
            r.components_reused for r in reports
        )
        assert counters["cleanup_memo.misses"] == sum(
            r.components_recleaned for r in reports
        )
        assert counters["ingest.new_records"] == sum(
            r.num_new_records for r in reports
        )

    def test_pinned_golden_two_batch_values(self, traced_two_batch_ingest):
        """Exact cache-hit counts of the golden two-batch ingest.

        Batch 1 scores every candidate cold (135 misses, 0 hits); batch 2
        reuses 122 cached pair decisions and re-scores 150, and the cleanup
        memo skips 22 of 45 components.
        """
        recorder, _ = traced_two_batch_ingest
        counters = recorder.metrics.counters()
        assert counters["decision_cache.hits"] == 122
        assert counters["decision_cache.misses"] == 135 + 150
        assert counters["cleanup_memo.hits"] == 22
        assert counters["cleanup_memo.misses"] == 23 + 23
        assert counters["ingest.new_records"] == 172
        assert counters["ingest.records_rescored"] == 432

    def test_gauges_hold_the_final_corpus_shape(self, traced_two_batch_ingest):
        recorder, reports = traced_two_batch_ingest
        gauges = recorder.metrics.gauges()
        assert gauges["ingest.num_records"] == reports[-1].num_records == 172
        assert gauges["ingest.num_candidates"] == reports[-1].num_candidates == 272

    def test_sim_memo_delta_is_counted_in_process(self, traced_two_batch_ingest):
        # The persistent profile store's similarity memo: parent-side delta
        # accounting sees in-process gathers (serial engine here).
        recorder, _ = traced_two_batch_ingest
        counters = recorder.metrics.counters()
        assert counters["profile_store.sim_memo.misses"] > 0

    def test_untraced_ingest_records_nothing(self, golden_setup, pipeline_factory):
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(None), name="golden-untraced"
        )
        report = matcher.ingest(companies.records)
        recorder = matcher.runtime.recorder
        assert not recorder.enabled
        assert recorder.trace().counters == {}
        matcher.close()
        assert report.num_records == len(companies.records)


@pytest.fixture()
def traced_multi_delta_ingest(golden_setup, pipeline_factory):
    """The golden corpus minus its last 20 records, then four 5-record deltas."""
    companies, _ = golden_setup
    recorder = TraceRecorder()
    runtime = PipelineRuntime(RuntimeConfig(), recorder=recorder)
    matcher = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime), name="golden-deltas"
    )
    records = companies.records
    batches = [records[:-20]] + [
        records[len(records) - 20 + 5 * step:][:5] for step in range(4)
    ]
    reports = [matcher.ingest(batch) for batch in batches]
    matcher.close()
    return recorder, reports, matcher


class TestMultiDeltaBlockingWork:
    """Deterministic blocking work of small deltas, pinned exactly.

    The bulk ingest prepares the token index without margin certificates,
    so the first delta rescores every tokenised record once and computes
    them; the later deltas rescore only the new records, the identifier
    neighbours and the token-overlap records whose certificate fails.
    """

    def test_pinned_rescoring_and_certification_counts(self, traced_multi_delta_ingest):
        recorder, reports, _ = traced_multi_delta_ingest
        assert [r.records_rescored for r in reports] == [304, 163, 13, 21, 13]
        assert [r.records_certified for r in reports] == [0, 151, 311, 313, 331]
        counters = recorder.metrics.counters()
        assert counters["blocking.records_certified"] == 1106
        assert counters["blocking.postings_visited"] == 5614
        assert counters["ingest.records_rescored"] == 514

    def test_every_record_is_rescored_or_certified(self, traced_multi_delta_ingest):
        # Two shardable parts: each delta accounts for every record twice.
        _, reports, _ = traced_multi_delta_ingest
        for report in reports[1:]:
            assert report.records_rescored + report.records_certified == 2 * report.num_records

    def test_deltas_still_equal_the_batch_run(self, traced_multi_delta_ingest, batch_result):
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        _, _, matcher = traced_multi_delta_ingest
        assert_equals_batch(matcher, batch_result)
