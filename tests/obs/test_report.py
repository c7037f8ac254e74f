"""The terminal trace report: span tree, chunk rollups, hit rates."""

from repro.obs import Span, Trace, TraceRecorder, render_trace_report


def sample_trace():
    recorder = TraceRecorder()
    with recorder.span("run", kind="run", records=12):
        with recorder.span("blocking", kind="stage"):
            recorder.event("pool.spawn", workers=2)
            recorder.add_span("blocking", start=0.0, end=0.5,
                              attributes={"index": 0, "items": 100})
            recorder.add_span("blocking", start=0.5, end=1.0,
                              attributes={"index": 1, "items": 100})
    recorder.metrics.add("decision_cache.hits", 30)
    recorder.metrics.add("decision_cache.misses", 70)
    recorder.metrics.add("pool.spawns", 1)
    recorder.metrics.gauge("ingest.num_records", 12)
    return recorder.trace()


class TestRenderTraceReport:
    def test_renders_the_span_tree_with_kinds_and_attrs(self):
        report = render_trace_report(sample_trace())
        assert "run [run]" in report
        assert "[records=12]" in report
        lines = report.splitlines()
        run_line = next(i for i, line in enumerate(lines) if "run [run]" in line)
        stage_line = next(i for i, line in enumerate(lines)
                          if "blocking [stage]" in line)
        assert stage_line > run_line
        assert lines[stage_line].startswith("  ")  # nested under the run

    def test_chunks_collapse_into_a_throughput_line(self):
        report = render_trace_report(sample_trace())
        assert "2 chunks, 200 items, 200 items/s" in report
        assert "1.00s worker time" in report

    def test_events_render_inline(self):
        report = render_trace_report(sample_trace())
        assert "· pool.spawn  [workers=2]" in report

    def test_hit_rates_derive_from_counter_pairs(self):
        report = render_trace_report(sample_trace())
        assert "Cache hit rates" in report
        assert "decision_cache: 30/100 hits (30.0%)" in report

    def test_counters_and_gauges_sections(self):
        report = render_trace_report(sample_trace())
        assert "pool.spawns: 1" in report
        assert "ingest.num_records: 12" in report

    def test_unpaired_counters_get_no_rate_line(self):
        trace = Trace(counters={"pool.spawns": 1, "lonely.hits": 3})
        report = render_trace_report(trace)
        assert "Cache hit rates" not in report

    def test_zero_total_pair_renders_without_dividing(self):
        trace = Trace(counters={"c.hits": 0, "c.misses": 0})
        assert "c: 0/0 hits (0.0%)" in render_trace_report(trace)

    def test_empty_trace(self):
        assert render_trace_report(Trace()) == "Trace contains no spans."

    def test_durations_format_by_magnitude(self):
        trace = Trace(spans=[
            Span("slow", kind="stage", start=0.0, end=2.5),
            Span("fast", kind="stage", start=0.0, end=0.0421),
        ])
        report = render_trace_report(trace)
        assert "slow [stage] 2.50s" in report
        assert "fast [stage] 42.1ms" in report
