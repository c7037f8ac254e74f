"""JSONL sink behaviour and the trace round-trip contract.

The load-bearing property: a trace streamed to JSONL and read back equals
the recorder's in-memory tree — children stream before their parents (spans
emit on completion), and the reader reconstructs every ``children`` list in
attachment order anyway.
"""

import json
import logging

import pytest

from repro.obs import (
    TRACE_FORMAT_VERSION,
    JsonlSink,
    MemorySink,
    TraceFormatError,
    TraceRecorder,
    read_trace_jsonl,
)


def record_sample_run(recorder):
    """A small but structurally rich run: nesting, chunks, events, metrics."""
    with recorder.span("run", kind="run", records=12):
        with recorder.span("blocking", kind="stage"):
            recorder.event("pool.spawn", workers=2)
            recorder.add_span("blocking", start=10.0, end=10.5,
                              attributes={"index": 0, "items": 6})
            recorder.add_span("blocking", start=10.5, end=11.0,
                              attributes={"index": 1, "items": 6})
        with recorder.span("pairwise_matching", kind="stage"):
            recorder.add_span("pairwise_matching", start=11.0, end=12.0,
                              attributes={"index": 0, "items": 30})
    recorder.metrics.add("decision_cache.hits", 5)
    recorder.metrics.add("decision_cache.misses", 25)
    recorder.metrics.gauge("ingest.num_records", 12)


class TestJsonlSink:
    def test_writes_header_then_records_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"type": "span", "id": 1, "parent": None, "name": "s",
                    "kind": "span", "start": 0.0, "end": 1.0})
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"type": "trace", "version": TRACE_FORMAT_VERSION}
        assert lines[1]["name"] == "s"

    def test_opens_lazily(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"type": "metrics", "counters": {}, "gauges": {}})
        sink.close()
        assert path.exists()

    def test_unwritable_path_degrades_with_one_warning(self, tmp_path, caplog):
        target = tmp_path / "not-a-dir"
        target.write_text("a file, not a directory")
        sink = JsonlSink(target / "trace.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro"):
            sink.write({"type": "metrics", "counters": {}, "gauges": {}})
            sink.write({"type": "metrics", "counters": {}, "gauges": {}})
        warnings = [r for r in caplog.records if "trace sink disabled" in r.message]
        assert len(warnings) == 1
        sink.close()  # still safe


class TestRoundTrip:
    def test_jsonl_round_trip_equals_in_memory_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(sink=JsonlSink(path))
        record_sample_run(recorder)
        recorder.finish()
        assert read_trace_jsonl(path) == recorder.trace()

    def test_round_trip_preserves_sibling_order(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(sink=JsonlSink(path))
        with recorder.span("run"):
            for name in ("first", "second", "third"):
                with recorder.span(name):
                    pass
        recorder.finish()
        (run,) = read_trace_jsonl(path).spans
        assert [s.name for s in run.children] == ["first", "second", "third"]

    def test_round_trip_of_memory_sink_stream(self, tmp_path):
        # The MemorySink stream and the file hold the same records.
        memory = MemorySink()
        recorder = TraceRecorder(sink=memory)
        record_sample_run(recorder)
        recorder.finish()
        path = tmp_path / "replayed.jsonl"
        replay = JsonlSink(path)
        for record in memory.records:
            replay.write(record)
        replay.close()
        assert read_trace_jsonl(path) == recorder.trace()

    def test_crashed_run_prefix_is_still_readable(self, tmp_path):
        # Per-line flushing means a file cut mid-run still parses: every
        # already-completed top-level span survives (the batch that died
        # never emitted, so it is simply absent).
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(sink=JsonlSink(path))
        for batch in ("batch-1", "batch-2", "batch-3"):
            with recorder.span(batch, kind="run"):
                pass
        recorder.finish()
        lines = path.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:3]) + "\n")  # header + 2 runs
        trace = read_trace_jsonl(truncated)
        assert trace.counters == {}
        assert [s.name for s in trace.spans] == ["batch-1", "batch-2"]


class TestReadValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def header(self):
        return {"type": "trace", "version": TRACE_FORMAT_VERSION}

    def test_requires_header_first(self, tmp_path):
        path = self.write(tmp_path, [{"type": "metrics", "counters": {},
                                      "gauges": {}}])
        with pytest.raises(TraceFormatError, match="header"):
            read_trace_jsonl(path)

    def test_rejects_unsupported_version(self, tmp_path):
        path = self.write(tmp_path, [{"type": "trace", "version": 999}])
        with pytest.raises(TraceFormatError, match="unsupported trace version"):
            read_trace_jsonl(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "trace", "version": 1}\nnot json\n')
        with pytest.raises(TraceFormatError, match="line 2: not valid JSON"):
            read_trace_jsonl(path)

    def test_rejects_unknown_record_type(self, tmp_path):
        path = self.write(tmp_path, [self.header(), {"type": "mystery"}])
        with pytest.raises(TraceFormatError, match="unknown record type"):
            read_trace_jsonl(path)

    def test_rejects_duplicate_header(self, tmp_path):
        path = self.write(tmp_path, [self.header(), self.header()])
        with pytest.raises(TraceFormatError, match="duplicate trace header"):
            read_trace_jsonl(path)

    def test_rejects_span_without_id(self, tmp_path):
        path = self.write(tmp_path, [self.header(), {
            "type": "span", "parent": None, "name": "s", "kind": "span",
            "start": 0.0, "end": 1.0,
        }])
        with pytest.raises(TraceFormatError, match="unique integer id"):
            read_trace_jsonl(path)

    def test_rejects_unresolved_parent_link(self, tmp_path):
        path = self.write(tmp_path, [self.header(), {
            "type": "span", "id": 1, "parent": 99, "name": "s",
            "kind": "span", "start": 0.0, "end": 1.0,
        }])
        with pytest.raises(TraceFormatError, match="does not name a span"):
            read_trace_jsonl(path)

    def test_rejects_non_numeric_times(self, tmp_path):
        path = self.write(tmp_path, [self.header(), {
            "type": "span", "id": 1, "parent": None, "name": "s",
            "kind": "span", "start": "soon", "end": 1.0,
        }])
        with pytest.raises(TraceFormatError, match="numeric start/end"):
            read_trace_jsonl(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(self.header()) + "\n\n"
            + json.dumps({"type": "metrics", "counters": {"n": 1},
                          "gauges": {}}) + "\n"
        )
        assert read_trace_jsonl(path).counters == {"n": 1}
