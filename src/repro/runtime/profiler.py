"""Stage and chunk profiling for pipeline runs.

The profiler collects wall-clock timings at two granularities: whole stages
("blocking", "pairwise_matching", "graph_cleanup") and — when a stage is
executed in chunks — the individual chunk durations.  Chunk durations are
measured where the work happens (inside the worker for pooled execution), so
they reflect compute time, not queueing delay.

Chunked stages may also record how many *items* each chunk processed or
produced (candidate pairs for matching, candidates for blocking), which
turns the raw durations into per-chunk throughputs
(:meth:`StageProfiler.chunk_throughput`) — benches and the CLI's timing
output show where time goes without any external timing.

Since ``repro.obs`` landed, the profiler is also the *timings view over the
run trace*: construct it with a :class:`~repro.obs.trace.TraceRecorder`
(``PipelineRuntime.profiler()`` does) and every stage it times becomes a
``stage`` span and every chunk a ``chunk`` span in the trace, while the
flat accumulation dicts keep serving the stable ``as_timings()`` /
throughput contract.  With the default :data:`~repro.obs.trace.NULL_RECORDER`
nothing changes: the profiler works standalone exactly as before.

Stage timings *accumulate* across repeated invocations of the same stage
name — a multi-batch ingest reuses one runtime and runs ``delta_blocking``
once per batch, and ``stage_seconds`` reports the total, not just the last
batch.  (Earlier versions clobbered repeats.)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.obs.trace import NULL_RECORDER


class StageProfiler:
    """Records per-stage and per-chunk wall-clock timings of one run.

    ``recorder`` (default: the shared no-op) additionally receives each
    timed region as a trace span; the profiler never *requires* a trace.
    """

    def __init__(self, recorder: Any = None) -> None:
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._stages: dict[str, float] = {}
        self._chunks: dict[str, list[float]] = {}
        self._chunk_items: dict[str, list[int | None]] = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a whole stage: ``with profiler.stage("blocking"): ...``.

        Repeated invocations of the same name accumulate.  The region is
        also opened as a ``stage`` span on the recorder, so chunk spans and
        events recorded inside nest under it.
        """
        with self.recorder.span(name, kind="stage"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self._stages[name] = self._stages.get(name, 0.0) + elapsed

    def record_stage(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to stage ``name`` (accumulates across calls)."""
        self._stages[name] = self._stages.get(name, 0.0) + seconds

    def record_chunk(
        self,
        stage: str,
        seconds: float,
        items: int | None = None,
        *,
        start: float | None = None,
        end: float | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        """Append one chunk duration to ``stage`` (chunks are ordered).

        ``items`` — how many items the chunk processed/produced (pairs for
        matching, candidates for blocking) — feeds the per-chunk throughput
        accessors; ``None`` when the caller has no meaningful count.

        When the caller also knows the chunk's position on the shared
        monotonic timeline (``start``/``end``, as the scheduler does for
        worker-measured chunks), and a real recorder is attached, the chunk
        lands in the trace as a ``chunk`` span with its index, item count
        and any extra ``attributes``.
        """
        chunks = self._chunks.setdefault(stage, [])
        index = len(chunks)
        chunks.append(seconds)
        self._chunk_items.setdefault(stage, []).append(items)
        if self.recorder.enabled and start is not None and end is not None:
            span_attributes: dict[str, Any] = {"index": index}
            if items is not None:
                span_attributes["items"] = items
            if attributes:
                span_attributes.update(attributes)
            self.recorder.add_span(
                stage, kind="chunk", start=start, end=end, attributes=span_attributes
            )

    # -- reading -----------------------------------------------------------

    def stage_seconds(self, name: str) -> float:
        return self._stages.get(name, 0.0)

    def chunk_seconds(self, stage: str) -> list[float]:
        return list(self._chunks.get(stage, []))

    def chunk_items(self, stage: str) -> list[int | None]:
        """Per-chunk item counts, aligned with :meth:`chunk_seconds`."""
        return list(self._chunk_items.get(stage, []))

    def chunk_throughput(self, stage: str) -> list[float | None]:
        """Per-chunk items/second (``None`` where no count was recorded)."""
        return [
            items / seconds if items is not None and seconds > 0 else None
            for items, seconds in zip(self.chunk_items(stage), self.chunk_seconds(stage))
        ]

    def stage_throughput(self, stage: str) -> float | None:
        """Aggregate items/second over a stage's counted chunks."""
        total_items = 0
        total_seconds = 0.0
        for items, seconds in zip(self.chunk_items(stage), self.chunk_seconds(stage)):
            if items is not None:
                total_items += items
                total_seconds += seconds
        if total_items == 0 or total_seconds <= 0:
            return None
        return total_items / total_seconds

    def as_timings(self) -> dict[str, float]:
        """Flatten into the ``PipelineResult.timings`` dictionary.

        Stage totals keep their plain names; chunk durations are keyed
        ``"<stage>/chunk<index>"`` so a flat ``dict[str, float]`` remains
        backward compatible for consumers that only read the stage keys.
        The index is zero-padded to the stage's chunk count (at least three
        digits, so the common keys stay stable), keeping lexicographic key
        order equal to chunk order at any chunk count — 1000+ chunks are
        routine for pairwise matching at a small ``batch_size``.
        """
        timings: dict[str, float] = dict(self._stages)
        for stage, chunks in self._chunks.items():
            width = max(3, len(str(len(chunks) - 1)))
            for index, seconds in enumerate(chunks):
                timings[f"{stage}/chunk{index:0{width}d}"] = seconds
        return timings
