"""Unit tests for the execution engine: config, chunking, scheduling,
profiling, the batched matcher path and blocking partitioning."""

import pickle
from dataclasses import fields

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.datagen import figure2_dataset
from repro.matching import IdOverlapMatcher, ThresholdNameMatcher
from repro.runtime import (
    ChunkScheduler,
    PipelineRuntime,
    RuntimeConfig,
    StageProfiler,
    chunked,
)


def double_all(chunk):
    """Module-level so the process pool can pickle it."""
    return [value * 2 for value in chunk]


def add_offset(shared, chunk):
    """Shared-payload worker fn (module-level, picklable)."""
    return [value + shared["offset"] for value in chunk]


class TestRuntimeConfig:
    def test_defaults_are_serial(self):
        config = RuntimeConfig()
        assert config.workers == 1
        assert not config.is_parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            RuntimeConfig(workers=workers)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            RuntimeConfig(batch_size=batch_size)

    def test_has_exactly_three_knobs(self):
        # The pool is always a process pool and blocking always runs in the
        # parent: neither the executor nor a shard count is configurable.
        assert [spec.name for spec in fields(RuntimeConfig)] == [
            "workers", "batch_size", "trace",
        ]
        with pytest.raises(TypeError):
            RuntimeConfig(executor="process")

    @pytest.mark.parametrize("name, value", [
        ("profile_cache", True),
        ("columnar_dispatch", False),
        ("warm_pool", False),
        ("executor", "thread"),
        ("blocking_shards", 4),
    ])
    def test_unpickling_drops_a_retired_knob(self, name, value):
        # Match states pickle their RuntimeConfig; one saved while a knob
        # existed must load with the knob dropped and the rest kept.
        legacy = RuntimeConfig(workers=3, batch_size=64)
        object.__setattr__(legacy, name, value)
        restored = pickle.loads(pickle.dumps(legacy))
        assert not hasattr(restored, name)
        assert restored == RuntimeConfig(workers=3, batch_size=64)


class TestChunked:
    def test_concatenation_is_identity(self):
        items = list(range(13))
        chunks = chunked(items, 4)
        assert [len(c) for c in chunks] == [4, 4, 4, 1]
        assert [value for chunk in chunks for value in chunk] == items

    def test_empty_sequence_yields_no_chunks(self):
        assert chunked([], 8) == []

    def test_oversized_chunk_size_yields_one_chunk(self):
        assert chunked([1, 2], 100) == [[1, 2]]

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestChunkScheduler:
    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(),
            RuntimeConfig(workers=2),
            RuntimeConfig(workers=3),
        ],
        ids=["serial", "process", "process-3"],
    )
    @pytest.mark.parametrize(
        "fn, shared, expected",
        [
            (double_all, None, [v * 2 for v in range(57)]),
            (add_offset, {"offset": 100}, [v + 100 for v in range(57)]),
        ],
        ids=["plain", "shared-payload"],
    )
    def test_results_preserve_chunk_order(self, config, fn, shared, expected):
        chunks = chunked(list(range(57)), 10)
        with ChunkScheduler(config) as scheduler:
            results = scheduler.map_chunks(fn, chunks, shared=shared)
        assert [v for chunk in results for v in chunk] == expected

    def test_empty_chunk_list(self):
        assert ChunkScheduler(RuntimeConfig(workers=4)).map_chunks(double_all, []) == []

    def test_records_one_timing_per_chunk(self):
        profiler = StageProfiler()
        chunks = chunked(list(range(40)), 10)
        with ChunkScheduler(RuntimeConfig(workers=2)) as scheduler:
            scheduler.map_chunks(double_all, chunks, stage="work", profiler=profiler)
        assert len(profiler.chunk_seconds("work")) == len(chunks)
        assert all(seconds >= 0 for seconds in profiler.chunk_seconds("work"))


class TestStageProfiler:
    def test_stage_context_manager_records_elapsed(self):
        profiler = StageProfiler()
        with profiler.stage("blocking"):
            pass
        assert profiler.stage_seconds("blocking") >= 0
        assert profiler.stage_seconds("missing") == 0.0

    def test_as_timings_flattens_chunks_with_stable_keys(self):
        profiler = StageProfiler()
        profiler.record_stage("pairwise_matching", 1.5)
        profiler.record_chunk("pairwise_matching", 0.5)
        profiler.record_chunk("pairwise_matching", 1.0)
        timings = profiler.as_timings()
        assert timings["pairwise_matching"] == 1.5
        assert timings["pairwise_matching/chunk000"] == 0.5
        assert timings["pairwise_matching/chunk001"] == 1.0

    @pytest.mark.parametrize("num_chunks", [1, 999, 1000, 12345])
    def test_chunk_keys_sort_lexicographically_at_any_count(self, num_chunks):
        # The pad width grows with the chunk count (min 3 digits), so
        # lexicographic key order equals chunk order past 999 chunks —
        # small matching batches make thousand-chunk stages routine.
        profiler = StageProfiler()
        for index in range(num_chunks):
            profiler.record_chunk("blocking", float(index))
        keys = [key for key in profiler.as_timings() if key.startswith("blocking/chunk")]
        assert len(keys) == num_chunks
        assert sorted(keys) == keys
        timings = profiler.as_timings()
        assert [timings[key] for key in sorted(keys)] == [float(i) for i in range(num_chunks)]

    def test_pad_width_is_per_stage_and_backward_compatible(self):
        profiler = StageProfiler()
        for index in range(1001):
            profiler.record_chunk("big", float(index))
        profiler.record_chunk("small", 1.0)
        timings = profiler.as_timings()
        # ≤1000 chunks keep the historical three-digit keys.
        assert "small/chunk000" in timings
        # Index 1000 needs four digits — throughout the stage, so the keys
        # still sort.
        assert "big/chunk0000" in timings and "big/chunk1000" in timings
        assert "big/chunk000" not in timings


class TestDecideBatches:
    def test_matches_per_batch_decisions(self):
        companies, _ = figure2_dataset()
        records = companies.records
        pairs = [(records[i], records[j])
                 for i in range(len(records)) for j in range(i + 1, len(records))]
        matcher = ThresholdNameMatcher(similarity_threshold=0.85)
        batches = chunked(pairs, 7)
        fused = matcher.decide_batches(batches)
        assert [len(batch) for batch in fused] == [len(batch) for batch in batches]
        for batch, decided in zip(batches, fused):
            assert decided == matcher.decide(batch)

    def test_empty_batches(self):
        matcher = IdOverlapMatcher()
        assert matcher.decide_batches([]) == []
        assert matcher.decide_batches([[]]) == [[]]


class TestBlockingPartition:
    def test_plain_blocking_is_its_own_partition(self):
        blocking = IdOverlapBlocking()
        assert blocking.partition() == [blocking]

    def test_combined_blocking_partitions_into_members(self):
        members = [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
        assert CombinedBlocking(members).partition() == members

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocking_runs_in_the_parent_as_one_chunk(self, workers):
        companies, _ = figure2_dataset()
        blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
        serial = blocking.candidate_pairs(companies)
        profiler = StageProfiler()
        with PipelineRuntime(RuntimeConfig(workers=workers)) as runtime:
            assert runtime.run_blocking(blocking, companies, profiler) == serial
            # No pool, at any worker count: blocking never fans out.
            assert runtime.pool_stats() is None
        assert profiler.chunk_items("blocking") == [len(serial)]

    def test_delta_blocking_runs_in_the_parent_as_one_chunk(self):
        companies, _ = figure2_dataset()
        part = TokenOverlapBlocking(top_n=3)
        shared = part.prepare(companies)
        expected = part.owned_candidates(shared, companies.records)
        profiler = StageProfiler()
        with PipelineRuntime(RuntimeConfig(workers=2)) as runtime:
            owned = runtime.run_blocking_delta(part, shared, companies.records, profiler)
            assert runtime.pool_stats() is None
        assert owned == expected
        assert profiler.chunk_items("blocking_delta") == [
            sum(len(pairs) for pairs in expected)
        ]

    def test_delta_blocking_of_no_records_records_nothing(self):
        companies, _ = figure2_dataset()
        part = TokenOverlapBlocking(top_n=3)
        profiler = StageProfiler()
        runtime = PipelineRuntime()
        assert runtime.run_blocking_delta(part, part.prepare(companies), [], profiler) == []
        assert profiler.chunk_seconds("blocking_delta") == []
