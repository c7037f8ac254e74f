"""The headline golden suite: ingestion order and partitioning are invisible.

Ingesting the golden dataset in any partition — one batch, two halves,
seven slices, or a record-at-a-time tail — must produce candidates,
decisions and final groups **byte-identical** to the one-shot batch
pipeline run, under the serial engine and both pool flavours.  A state
saved to disk mid-stream and reloaded must continue exactly where it left
off.
"""

import pytest

from repro.incremental import IncrementalMatcher
from repro.runtime import RuntimeConfig

RUNTIMES = [
    pytest.param(None, id="serial"),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="thread", blocking_shards=4),
        id="thread-sharded",
    ),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="process", blocking_shards=4),
        id="process-sharded",
    ),
]


def partition_records(records, num_batches):
    """Split records into ``num_batches`` consecutive batches."""
    size = (len(records) + num_batches - 1) // num_batches
    return [records[start:start + size] for start in range(0, len(records), size)]


def ingest_in_batches(pipeline_factory, batches, runtime=None):
    matcher = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime), name="golden"
    )
    for batch in batches:
        matcher.ingest(batch)
    return matcher


def assert_equals_batch(matcher, batch_result):
    """Full artefact equality, not just group-partition equality."""
    assert matcher.candidates() == batch_result.candidates
    assert matcher.decisions() == batch_result.decisions
    assert matcher.groups.groups == batch_result.groups.groups
    assert (
        matcher.state.pre_cleanup_groups.groups
        == batch_result.pre_cleanup_groups.groups
    )
    assert matcher.state.pre_cleanup_removed == batch_result.pre_cleanup_removed
    assert (
        matcher.state.cleanup_report.removed_edges
        == batch_result.cleanup_report.removed_edges
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
class TestPartitionInvariance:
    def test_any_partition_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result, runtime, num_batches
    ):
        companies, _ = golden_setup
        batches = partition_records(companies.records, num_batches)
        matcher = ingest_in_batches(pipeline_factory, batches, runtime)
        assert matcher.state.num_ingests == len(batches)
        assert_equals_batch(matcher, batch_result)


#: The pool sweep axes: executor flavour × blocking sharding (``serial``
#: never spawns a pool).  Unsharded, blocking runs one task per part and
#: the pool serves the other stages; three shards on two workers give more
#: blocking tasks than workers.
POOL_SWEEP = [pytest.param(RuntimeConfig(batch_size=64), id="serial")] + [
    pytest.param(
        RuntimeConfig(
            workers=2, batch_size=64, executor=executor, blocking_shards=shards
        ),
        id=f"{executor}-{label}",
    )
    for executor in ("thread", "process")
    for shards, label in ((1, "unsharded"), (3, "sharded"))
]


@pytest.mark.parametrize("runtime", POOL_SWEEP)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
class TestPoolInvariance:
    def test_pool_is_invisible_in_the_artefacts(
        self, golden_setup, pipeline_factory, batch_result, runtime, num_batches
    ):
        """Executor × partition → byte-identical output.

        The persistent pool and the epoch protocol only change *where* work
        runs and *how* shared state travels — candidates, decisions and
        groups must match the one-shot batch run exactly in every mode.
        """
        companies, _ = golden_setup
        batches = partition_records(companies.records, num_batches)
        matcher = ingest_in_batches(pipeline_factory, batches, runtime)
        try:
            assert_equals_batch(matcher, batch_result)
        finally:
            matcher.close()


class TestWarmPoolAcrossBatches:
    def test_one_pool_and_one_store_ship_per_revision(
        self, golden_setup, pipeline_factory, batch_result
    ):
        """The pool's cost structure across a multi-batch ingest.

        The pool spawns once for the whole ingest sequence, and the
        persistent profile store is re-shipped only when a batch actually
        grows it (one revision per growing ingest) — never once per
        map_chunks call.
        """
        companies, _ = golden_setup
        runtime = RuntimeConfig(
            workers=2, batch_size=64, executor="process", blocking_shards=4
        )
        batches = partition_records(companies.records, 3)
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(runtime), name="golden"
        )
        try:
            spawns_seen = []
            for batch in batches:
                matcher.ingest(batch)
                spawns_seen.append(matcher.runtime.pool_stats()["spawns"])
            assert spawns_seen == [1, 1, 1]  # one pool for all batches
            # The profiled matching payload ships once per store revision:
            # batch 1 creates the store (revision 0), batches 2 and 3 each
            # grow it once.
            store = matcher.state.profiles
            assert store is not None and store.revision == 2
            assert_equals_batch(matcher, batch_result)
        finally:
            matcher.close()


class TestRecordAtATime:
    def test_single_record_tail_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # A record-at-a-time sample: bulk-load most of the corpus, then
        # ingest the last records individually — the smallest possible
        # deltas, scored in 1-pair batch shapes.
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:-8]])
        for record in records[-8:]:
            report = matcher.ingest([record])
            assert report.num_new_records == 1
        assert_equals_batch(matcher, batch_result)

    def test_uneven_partition_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result
    ):
        companies, _ = golden_setup
        records = companies.records
        batches = [records[:5], records[5:100], records[100:101], records[101:]]
        matcher = ingest_in_batches(pipeline_factory, batches)
        assert_equals_batch(matcher, batch_result)


class TestSaveReload:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_reload_then_ingest_equals_uninterrupted(
        self, golden_setup, pipeline_factory, batch_result, tmp_path, runtime
    ):
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:90]], runtime)
        state_dir = matcher.save(tmp_path / "state")

        reloaded = IncrementalMatcher.load(state_dir, runtime=runtime)
        reloaded.ingest(records[90:])
        assert_equals_batch(reloaded, batch_result)

    def test_save_is_idempotent_and_reloadable_after_finish(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        companies, _ = golden_setup
        matcher = ingest_in_batches(
            pipeline_factory, partition_records(companies.records, 2)
        )
        state_dir = matcher.save(tmp_path / "state")
        matcher.save(state_dir)
        reloaded = IncrementalMatcher.load(state_dir)
        assert_equals_batch(reloaded, batch_result)
        # And the reloaded state still absorbs an (empty) delta cleanly.
        report = reloaded.ingest([])
        assert report.num_new_records == 0
        assert_equals_batch(reloaded, batch_result)


class TestIngestValidation:
    def test_duplicate_record_ids_are_rejected_atomically(
        self, golden_setup, pipeline_factory
    ):
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:10]])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([records[3]])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([records[20], records[20]])
        # The failed ingests left no partial records behind.
        assert len(matcher.dataset) == 10

    def test_delta_savings_are_real(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # Not just equivalence: the second half must reuse cached decisions
        # and skip untouched components.
        companies, _ = golden_setup
        halves = partition_records(companies.records, 2)
        matcher = ingest_in_batches(pipeline_factory, halves[:1])
        report = matcher.ingest(halves[1])
        assert report.pairs_reused > 0
        assert report.pairs_scored < len(batch_result.candidates)
        assert report.components_reused > 0
