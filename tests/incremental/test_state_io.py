"""On-disk state format: manifest versioning and payload round-trips.

Includes the satellite coverage for the :class:`ProfileStore` disk
round-trip: profiles must come back bitwise identical through the state
serialisation, with the transient similarity memos dropped and rewarmed
exactly like the existing pickling (worker-shipping) path.
"""

import json
import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.incremental import (
    STATE_FORMAT_VERSION,
    DuplicateRecordError,
    IncrementalMatcher,
    MatchStateError,
    is_state_dir,
    read_manifest,
)
from repro.incremental.state import MANIFEST_FILE
from repro.matching.decisions import DecisionCache
from repro.matching.profiles import ProfileStore


#: A state saved in format v2 (golden pipeline, first 100 records ingested).
V2_FIXTURE = Path(__file__).parent / "fixtures" / "state_v2"


def _columnar_payload_bytes(store: ProfileStore) -> bytes:
    """The store's pickled columnar payload, bytes-for-bytes."""
    return pickle.dumps(store.__getstate__())


@pytest.fixture
def saved_state(golden_setup, pipeline_factory, tmp_path):
    companies, _ = golden_setup
    matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
    matcher.ingest(companies.records[:100])
    return matcher, matcher.save(tmp_path / "state")


class TestManifest:
    def test_round_trip_preserves_counters(self, saved_state):
        matcher, state_dir = saved_state
        assert is_state_dir(state_dir)
        manifest = read_manifest(state_dir)
        assert manifest["format_version"] == STATE_FORMAT_VERSION
        assert manifest["num_records"] == 100
        assert manifest["num_ingests"] == 1
        assert manifest["blocking_parts"] == ["id_overlap", "token_overlap"]
        assert manifest["matcher_type"] == "LogisticRegressionMatcher"

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        empty = tmp_path / "not-a-state"
        empty.mkdir()
        assert not is_state_dir(empty)
        with pytest.raises(MatchStateError, match="missing manifest.json"):
            read_manifest(empty)
        with pytest.raises(MatchStateError, match="missing manifest.json"):
            IncrementalMatcher.load(empty)

    def test_future_format_version_is_rejected(self, saved_state):
        _, state_dir = saved_state
        manifest_path = state_dir / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = STATE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(MatchStateError, match="format version"):
            IncrementalMatcher.load(state_dir)

    def test_foreign_manifest_is_rejected(self, saved_state):
        _, state_dir = saved_state
        (state_dir / MANIFEST_FILE).write_text('{"format": "something-else"}')
        with pytest.raises(MatchStateError, match="not a repro-match-state"):
            IncrementalMatcher.load(state_dir)

    def test_corrupt_manifest_is_rejected(self, saved_state):
        _, state_dir = saved_state
        (state_dir / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(MatchStateError, match="corrupt manifest"):
            IncrementalMatcher.load(state_dir)

    def test_missing_payload_is_a_clear_error(self, saved_state):
        _, state_dir = saved_state
        (state_dir / "rev1" / "matching_state.pkl").unlink()
        with pytest.raises(MatchStateError, match="missing matching_state.pkl"):
            IncrementalMatcher.load(state_dir)

    def test_missing_payload_dir_is_a_clear_error(self, saved_state):
        _, state_dir = saved_state
        shutil.rmtree(state_dir / "rev1")
        with pytest.raises(MatchStateError, match="missing payload directory"):
            IncrementalMatcher.load(state_dir)


class TestApiIngestPersistence:
    def test_ingest_without_state_dir_raises_instead_of_dropping_save(
        self, golden_setup, pipeline_factory
    ):
        from repro.api import ingest

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        with pytest.raises(ValueError, match="save=False"):
            ingest(matcher, companies.records[:5])
        # Deliberate in-memory use works, and nothing was half-ingested.
        report = ingest(matcher, companies.records[:5], save=False)
        assert report.num_new_records == 5

    def test_save_leaves_no_temp_files(self, saved_state):
        _, state_dir = saved_state
        assert not list(state_dir.glob("*.tmp"))

    def test_repeated_saves_keep_exactly_one_payload_dir(
        self, golden_setup, saved_state
    ):
        companies, _ = golden_setup
        matcher, state_dir = saved_state
        matcher.ingest(companies.records[100:110])
        matcher.save(state_dir)
        rev_dirs = [p for p in state_dir.glob("rev*") if p.is_dir()]
        assert len(rev_dirs) == 1


class TestCrashResilience:
    def test_interrupted_save_leaves_previous_state_loadable(
        self, golden_setup, saved_state, monkeypatch
    ):
        # Simulate a crash *after* the new payload directory is fully
        # written but *before* the manifest commit: the manifest rename is
        # the transaction's commit point, so loading must yield the
        # previous state, intact.
        from pathlib import Path

        companies, _ = golden_setup
        matcher, state_dir = saved_state
        committed_manifest = (state_dir / "manifest.json").read_bytes()

        matcher.ingest(companies.records[100:120])

        def crash(self, target):
            raise OSError("simulated crash before manifest commit")

        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            matcher.save(state_dir)
        monkeypatch.undo()

        assert (state_dir / "manifest.json").read_bytes() == committed_manifest
        recovered = IncrementalMatcher.load(state_dir)
        assert len(recovered.state.records) == 100
        assert recovered.state.num_ingests == 1
        # The recovered state ingests onward normally (and sweeps the
        # uncommitted payload directory on its next save).
        recovered.ingest(companies.records[100:])
        recovered.save(state_dir)
        rev_dirs = [p for p in state_dir.glob("rev*") if p.is_dir()]
        assert len(rev_dirs) == 1
        assert len(IncrementalMatcher.load(state_dir).state.records) == len(
            companies.records
        )

    def test_failed_ingest_poisons_the_matcher(
        self, golden_setup, pipeline_factory, monkeypatch
    ):
        import repro.incremental.matcher as incremental_matcher

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(companies.records[:50])

        def boom(*args, **kwargs):
            raise RuntimeError("worker pool died")

        monkeypatch.setattr(
            incremental_matcher.PipelineRuntime, "run_blocking_delta", boom
        )
        with pytest.raises(RuntimeError, match="worker pool died"):
            matcher.ingest(companies.records[50:60])
        monkeypatch.undo()

        # The half-mutated state refuses further use with a clear pointer.
        with pytest.raises(RuntimeError, match="reload the last saved state"):
            matcher.ingest(companies.records[60:70])
        with pytest.raises(RuntimeError, match="reload the last saved state"):
            matcher.save("/tmp/should-not-be-written")

    def test_validation_failure_does_not_poison(
        self, golden_setup, pipeline_factory
    ):
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(companies.records[:50])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([companies.records[0]])
        report = matcher.ingest(companies.records[50:60])
        assert report.num_new_records == 10

    def test_duplicate_ids_are_a_duplicate_record_error(
        self, golden_setup, pipeline_factory
    ):
        # The CLI turns this input error into a one-line exit; it must not
        # be a bare ValueError, which the CLI lets through as a bug.
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        with pytest.raises(DuplicateRecordError):
            matcher.ingest([companies.records[0], companies.records[0]])

    def test_save_fsyncs_payloads_before_the_manifest_commit(
        self, golden_setup, saved_state, monkeypatch
    ):
        companies, _ = golden_setup
        matcher, state_dir = saved_state
        matcher.ingest(companies.records[100:110])
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(descriptor):
            stat = os.fstat(descriptor)
            events.append(("fsync", (stat.st_dev, stat.st_ino)))
            real_fsync(descriptor)

        def replace(source, target, **kwargs):
            events.append(("replace", os.path.basename(target)))
            real_replace(source, target, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        matcher.save(state_dir)
        monkeypatch.undo()

        def synced(path):
            stat = path.stat()
            return ("fsync", (stat.st_dev, stat.st_ino))

        commit = events.index(("replace", MANIFEST_FILE))
        (payload_dir,) = [path for path in state_dir.glob("rev*") if path.is_dir()]
        payload_files = list(payload_dir.iterdir())
        assert payload_files
        before_commit = set(events[:commit])
        assert {synced(path) for path in payload_files} <= before_commit
        assert synced(payload_dir) in before_commit
        # The manifest's inode is the renamed temp file's.
        assert synced(state_dir / MANIFEST_FILE) in before_commit
        assert events[commit + 1:] == [synced(state_dir)]


class TestFormatMigration:
    def _downgrade_to_v1(self, state_dir):
        """Rewrite a saved v2 state as the v1 dict-of-decisions format."""
        manifest = json.loads((state_dir / MANIFEST_FILE).read_text())
        payload_path = (
            state_dir / manifest["payload_dir"] / "matching_state.pkl"
        )
        payload = pickle.loads(payload_path.read_bytes())
        assert isinstance(payload["decisions"], DecisionCache)
        payload["decisions"] = payload["decisions"].to_decisions()
        payload_path.write_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        manifest["format_version"] = 1
        (state_dir / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2))

    def test_v1_dict_decisions_migrate_on_load(self, saved_state):
        matcher, state_dir = saved_state
        self._downgrade_to_v1(state_dir)

        assert read_manifest(state_dir)["format_version"] == 1
        reloaded = IncrementalMatcher.load(state_dir)
        # The migrated cache is row-for-row the one the v2 save held:
        # dict insertion order was scoring order, which is row order.
        assert isinstance(reloaded.state.decisions, DecisionCache)
        assert reloaded.state.decisions == matcher.state.decisions
        assert reloaded.decisions() == matcher.decisions()
        assert reloaded.groups.groups == matcher.groups.groups

    def test_migrated_state_saves_as_v2_and_ingests_onward(
        self, golden_setup, pipeline_factory, batch_result, saved_state
    ):
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        matcher, state_dir = saved_state
        self._downgrade_to_v1(state_dir)

        reloaded = IncrementalMatcher.load(state_dir)
        reloaded.ingest(companies.records[100:])
        assert_equals_batch(reloaded, batch_result)

        # The next save writes the current format — the migration is one-way.
        reloaded.save(state_dir)
        manifest = read_manifest(state_dir)
        assert manifest["format_version"] == STATE_FORMAT_VERSION
        payload = pickle.loads(
            (state_dir / manifest["payload_dir"] / "matching_state.pkl").read_bytes()
        )
        assert isinstance(payload["decisions"], DecisionCache)

    def test_runtime_config_with_retired_knobs_loads_and_ingests(
        self, golden_setup, batch_result, saved_state
    ):
        # Every state saved before the matching-route and pool-mode knobs
        # were retired pickled them as RuntimeConfig attributes; such a state
        # loads (no format bump), drops them, and ingests onward to the batch
        # groups.
        from repro.runtime import RuntimeConfig
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        matcher, state_dir = saved_state
        manifest = read_manifest(state_dir)
        assert manifest["format_version"] == STATE_FORMAT_VERSION == 3
        components_path = state_dir / manifest["payload_dir"] / "components.pkl"
        components = pickle.loads(components_path.read_bytes())
        legacy = components["runtime_config"]
        object.__setattr__(legacy, "profile_cache", True)
        object.__setattr__(legacy, "columnar_dispatch", True)
        object.__setattr__(legacy, "warm_pool", False)
        components_path.write_bytes(
            pickle.dumps(components, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert b"columnar_dispatch" in components_path.read_bytes()
        assert b"warm_pool" in components_path.read_bytes()

        reloaded = IncrementalMatcher.load(state_dir)
        assert reloaded.state.runtime_config == matcher.state.runtime_config
        assert not hasattr(reloaded.state.runtime_config, "profile_cache")
        assert not hasattr(reloaded.state.runtime_config, "warm_pool")
        assert vars(reloaded.state.runtime_config) == vars(RuntimeConfig())
        reloaded.ingest(companies.records[100:])
        matcher.ingest(companies.records[100:])
        assert_equals_batch(reloaded, batch_result)
        assert reloaded.groups.groups == matcher.groups.groups

    def test_v2_fixture_loads_migrates_and_ingests_onward(
        self, golden_setup, batch_result, tmp_path
    ):
        # A state saved by the v2 format (dict-layout token index, no
        # margins): the golden pipeline after ingesting the first 100 records.
        from repro.blocking.token_overlap import TokenIndex
        from repro.datagen.records import Dataset
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        state_dir = tmp_path / "state_v2"
        shutil.copytree(V2_FIXTURE, state_dir)
        assert read_manifest(state_dir)["format_version"] == 2

        reloaded = IncrementalMatcher.load(state_dir)
        token_part = reloaded.state.parts()[1]
        migrated = reloaded.state.part_states[1]
        assert isinstance(migrated, TokenIndex)
        assert migrated.margins is None
        assert migrated == token_part.prepare(
            Dataset(companies.name, companies.records[:100])
        )

        # Its tokenised records count as dirty once, on the next delta.
        report = reloaded.ingest(companies.records[100:105])
        tokenised = sum(1 for count in migrated.token_counts() if count)
        assert report.records_rescored >= tokenised
        assert reloaded.state.part_states[1].margins is not None
        reloaded.ingest(companies.records[105:])
        assert_equals_batch(reloaded, batch_result)

        reloaded.save(state_dir)
        assert read_manifest(state_dir)["format_version"] == STATE_FORMAT_VERSION

    def test_cache_pickle_round_trip_rebuilds_the_index(self, saved_state):
        matcher, _ = saved_state
        cache = matcher.state.decisions
        repickled = pickle.loads(pickle.dumps(cache))
        assert repickled == cache
        assert len(repickled) == len(cache)
        keys = [c.key for c in matcher.candidates()]
        assert all(key in repickled for key in keys)
        assert repickled.vector(keys) == cache.vector(keys)


class TestProfileStoreRoundTrip:
    def test_profiles_survive_bitwise_and_memos_rewarm(self, saved_state):
        matcher, state_dir = saved_state
        store = matcher.state.profiles
        assert isinstance(store, ProfileStore)
        # Warm the in-memory similarity memos so the drop is observable.
        from repro.matching.features import PairFeatureExtractor

        extractor = PairFeatureExtractor()
        candidates = matcher.candidates()[:20]
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        direct = extractor.extract_batch_profiles(store, id_pairs)
        assert store.name_similarity_cache, "memo should be warm now"

        matcher.save(state_dir)
        reloaded = IncrementalMatcher.load(state_dir).state.profiles

        # Bitwise-identical columnar payload and identical materialised profiles.
        assert _columnar_payload_bytes(reloaded) == _columnar_payload_bytes(store)
        assert all(
            reloaded.get(record_id) == store.get(record_id)
            for record_id in store.record_ids
        )
        # Memos are dropped on serialisation (like the pickling path) ...
        assert reloaded.name_similarity_cache == {}
        assert reloaded.stripped_similarity_cache == {}
        # ... and rewarm to the same values, with identical feature output.
        # (The original cache is a superset: ingest itself warmed it.)
        rescored = extractor.extract_batch_profiles(reloaded, id_pairs)
        assert rescored.tobytes() == direct.tobytes()
        assert reloaded.name_similarity_cache
        assert reloaded.name_similarity_cache.items() <= store.name_similarity_cache.items()

    def test_columnar_payload_layout_is_unchanged(self, saved_state):
        # Saved states hold the store's pickled columns; the layout (format
        # marker + column keys) is part of the on-disk format.
        matcher, _ = saved_state
        payload = matcher.state.profiles.__getstate__()
        assert payload["format"] == "profile-store-columnar-v1"
        assert list(payload) == [
            "format", "record_ids", "strings", "kind_codes", "source_ids",
            "name_ids", "stripped_ids", "has_description", "attr_ids",
            "identifier_ids", "name_token_sets", "stripped_token_sets",
            "description_token_sets", "description_token_seqs", "isin_sets",
        ]

    def test_state_serialisation_matches_plain_pickling(self, saved_state):
        # The state path must behave exactly like pickling the store (the
        # worker-shipping path): same profiles, dropped memos.
        matcher, _ = saved_state
        store = matcher.state.profiles
        repickled = pickle.loads(pickle.dumps(store))
        assert _columnar_payload_bytes(repickled) == _columnar_payload_bytes(store)
        assert repickled.name_similarity_cache == {}

    def test_store_grows_across_reload_and_further_ingest(
        self, golden_setup, saved_state
    ):
        companies, _ = golden_setup
        _, state_dir = saved_state
        reloaded = IncrementalMatcher.load(state_dir)
        before = len(reloaded.state.profiles)
        reloaded.ingest(companies.records[100:])
        assert len(reloaded.state.profiles) >= before
