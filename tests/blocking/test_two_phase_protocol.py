"""The two-phase blocking protocol that incremental ingestion is built on.

Contract under test, exercised on the blockings directly: ``prepare`` the
shared state once over the whole dataset, run ``candidates_for`` over
consecutive record chunks in dataset order, concatenate and de-duplicate
once — the result must equal ``candidate_pairs(dataset)`` byte for byte
(same pairs, same order, same tags) at any chunking, down to one record per
chunk, which is what :meth:`~repro.blocking.base.Blocking.owned_candidates`
hands the incremental matcher.
"""

import pytest

from repro.blocking import (
    CombinedBlocking,
    IdOverlapBlocking,
    IssuerMatchBlocking,
    TokenOverlapBlocking,
)
from repro.blocking.base import Blocking, dedupe_pairs
from repro.datagen import GenerationConfig, generate_benchmark
from repro.runtime import PipelineRuntime, RuntimeConfig


@pytest.fixture(scope="module")
def golden_data():
    return generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )


@pytest.fixture(scope="module")
def combined_blocking():
    return CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])


#: The shardable blockings, each over the dataset kind it blocks.
CASES = ["id_overlap-companies", "token_overlap-companies",
         "id_overlap-securities", "issuer_match-securities"]


def protocol_case(golden_data, case):
    companies, securities = golden_data.companies, golden_data.securities
    return {
        "id_overlap-companies": (IdOverlapBlocking(), companies),
        "token_overlap-companies": (TokenOverlapBlocking(top_n=3), companies),
        "id_overlap-securities": (IdOverlapBlocking(), securities),
        "issuer_match-securities": (
            IssuerMatchBlocking.from_ground_truth(companies), securities
        ),
    }[case]


def consecutive_chunks(records, parts):
    """``records`` cut into at most ``parts`` consecutive, near-equal chunks."""
    size = -(-len(records) // parts)
    return [records[start:start + size] for start in range(0, len(records), size)]


def chunked_candidates(blocking, dataset, parts):
    """Phase 1 once, phase 2 per chunk, concatenated in chunk order (raw)."""
    shared = blocking.prepare(dataset)
    merged = []
    for chunk in consecutive_chunks(dataset.records, parts):
        merged.extend(blocking.candidates_for(shared, chunk))
    return merged


class TestShardableProtocol:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("parts", [2, 3, 7, 10_000])
    def test_chunk_concatenation_reproduces_serial(self, golden_data, case, parts):
        # 10_000 parts is more chunks than records: one record per chunk.
        blocking, dataset = protocol_case(golden_data, case)
        assert blocking.shardable
        merged = chunked_candidates(blocking, dataset, parts)
        assert dedupe_pairs(merged) == blocking.candidate_pairs(dataset)

    @pytest.mark.parametrize("case", CASES)
    def test_owned_candidates_are_the_per_record_chunks(self, golden_data, case):
        blocking, dataset = protocol_case(golden_data, case)
        shared = blocking.prepare(dataset)
        owned = blocking.owned_candidates(shared, dataset.records)
        assert len(owned) == len(dataset.records)
        for record, pairs in zip(dataset.records, owned):
            assert pairs == tuple(blocking.candidates_for(shared, (record,)))
        merged = [pair for pairs in owned for pair in pairs]
        assert dedupe_pairs(merged) == blocking.candidate_pairs(dataset)

    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_parts_major_merge_keeps_first_blocking_wins_tags(
        self, golden_data, combined_blocking, parts
    ):
        # The incremental matcher's merge: each part chunked on its own,
        # parts concatenated in declaration order, one global dedupe.
        companies = golden_data.companies
        merged = []
        for part in combined_blocking.partition():
            merged.extend(chunked_candidates(part, companies, parts))
        pairs = dedupe_pairs(merged)
        assert pairs == combined_blocking.candidate_pairs(companies)
        id_keys = {p.key for p in IdOverlapBlocking().candidate_pairs(companies)}
        assert any(pair.key in id_keys for pair in pairs)
        for pair in pairs:
            if pair.key in id_keys:
                assert pair.blocking == "id_overlap"

    def test_engine_runs_a_non_shardable_blocking_as_one_call(self, golden_data):
        calls = {"candidate_pairs": 0, "prepare": 0}

        class OpaqueBlocking(Blocking):
            name = "opaque"

            def candidate_pairs(self, dataset):
                calls["candidate_pairs"] += 1
                return IdOverlapBlocking().candidate_pairs(dataset)

            def prepare(self, dataset):  # pragma: no cover - must not run  # repro-lint: disable=protocol-conformance -- deliberately unshardable; prepare() exists to prove the engine never calls it
                calls["prepare"] += 1
                return super().prepare(dataset)

        serial = IdOverlapBlocking().candidate_pairs(golden_data.companies)
        with PipelineRuntime(RuntimeConfig(workers=2)) as runtime:
            assert runtime.run_blocking(OpaqueBlocking(), golden_data.companies) == serial
        assert calls == {"candidate_pairs": 1, "prepare": 0}

    def test_base_class_rejects_sharded_calls(self, golden_data):
        class Opaque(Blocking):
            def candidate_pairs(self, dataset):
                return []

        blocking = Opaque()
        assert not blocking.shardable
        with pytest.raises(NotImplementedError, match="record-sharded"):
            blocking.prepare(golden_data.companies)
        with pytest.raises(NotImplementedError, match="record-sharded"):
            blocking.candidates_for(None, golden_data.companies.records)

    def test_combined_blocking_is_not_directly_shardable(self, combined_blocking):
        # Chunking a combined blocking as a whole would interleave members;
        # incremental ingestion runs the protocol on its partition() parts.
        assert not combined_blocking.shardable
