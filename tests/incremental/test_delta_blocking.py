"""The blocking delta protocol, tested at the blocking level.

For every delta-capable blocking and a sweep of split points, the contract
of :meth:`Blocking.delta_update`:

1. the updated shared state equals ``prepare`` over the full dataset, and
2. records *not* reported dirty emit exactly the same candidates under the
   new state (dirtiness may be conservative, never optimistic) — so
   rescoring dirty + new records and splicing reproduces the full stream.
"""

import pytest

from repro.blocking import (
    IdOverlapBlocking,
    IssuerMatchBlocking,
    TokenOverlapBlocking,
)
from repro.blocking.base import dedupe_pairs
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.records import Dataset

SPLITS = [1, 7, 86, 100, 171]


@pytest.fixture(scope="module")
def golden_benchmark():
    return generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )


def blocking_cases(golden_benchmark):
    return [
        (TokenOverlapBlocking(top_n=3), golden_benchmark.companies),
        (IdOverlapBlocking(), golden_benchmark.companies),
        (IdOverlapBlocking(), golden_benchmark.securities),
        (
            IssuerMatchBlocking.from_ground_truth(golden_benchmark.companies),
            golden_benchmark.securities,
        ),
    ]


def run_delta(blocking, dataset, split):
    records = dataset.records
    old_dataset = Dataset(dataset.name, records[:split])
    full_dataset = Dataset(dataset.name, records)
    shared_old = blocking.prepare(old_dataset)
    delta = blocking.delta_update(shared_old, full_dataset, records[split:])
    return records, shared_old, delta


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("case", range(4))
class TestDeltaContract:
    def test_updated_state_equals_full_prepare(self, golden_benchmark, case, split):
        blocking, dataset = blocking_cases(golden_benchmark)[case]
        _, _, delta = run_delta(blocking, dataset, split)
        assert delta.shared == blocking.prepare(dataset)

    def test_non_dirty_records_emit_unchanged(self, golden_benchmark, case, split):
        blocking, dataset = blocking_cases(golden_benchmark)[case]
        records, shared_old, delta = run_delta(blocking, dataset, split)
        assert not delta.dirty_record_ids & {
            record.record_id for record in records[split:]
        }, "new records must never be reported dirty"
        for record in records[:split]:
            if record.record_id in delta.dirty_record_ids:
                continue
            assert blocking.candidates_for(
                delta.shared, [record]
            ) == blocking.candidates_for(shared_old, [record])

    def test_splicing_reproduces_the_full_stream(self, golden_benchmark, case, split):
        blocking, dataset = blocking_cases(golden_benchmark)[case]
        records, shared_old, delta = run_delta(blocking, dataset, split)
        rescore = set(delta.dirty_record_ids) | {
            record.record_id for record in records[split:]
        }
        spliced = []
        for record in records:
            shared = delta.shared if record.record_id in rescore else shared_old
            spliced.extend(blocking.candidates_for(shared, [record]))
        assert dedupe_pairs(spliced) == blocking.candidate_pairs(dataset)


class TestDirtySelectivity:
    """Deltas dirty few records: the identifier- and issuer-based blockings
    stay truly local, token overlap certifies the records it cannot move."""

    def test_id_overlap_dirties_only_value_owners(self, golden_benchmark):
        blocking = IdOverlapBlocking()
        dataset = golden_benchmark.companies
        _, _, delta = run_delta(blocking, dataset, len(dataset.records) - 5)
        # Far fewer dirty records than the corpus: only first carriers of
        # identifier values the last five records touch.
        assert len(delta.dirty_record_ids) < len(dataset.records) // 4

    def test_token_overlap_dirties_few_records(self, golden_benchmark):
        # The first delta on a prepared index has no margin certificates yet
        # and dirties every tokenised record once; it computes them, and the
        # next 5-record delta dirties only records whose top-n can change.
        blocking = TokenOverlapBlocking(top_n=3)
        dataset = golden_benchmark.companies
        records = dataset.records
        shared = blocking.prepare(Dataset(dataset.name, records[:-10]))
        first = blocking.delta_update(
            shared, Dataset(dataset.name, records[:-5]), records[-10:-5]
        )
        delta = blocking.delta_update(first.shared, dataset, records[-5:])
        assert len(delta.dirty_record_ids) < len(records) // 4
        assert delta.shared == blocking.prepare(dataset)

    def test_token_overlap_dirties_nothing_for_tokenless_records(self, golden_benchmark):
        from repro.datagen.records import CompanyRecord

        blocking = TokenOverlapBlocking(top_n=3)
        dataset = golden_benchmark.companies
        tokenless = CompanyRecord(
            record_id="SYN-EMPTY-S1", source="S1", entity_id="E-EMPTY", name=""
        )
        full = Dataset(dataset.name, [*dataset.records, tokenless])
        shared = blocking.prepare(dataset)
        delta = blocking.delta_update(shared, full, [tokenless])
        assert delta.dirty_record_ids == frozenset()
        assert delta.shared == blocking.prepare(full)

    def test_issuer_match_dirties_only_group_owners(self, golden_benchmark):
        blocking = IssuerMatchBlocking.from_ground_truth(golden_benchmark.companies)
        dataset = golden_benchmark.securities
        _, _, delta = run_delta(blocking, dataset, len(dataset.records) - 5)
        assert len(delta.dirty_record_ids) <= 5
