"""The token-overlap array kernel and its delta certificates.

The CSR kernel must reproduce the scalar reference loop
(``reference_token_overlap.py``) bit for bit — a 1-ULP summation-order
difference or a tie broken by dataset order instead of record id would
change candidates.  Corpora are drawn from a tiny vocabulary so exact score
ties and tokens of equal document frequency (hence equal IDF weights) are
the norm, not the exception.

The delta property feeds each corpus through *sequential* deltas: a record
certified clean by one delta folds that delta's arrivals into its envelope,
and only a later delta can catch an envelope that went stale.
"""

import pickle

from hypothesis import given, settings, strategies as st

from reference_token_overlap import (
    reference_candidate_pairs,
    reference_candidates_for,
    reference_prepare,
)
from repro.blocking import TokenOverlapBlocking
from repro.blocking.base import dedupe_pairs
from repro.datagen.records import CompanyRecord, Dataset

VOCABULARY = ("acme", "alpha", "beta", "corp", "delta", "gamma", "labs", "nova")


@st.composite
def corpora(draw, max_records=40):
    """A dataset with shuffled record ids (id order ≠ dataset order) and
    names over a small vocabulary; some records are token-less."""
    size = draw(st.integers(min_value=1, max_value=max_records))
    ids = draw(st.permutations(range(size)))
    records = []
    for position in range(size):
        words = draw(st.lists(st.sampled_from(VOCABULARY), max_size=4))
        records.append(
            CompanyRecord(
                record_id=f"R{ids[position]:03d}",
                source=f"S{draw(st.integers(min_value=0, max_value=2))}",
                entity_id=f"E{position}",
                name=" ".join(words),
            )
        )
    return Dataset("kernel", records)


blockings = st.builds(
    TokenOverlapBlocking,
    top_n=st.integers(min_value=1, max_value=6),
    max_token_frequency=st.sampled_from([0.25, 0.5, 1.0]),
)


class TestKernelEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(dataset=corpora(), blocking=blockings, data=st.data())
    def test_chunks_and_full_stream_match_the_scalar_loop(
        self, dataset, blocking, data
    ):
        shared = blocking.prepare(dataset)
        reference = reference_prepare(blocking, dataset)
        records = dataset.records
        split = data.draw(st.integers(min_value=0, max_value=len(records)))
        for chunk in (records[:split], records[split:]):
            assert blocking.candidates_for(shared, chunk) == reference_candidates_for(
                blocking, reference, chunk
            )
        assert blocking.candidate_pairs(dataset) == reference_candidate_pairs(
            blocking, dataset
        )

    def test_boundary_ties_break_by_record_id_not_dataset_order(self):
        # Four candidates share exactly one equally weighted token with the
        # first record; with top_n=2 the two smallest ids must win even
        # though they come last in the dataset.
        names = ["acme nova", "acme", "acme", "nova", "nova"]
        ids = ["R0", "R9", "R8", "R2", "R1"]
        records = [
            CompanyRecord(record_id=record_id, source="S0" if i == 0 else "S1",
                          entity_id=f"E{i}", name=name)
            for i, (record_id, name) in enumerate(zip(ids, names))
        ]
        dataset = Dataset("ties", records)
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=1.0)
        pairs = blocking.candidates_for(blocking.prepare(dataset), records[:1])
        assert [pair.key for pair in pairs] == [("R0", "R1"), ("R0", "R2")]
        assert pairs == reference_candidates_for(
            blocking, reference_prepare(blocking, dataset), records[:1]
        )

    def test_owned_candidates_slice_the_chunk_stream(self):
        dataset = Dataset("owned", [
            CompanyRecord(record_id=f"R{i}", source=f"S{i % 3}", entity_id=f"E{i}",
                          name=" ".join(VOCABULARY[i % 5:i % 5 + 3]))
            for i in range(12)
        ])
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=1.0)
        shared = blocking.prepare(dataset)
        owned = blocking.owned_candidates(shared, dataset.records)
        assert [pair for pairs in owned for pair in pairs] == blocking.candidates_for(
            shared, dataset.records
        )
        for record, pairs in zip(dataset.records, owned):
            assert list(pairs) == blocking.candidates_for(shared, [record])


class TestSequentialDeltas:
    @settings(max_examples=120, deadline=None)
    @given(dataset=corpora(max_records=45), blocking=blockings, data=st.data())
    def test_certified_records_emit_unchanged_after_every_delta(
        self, dataset, blocking, data
    ):
        records = dataset.records
        start = data.draw(st.integers(min_value=0, max_value=len(records)))
        shared = blocking.prepare(Dataset("kernel", records[:start]))
        owned = {
            record.record_id: tuple(blocking.candidates_for(shared, [record]))
            for record in records[:start]
        }
        done = start
        while done < len(records):
            size = data.draw(st.integers(min_value=1, max_value=10))
            batch = records[done:done + size]
            done += len(batch)
            full = Dataset("kernel", records[:done])
            delta = blocking.delta_update(shared, full, batch)

            assert delta.shared == blocking.prepare(full)
            new_ids = {record.record_id for record in batch}
            assert not delta.dirty_record_ids & new_ids
            for record in records[:done]:
                emitted = tuple(blocking.candidates_for(delta.shared, [record]))
                if record.record_id in new_ids or record.record_id in delta.dirty_record_ids:
                    owned[record.record_id] = emitted
                else:
                    assert emitted == owned[record.record_id], record.record_id
            spliced = [pair for record in records[:done] for pair in owned[record.record_id]]
            assert dedupe_pairs(spliced) == blocking.candidate_pairs(full)
            # The certificates survive the state's pickling.
            shared = pickle.loads(pickle.dumps(delta.shared))


class TestIndexState:
    def _dataset(self):
        return Dataset("state", [
            CompanyRecord(record_id=f"R{i}", source=f"S{i % 2}", entity_id=f"E{i}",
                          name=" ".join(VOCABULARY[i % 6:i % 6 + 2]))
            for i in range(16)
        ])

    def test_margins_pickle_but_stay_out_of_equality(self):
        dataset = self._dataset()
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=0.5)
        shared = blocking.prepare(Dataset("state", dataset.records[:10]))
        shared = blocking.delta_update(shared, dataset, dataset.records[10:]).shared
        assert shared.margins is not None
        assert blocking.prepare(dataset).margins is None
        assert shared == blocking.prepare(dataset)

        restored = pickle.loads(pickle.dumps(shared))
        assert restored == shared
        for name in ("certified", "kept", "envelope", "basis"):
            assert (getattr(restored.margins, name) == getattr(shared.margins, name)).all()

    def test_dict_layout_pickles_convert_on_load(self, monkeypatch):
        # States saved before the CSR layout pickled the dict-based index
        # (its instance dict) under this class name; unpickling converts it
        # to the index prepare builds, without margins.
        from repro.blocking.token_overlap import TokenIndex

        dataset = self._dataset()
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=0.5)
        reference = reference_prepare(blocking, dataset)
        legacy = object.__new__(TokenIndex)
        legacy.__dict__.update(vars(reference))
        with monkeypatch.context() as patch:
            patch.setattr(TokenIndex, "__getstate__", lambda self: dict(self.__dict__))
            payload = pickle.dumps(legacy)
        restored = pickle.loads(payload)
        assert restored == blocking.prepare(dataset)
        assert restored.margins is None
        assert blocking.candidates_for(restored, dataset.records) == (
            reference_candidates_for(blocking, reference, dataset.records)
        )

    def test_postings_visited_counts_the_gathered_entries(self):
        dataset = self._dataset()
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=1.0)
        shared = blocking.prepare(dataset)
        record = dataset.records[0]
        expected = 0
        for token in blocking._tokens(record):
            token_id = shared.tokens.index(token)
            expected += shared.postings_ptr[token_id + 1] - shared.postings_ptr[token_id]
        assert blocking.postings_visited(shared, [record]) == expected
