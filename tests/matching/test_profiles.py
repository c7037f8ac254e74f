"""Per-record feature profiles: equivalence with direct pairwise extraction.

The profile subsystem's contract is that scoring pairs from the columnar
:class:`~repro.matching.profiles.ProfileStore` is **byte identical** to
re-deriving everything from the records, for every record shape the
extractor supports.  The oracle is the historical pairwise-recompute
extractor (``reference_features.py``); hypothesis drives randomised
company / security / product records (including missing attributes,
token-less names and mixed-kind pairs) through both production entry
points — ``extract_batch`` on record pairs and ``extract_batch_profiles``
on a prepared store — against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_features import reference_extract, reference_features

from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, ProductRecord, SecurityRecord
from repro.matching.features import PairFeatureExtractor
from repro.matching.profiles import (
    KIND_COMPANY,
    KIND_OTHER,
    KIND_SECURITY,
    ProfileStore,
    build_profile,
)
from repro.text.normalize import normalize_identifier


# -- record strategies --------------------------------------------------------

# Deliberately nasty text: unicode accents, punctuation-only names that
# normalise to "", corporate-term-only names, whitespace runs.
text_value = st.text(
    alphabet="abcXYZ üé.&-!'  corpinc",
    max_size=24,
)
optional_text = st.one_of(st.none(), st.just(""), text_value)
identifier_value = st.one_of(
    st.none(), st.just(""), st.sampled_from(["US0378331005", "ch-0038863350", "a b1"])
)

_counter = iter(range(10**9))


def _next_id() -> str:
    return f"r{next(_counter)}"


company_records = st.builds(
    lambda source, name, city, region, country, description, industry, isins: CompanyRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        name=name,
        city=city,
        region=region,
        country_code=country,
        description=description,
        industry=industry,
        security_isins=tuple(isins),
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    optional_text,
    optional_text,
    optional_text,
    optional_text,
    st.lists(identifier_value.filter(lambda v: v is not None), max_size=3),
)

security_records = st.builds(
    lambda source, name, sec_type, isin, cusip, sedol, valor, ticker: SecurityRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        name=name,
        security_type=sec_type or "",
        isin=isin,
        cusip=cusip,
        sedol=sedol,
        valor=valor,
        ticker=ticker,
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    identifier_value,
    identifier_value,
    identifier_value,
    identifier_value,
    optional_text,
)

product_records = st.builds(
    lambda source, title, brand, description: ProductRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        title=title,
        brand=brand,
        description=description,
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    optional_text,
)

any_record = st.one_of(company_records, security_records, product_records)


# -- the equivalence property -------------------------------------------------


class TestProfileEquivalence:
    extractor = PairFeatureExtractor()

    @given(any_record, any_record)
    @settings(max_examples=300, deadline=None)
    def test_profiled_extraction_equals_reference(self, left, right):
        expected = reference_extract(left, right)
        via_batch = self.extractor.extract_batch([(left, right)])[0]
        store = ProfileStore.prepare([left, right])
        via_store = self.extractor.extract_batch_profiles(
            store, [(left.record_id, right.record_id)]
        )[0]
        # Bitwise equality, not approx: profiles precompute, they never
        # change a single float.
        assert np.array_equal(expected, via_batch)
        assert np.array_equal(expected, via_store)

    @given(st.lists(st.tuples(any_record, any_record), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_extract_batch_equals_per_pair_reference(self, pairs):
        batch = self.extractor.extract_batch(pairs)
        assert batch.shape == (len(pairs), self.extractor.num_features)
        assert batch.dtype == np.float64
        assert batch.tobytes() == reference_features(pairs).tobytes()


class TestColumnarBatchEquivalence:
    """Both columnar entry points against the per-pair oracle.

    ``extract_batch_profiles`` and ``extract_batch`` must be byte for byte
    the matrix :func:`reference_features` produces — over randomized record
    mixes, duplicated pairs and records repeated across pairs (the
    memo/dedup path), repeated extraction (warm caches), and a pickled
    clone of the store (the worker-shipping path, which drops the memos).
    """

    extractor = PairFeatureExtractor()

    @given(st.lists(any_record, min_size=1, max_size=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_columnar_equals_reference_warm_and_pickled(self, records, data):
        import pickle

        store = ProfileStore.prepare(records)
        index_pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(records) - 1),
                    st.integers(0, len(records) - 1),
                ),
                max_size=12,
            )
        )
        index_pairs += index_pairs[:3]  # duplicates exercise the dedup/memo path
        record_pairs = [(records[i], records[j]) for i, j in index_pairs]
        id_pairs = [(left.record_id, right.record_id) for left, right in record_pairs]

        reference = reference_features(record_pairs).tobytes()
        cold = self.extractor.extract_batch_profiles(store, id_pairs)
        warm = self.extractor.extract_batch_profiles(store, id_pairs)
        assert cold.tobytes() == reference
        assert warm.tobytes() == reference
        assert self.extractor.extract_batch(record_pairs).tobytes() == reference

        clone = pickle.loads(pickle.dumps(store))
        assert clone.name_similarity_cache == {}  # memos are transient
        rescored = self.extractor.extract_batch_profiles(clone, id_pairs)
        assert rescored.tobytes() == reference

    def test_empty_pair_list(self):
        store = ProfileStore.prepare(
            [CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme")]
        )
        matrix = self.extractor.extract_batch_profiles(store, [])
        assert matrix.shape == (0, self.extractor.num_features)
        assert matrix.dtype == np.float64
        assert self.extractor.extract_batch([]).shape == matrix.shape

    def test_empty_store_roundtrip(self):
        import pickle

        store = ProfileStore.prepare([])
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == 0
        assert self.extractor.extract_batch_profiles(clone, []).shape == (
            0,
            self.extractor.num_features,
        )


class TestProfileEdgeCases:
    extractor = PairFeatureExtractor()

    def test_token_less_name_profiles_cleanly(self):
        record = CompanyRecord(record_id="a", source="S1", entity_id="e", name="!!! ...")
        profile = build_profile(record)
        assert profile.name_norm == ""
        assert profile.name_tokens == ()
        assert profile.stripped_name == ""
        assert profile.name_token_set == frozenset()

    def test_corporate_terms_only_name_keeps_normalised_form(self):
        record = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Holdings Inc")
        profile = build_profile(record)
        # strip_corporate_terms falls back to the full normalised name.
        assert profile.stripped_name == "holdings inc"

    def test_kinds(self):
        company = CompanyRecord(record_id="c", source="S1", entity_id="e", name="Acme")
        security = SecurityRecord(record_id="s", source="S1", entity_id="e", name="Acme stock")
        product = ProductRecord(record_id="p", source="S1", entity_id="e", title="Acme gadget")
        assert build_profile(company).kind == KIND_COMPANY
        assert build_profile(security).kind == KIND_SECURITY
        assert build_profile(product).kind == KIND_OTHER

    def test_mixed_kind_pair_has_neutral_identifier_features(self):
        company = CompanyRecord(
            record_id="c", source="S1", entity_id="e", name="Acme",
            security_isins=("US0378331005",),
        )
        security = SecurityRecord(
            record_id="s", source="S2", entity_id="e", name="Acme stock",
            isin="US0378331005",
        )
        vector = self.extractor.extract_batch([(company, security)])[0]
        names = self.extractor.feature_names()
        assert vector[names.index("identifier_overlap_count")] == 0.0
        assert vector[names.index("identifier_conflict_count")] == 0.0
        assert vector[names.index("isin_overlap")] == 0.0
        assert np.array_equal(vector, reference_extract(company, security))

    def test_security_identifiers_follow_field_order(self):
        record = SecurityRecord(
            record_id="s", source="S1", entity_id="e", name="Acme stock",
            isin="us-037", cusip=None, sedol="b1 23", valor="",
        )
        profile = build_profile(record)
        expected = tuple(
            normalize_identifier(getattr(record, field)) for field in SECURITY_ID_FIELDS
        )
        assert profile.security_identifiers == expected

    def test_product_records_use_title(self):
        record = ProductRecord(record_id="p", source="S1", entity_id="e",
                               title="Wireless Mouse 2000")
        profile = build_profile(record)
        assert profile.name_norm == "wireless mouse 2000"


class TestProfileStore:
    def test_prepare_profiles_every_record_once(self):
        records = [
            CompanyRecord(record_id=f"r{i}", source="S1", entity_id="e", name=f"Acme {i}")
            for i in range(5)
        ]
        store = ProfileStore.prepare(records)
        assert len(store) == 5
        assert all(record.record_id in store for record in records)
        assert store.get("r3").name_norm == "acme 3"

    def test_missing_record_raises(self):
        store = ProfileStore.prepare([])
        with pytest.raises(KeyError):
            store.get("nope")

    def test_store_is_picklable(self):
        import pickle

        records = [
            SecurityRecord(record_id="s1", source="S1", entity_id="e",
                           name="Acme stock", isin="US0378331005"),
            CompanyRecord(record_id="c1", source="S2", entity_id="e",
                          name="Acme Corp", security_isins=("US0378331005",)),
        ]
        store = ProfileStore.prepare(records)
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store)
        assert clone.get("s1") == store.get("s1")
        assert clone.get("c1") == store.get("c1")
