"""Tests for the feature extractor and the logistic-regression matcher."""

import numpy as np
import pytest
from reference_features import reference_features

from repro.datagen.records import CompanyRecord, SecurityRecord
from repro.matching import EmptyTrainingSetError
from repro.matching.features import EXTRACTION_BLOCK, PairFeatureExtractor
from repro.matching.logistic import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


def company(record_id, name, source="S1", entity="e", **kwargs):
    return CompanyRecord(
        record_id=record_id, source=source, entity_id=entity, name=name, **kwargs
    )


class TestFeatureExtractor:
    extractor = PairFeatureExtractor()

    def features(self, left, right):
        """The feature vector of one pair, through the batched entry point."""
        return self.extractor.extract_batch([(left, right)])[0]

    def test_vector_length_matches_names(self):
        vector = self.features(company("a", "Acme"), company("b", "Acme"))
        assert vector.shape == (self.extractor.num_features,)
        assert len(self.extractor.feature_names()) == self.extractor.num_features

    def test_identical_names_score_high(self):
        same = self.features(company("a", "Acme Corp"), company("b", "Acme Corp"))
        different = self.features(company("a", "Acme Corp"), company("b", "Zenith Bank"))
        names = self.extractor.feature_names()
        jw = names.index("name_jaro_winkler")
        assert same[jw] > different[jw]

    def test_identifier_overlap_feature_for_securities(self):
        left = SecurityRecord(record_id="s1", source="S1", entity_id="e",
                              name="Acme stock", isin="US0378331005")
        right = SecurityRecord(record_id="s2", source="S2", entity_id="e",
                               name="Acme shares", isin="US0378331005")
        other = SecurityRecord(record_id="s3", source="S3", entity_id="f",
                               name="Zen stock", isin="CH0038863350")
        names = self.extractor.feature_names()
        overlap_index = names.index("identifier_overlap_count")
        assert self.features(left, right)[overlap_index] == 1.0
        assert self.features(left, other)[overlap_index] == 0.0

    def test_company_isin_overlap_feature(self):
        left = company("a", "Acme", security_isins=("US0378331005",))
        right = company("b", "Acme Inc", security_isins=("US0378331005", "CH0038863350"))
        names = self.extractor.feature_names()
        isin_index = names.index("isin_overlap")
        assert self.features(left, right)[isin_index] == 1.0

    def test_missing_attributes_are_neutral(self):
        left = company("a", "Acme", city=None)
        right = company("b", "Acme", city="Zurich")
        names = self.extractor.feature_names()
        city_index = names.index("city_match")
        assert self.features(left, right)[city_index] == 0.5

    def test_batch_shape(self):
        pairs = [(company("a", "Acme"), company("b", "Acme"))] * 3
        matrix = self.extractor.extract_batch(pairs)
        assert matrix.shape == (3, self.extractor.num_features)

    def test_empty_batch(self):
        assert self.extractor.extract_batch([]).shape == (0, self.extractor.num_features)

    def test_records_repeated_across_pairs_share_one_profile(self):
        acme, acme_inc, zenith = (
            company("a", "Acme"), company("b", "Acme Inc"), company("c", "Zenith")
        )
        pairs = [(acme, acme_inc), (acme, zenith), (zenith, acme_inc), (acme, acme)]
        matrix = self.extractor.extract_batch(pairs)
        assert matrix.tobytes() == reference_features(pairs).tobytes()
        # An equal copy of a record is the same record to the store.
        copy = company("a", "Acme")
        assert self.extractor.extract_batch([(copy, zenith), (acme, zenith)]).tobytes() == (
            reference_features([(acme, zenith), (acme, zenith)]).tobytes()
        )

    def test_two_different_records_with_one_id_are_rejected(self):
        # The store keys records by id: scoring one in place of the other
        # would silently give the wrong features, so extraction refuses.
        first, imposter = company("dup", "Acme"), company("dup", "Zenith")
        with pytest.raises(ValueError, match="'dup'"):
            self.extractor.extract_batch([(first, company("b", "Acme Inc")),
                                          (imposter, first)])

    def test_values_are_finite(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)[:50]
        record_pairs, _ = as_record_pairs(pairs)
        matrix = self.extractor.extract_batch(record_pairs)
        assert np.isfinite(matrix).all()


class TestLogisticRegressionMatcher:
    def test_validation_of_hyperparameters(self):
        with pytest.raises(ValueError):
            LogisticRegressionMatcher(learning_rate=0)
        with pytest.raises(ValueError):
            LogisticRegressionMatcher(num_iterations=0)
        with pytest.raises(ValueError):
            LogisticRegressionMatcher(l2=-1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionMatcher().predict_proba([])
        with pytest.raises(RuntimeError):
            LogisticRegressionMatcher().feature_importances()

    def test_fit_requires_data(self):
        with pytest.raises(EmptyTrainingSetError):
            LogisticRegressionMatcher().fit([], [])

    def test_fit_rejects_bad_labels(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)[:10]
        record_pairs, _ = as_record_pairs(pairs)
        with pytest.raises(ValueError):
            LogisticRegressionMatcher().fit(record_pairs, [2] * 10)

    def test_learns_company_matching(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        matcher = LogisticRegressionMatcher(num_iterations=200).fit(
            record_pairs[:split], labels[:split]
        )
        predictions = matcher.predict(record_pairs[split:])
        accuracy = np.mean(
            [pred == bool(label) for pred, label in zip(predictions, labels[split:])]
        )
        assert accuracy > 0.85

    def test_probabilities_in_unit_interval(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=1)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=100).fit(record_pairs, labels)
        probabilities = matcher.predict_proba(record_pairs[:40])
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    def test_history_recorded_with_validation(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=2)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        matcher = LogisticRegressionMatcher(num_iterations=50)
        matcher.fit(
            record_pairs[:split], labels[:split],
            validation_pairs=record_pairs[split:], validation_labels=labels[split:],
        )
        assert len(matcher.history.train_loss) == 50
        assert len(matcher.history.validation_loss) == 50
        assert matcher.history.train_loss[-1] < matcher.history.train_loss[0]

    def test_feature_importances_named(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=3)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=50).fit(record_pairs, labels)
        importances = matcher.feature_importances()
        assert set(importances) == set(PairFeatureExtractor().feature_names())

    def test_decide_and_score_pairs_interface(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=4)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=50).fit(record_pairs, labels)
        decisions = matcher.decide(record_pairs[:5])
        scored = matcher.score_pairs(record_pairs[:5])
        assert len(decisions) == len(scored) == 5
        for decision, score in zip(decisions, scored):
            assert decision.pair == score.pair
            assert decision.is_match == (decision.probability >= matcher.threshold)

    def test_fit_equals_fit_on_reference_features_bitwise(self, companies):
        # Training goes through the columnar store; a fit on the per-pair
        # oracle's features must land on the very same floats.
        class ReferenceExtractor(PairFeatureExtractor):
            def extract_batch(self, pairs):
                return reference_features(pairs)

        pairs = build_labeled_pairs(companies, negative_ratio=5, seed=6)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        assert split > EXTRACTION_BLOCK  # training extraction runs in blocks

        def fit(extractor):
            return LogisticRegressionMatcher(num_iterations=60, extractor=extractor).fit(
                record_pairs[:split], labels[:split],
                validation_pairs=record_pairs[split:], validation_labels=labels[split:],
            )

        columnar = fit(PairFeatureExtractor())
        reference = fit(ReferenceExtractor())
        assert columnar._weights.tobytes() == reference._weights.tobytes()
        assert columnar._bias == reference._bias
        assert columnar._feature_means.tobytes() == reference._feature_means.tobytes()
        assert columnar._feature_scales.tobytes() == reference._feature_scales.tobytes()
        assert columnar.history == reference.history
        assert columnar.predict_proba(record_pairs) == reference.predict_proba(record_pairs)

    def test_empty_prediction(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=5)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=20).fit(record_pairs, labels)
        assert matcher.predict_proba([]) == []
