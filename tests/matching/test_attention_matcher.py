"""Tests for the Transformer-style pair classifier."""

import numpy as np
import pytest
from reference_features import reference_features

from repro.matching import EmptyTrainingSetError
from repro.matching.attention import TransformerPairClassifier, batch_width
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.text.serialize import DittoSerializer, PlainSerializer


def small_model(**overrides):
    defaults = dict(
        attributes=["name", "city", "country_code", "description"],
        max_tokens=48,
        embedding_dim=16,
        hidden_dim=32,
        num_blocks=1,
        num_epochs=3,
        batch_size=16,
        vocab_size=2000,
        seed=0,
    )
    defaults.update(overrides)
    return TransformerPairClassifier(**defaults)


class TestConstruction:
    def test_requires_serializer_or_attributes(self):
        with pytest.raises(ValueError):
            TransformerPairClassifier()

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            small_model(num_epochs=0)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            small_model(batch_size=0)

    def test_serializer_overrides_attributes(self):
        serializer = DittoSerializer(["name"], max_tokens=64)
        model = TransformerPairClassifier(serializer=serializer)
        assert model.max_tokens == 64
        assert isinstance(model.serializer, DittoSerializer)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            small_model().predict_proba([])


class TestTraining:
    def test_fit_requires_data(self):
        with pytest.raises(EmptyTrainingSetError):
            small_model().fit([], [])

    def test_fit_rejects_length_mismatch(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)[:10]
        record_pairs, labels = as_record_pairs(pairs)
        with pytest.raises(ValueError):
            small_model().fit(record_pairs, labels[:-1])

    def test_learns_company_matching(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=0)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        model = small_model(num_epochs=4)
        model.fit(record_pairs[:split], labels[:split])
        predictions = model.predict(record_pairs[split:])
        accuracy = np.mean(
            [pred == bool(label) for pred, label in zip(predictions, labels[split:])]
        )
        # A tiny transformer on limited data: it must clearly beat the
        # majority-class baseline (2:1 negatives -> 0.67).
        assert accuracy > 0.8

    def test_history_and_best_epoch(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=1)[:200]
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        model = small_model(num_epochs=3)
        model.fit(
            record_pairs[:split], labels[:split],
            validation_pairs=record_pairs[split:], validation_labels=labels[split:],
        )
        assert len(model.history.train_loss) == 3
        assert len(model.history.validation_loss) == 3
        assert 0 <= model.history.best_epoch < 3
        assert model.history.training_seconds > 0

    def test_training_loss_decreases(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=2)[:300]
        record_pairs, labels = as_record_pairs(pairs)
        model = small_model(num_epochs=4)
        model.fit(record_pairs, labels)
        assert model.history.train_loss[-1] < model.history.train_loss[0]

    def test_probabilities_in_unit_interval(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=3)[:150]
        record_pairs, labels = as_record_pairs(pairs)
        model = small_model(num_epochs=2)
        model.fit(record_pairs, labels)
        probabilities = model.predict_proba(record_pairs[:30])
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    def test_deterministic_given_seed(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=4)[:120]
        record_pairs, labels = as_record_pairs(pairs)
        first = small_model(num_epochs=2).fit(record_pairs, labels)
        second = small_model(num_epochs=2).fit(record_pairs, labels)
        assert np.allclose(
            first.predict_proba(record_pairs[:20]),
            second.predict_proba(record_pairs[:20]),
        )

    def test_empty_prediction_after_fit(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=5)[:60]
        record_pairs, labels = as_record_pairs(pairs)
        model = small_model(num_epochs=1).fit(record_pairs, labels)
        assert model.predict_proba([]) == []

    def test_feature_head_matches_the_per_pair_oracle(self, companies):
        # The similarity-feature head shares the one columnar extraction
        # with the logistic matcher: before scaling it is the oracle matrix.
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=7)[:90]
        record_pairs, _ = as_record_pairs(pairs)
        aux = small_model()._aux_features(record_pairs)
        assert aux.tobytes() == reference_features(record_pairs).tobytes()
        assert small_model(use_similarity_features=False)._aux_features(
            record_pairs
        ).shape == (len(record_pairs), 0)

    def test_num_parameters_positive_after_fit(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=6)[:60]
        record_pairs, labels = as_record_pairs(pairs)
        model = small_model(num_epochs=1)
        assert model.num_parameters() == 0
        model.fit(record_pairs, labels)
        assert model.num_parameters() > 1000


class TestSerializationVariants:
    def test_ditto_and_plain_models_differ(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=7)[:100]
        record_pairs, labels = as_record_pairs(pairs)
        attributes = ["name", "city", "country_code", "description"]
        plain = TransformerPairClassifier(
            serializer=PlainSerializer(attributes, max_tokens=48),
            embedding_dim=16, hidden_dim=32, num_epochs=1, vocab_size=2000, seed=0,
        ).fit(record_pairs, labels)
        ditto = TransformerPairClassifier(
            serializer=DittoSerializer(attributes, max_tokens=48),
            embedding_dim=16, hidden_dim=32, num_epochs=1, vocab_size=2000, seed=0,
        ).fit(record_pairs, labels)
        assert plain.predict_proba(record_pairs[:10]) != ditto.predict_proba(record_pairs[:10])


class TestBatchWidth:
    @pytest.mark.parametrize(
        ("longest", "width"), [(3, 8), (8, 8), (9, 16), (45, 48), (121, 128), (128, 128)]
    )
    def test_rounds_up_to_a_multiple_of_eight(self, longest, width):
        assert batch_width(longest, 128) == width

    def test_never_exceeds_the_budget(self):
        assert batch_width(45, 44) == 44
