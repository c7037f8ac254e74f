"""Work and bit-identity pins for the trimmed transformer batches.

Every batch runs at the width of its longest sequence rounded up to a
multiple of eight (:func:`~repro.matching.attention.batch_width`), and every
record is serialised and encoded once per call.  These tests pin the work
the network does, pin inference and the validation loss bitwise to a pass
over the untrimmed ``max_tokens``-wide arrays, and check that no encoding
memo is left on the matcher.
"""

import numpy as np
import pytest

from repro.matching.attention import _PairEncoderNetwork
from repro.matching.models import build_matcher
from repro.matching.nn import cross_entropy, softmax
from repro.matching.pairs import as_record_pairs, build_labeled_pairs

#: ``vars(matcher)`` after ``fit``: the matcher is pickled into pool epochs
#: and match states, so a per-call encoding memo must not appear here.
FITTED_MATCHER_KEYS = [
    "_feature_extractor", "_feature_means", "_feature_scales", "_idf",
    "batch_size", "class_weighted", "embedding_dim", "hidden_dim", "history",
    "learning_rate", "max_tokens", "network", "num_blocks", "num_epochs",
    "seed", "serializer", "threshold", "use_similarity_features",
    "vocab_size", "vocabulary",
]

#: Sum of ``rows × width`` over every network forward of one fit epoch on
#: 600 pairs plus predicting 150 more.  Untrimmed (every batch at the full
#: 128-token width) it would be 750 × 128 = 96 000.
EXPECTED_FORWARD_CELLS = 36_000


def _split_pairs(companies):
    pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    return record_pairs[:600], labels[:600], record_pairs[600:], labels[600:]


def _matcher(companies, model):
    attributes = list(type(companies.records[0]).MATCHING_ATTRIBUTES)
    return build_matcher(model, attributes, num_epochs=1)


def _untrimmed_inputs(matcher, pairs):
    """The network inputs at the full ``max_tokens`` width, one pair at a time."""
    vocabulary = matcher.vocabulary
    width = matcher.max_tokens
    ids = np.zeros((len(pairs), width), dtype=np.int64)
    mask = np.zeros((len(pairs), width))
    left_mask = np.zeros((len(pairs), width))
    right_mask = np.zeros((len(pairs), width))
    for row, (left, right) in enumerate(pairs):
        tokens = matcher.serializer.serialize_pair(left.attributes(), right.attributes())
        encoded = vocabulary.encode(tokens, max_length=width)
        boundary = encoded.index(vocabulary.sep_id, 1)
        ids[row, :len(encoded)] = encoded
        mask[row, :len(encoded)] = 1.0
        left_mask[row, 1:boundary] = 1.0
        right_mask[row, boundary + 1:len(encoded)] = 1.0
    weights = matcher._idf[ids]
    return ids, mask, left_mask * weights, right_mask * weights, matcher._aux_features(pairs)


def _untrimmed_logits(matcher, pairs):
    inputs = _untrimmed_inputs(matcher, pairs)
    for start in range(0, len(pairs), matcher.batch_size):
        stop = start + matcher.batch_size
        yield start, stop, matcher.network.forward(*(part[start:stop] for part in inputs))


class TestForwardWork:
    def test_forward_cells_over_fit_and_predict(self, companies, monkeypatch):
        cells = []
        forward = _PairEncoderNetwork.forward

        def spy(self, ids, *rest):
            cells.append(ids.shape[0] * ids.shape[1])
            return forward(self, ids, *rest)

        monkeypatch.setattr(_PairEncoderNetwork, "forward", spy)
        train_pairs, train_labels, test_pairs, _ = _split_pairs(companies)
        matcher = _matcher(companies, "distilbert-128-15k")
        matcher.fit(train_pairs, train_labels)
        matcher.predict_proba(test_pairs)
        assert sum(cells) == EXPECTED_FORWARD_CELLS

    def test_no_encoding_memo_on_the_fitted_matcher(self, companies):
        train_pairs, train_labels, test_pairs, _ = _split_pairs(companies)
        matcher = _matcher(companies, "distilbert-128-15k")
        assert sorted(vars(matcher)) == FITTED_MATCHER_KEYS
        matcher.fit(train_pairs[:100], train_labels[:100])
        matcher.predict_proba(test_pairs)
        assert sorted(vars(matcher)) == FITTED_MATCHER_KEYS


@pytest.mark.parametrize("model", ["distilbert-128-15k", "ditto-256"])
class TestBitIdentity:
    def test_predictions_equal_the_untrimmed_pass(self, companies, model):
        train_pairs, train_labels, test_pairs, _ = _split_pairs(companies)
        matcher = _matcher(companies, model).fit(train_pairs, train_labels)
        expected = []
        for _, _, logits in _untrimmed_logits(matcher, test_pairs):
            expected.extend(float(p) for p in softmax(logits)[:, 1])
        assert matcher.predict_proba(test_pairs) == expected

    def test_validation_loss_equals_the_untrimmed_pass(self, companies, model):
        # One epoch: the fitted weights are the ones the loss was taken with.
        train_pairs, train_labels, test_pairs, test_labels = _split_pairs(companies)
        matcher = _matcher(companies, model).fit(
            train_pairs, train_labels,
            validation_pairs=test_pairs, validation_labels=test_labels,
        )
        targets = np.asarray(test_labels, dtype=np.int64)
        losses = [
            cross_entropy(logits, targets[start:stop])[0]
            for start, stop, logits in _untrimmed_logits(matcher, test_pairs)
        ]
        assert matcher.history.validation_loss == [sum(losses) / len(losses)]
