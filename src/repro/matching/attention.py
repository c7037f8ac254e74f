"""Transformer-style pairwise sequence classifier (DistilBERT stand-in).

The paper fine-tunes DistilBERT (optionally behind DITTO's serialisation
scheme) for binary Match / NoMatch sequence classification.  This module
implements the same role with a small Transformer encoder built from the
numpy layers in :mod:`repro.matching.nn`:

* the record pair is serialised by a :class:`~repro.text.serialize.PairSerializer`
  (plain or DITTO scheme, 128- or 256-token budget),
* tokens are mapped to ids by a :class:`~repro.text.tokenize.Vocabulary`
  fitted on the training pairs (the WordPiece substitute),
* a learned embedding + positional embedding feeds one or more pre-norm
  Transformer blocks, a masked mean pooling and a 2-way softmax head,
* training minimises cross-entropy with Adam for a few epochs and keeps the
  epoch with the lowest validation loss, exactly as in Section 4.1,
* every batch runs only as wide as its longest sequence (rounded up to a
  multiple of eight, see :func:`batch_width`), and each record is
  serialised and encoded once per call, however many pairs it is in.

The network is orders of magnitude smaller than DistilBERT, but it occupies
the identical position in the pipeline and reacts to the same experimental
knobs (serialisation scheme, token budget, training-set size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.datagen.records import Record
from repro.matching.base import (
    EmptyTrainingSetError,
    RecordPair,
    TrainablePairwiseMatcher,
)
from repro.obs import clock
from repro.matching.features import PairFeatureExtractor
from repro.matching.nn import (
    Adam,
    Embedding,
    Linear,
    LayerNorm,
    MaskedMeanPool,
    Module,
    PositionalEmbedding,
    TransformerBlock,
    cross_entropy,
    softmax,
)
from repro.text.serialize import PairSerializer, PlainSerializer
from repro.text.tokenize import SEP_TOKEN, Vocabulary

#: Each batch runs at the width of its longest sequence rounded up to a
#: multiple of this many columns, never at the full token budget.  At such
#: a width the reductions over the sequence axis group their terms as they
#: do at the full width (the dropped columns only added zeros), so the
#: logits are bit-identical to an untrimmed pass — pinned by
#: ``tests/matching/test_attention_work.py``.  Trimming to the exact length
#: regroups the sums and moves the last bits.
WIDTH_MULTIPLE = 8


def batch_width(longest: int, max_tokens: int) -> int:
    """Columns a batch runs at when its longest sequence has ``longest`` tokens."""
    return min(max_tokens, -(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)


@dataclass
class TrainingHistory:
    """Per-epoch loss trajectory of one fine-tuning run."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    training_seconds: float = 0.0


class _EncodedPairs(NamedTuple):
    """Network inputs for a pair sequence, one row per pair.

    The arrays are as wide as the longest row needs (see
    :func:`batch_width`); ``lengths`` holds each row's real token count.
    """

    ids: np.ndarray
    mask: np.ndarray
    left_mask: np.ndarray
    right_mask: np.ndarray
    aux: np.ndarray
    lengths: np.ndarray


class _RecordEncodings:
    """One call's serialisation and token ids of each distinct record.

    A record appears in many pairs, so its budget-truncated tokens (which
    feed the vocabulary corpus) and, once the vocabulary is fitted, its
    token ids are computed once per ``fit`` / ``predict_proba`` call.  The
    memo lives only for that call: nothing is stored on the matcher, which
    is pickled into pool epochs and match states.  Records are keyed by id,
    so two *different* records sharing an id raise ``ValueError``.
    """

    def __init__(self, serializer: PairSerializer) -> None:
        self._serializer = serializer
        self._tokens: dict[str, tuple[Record, list[str]]] = {}
        self._ids: dict[str, list[int]] = {}

    def tokens(self, record: Record) -> list[str]:
        entry = self._tokens.get(record.record_id)
        if entry is None:
            entry = (record, self._serializer.serialize_side(record.attributes()))
            self._tokens[record.record_id] = entry
        elif entry[0] is not record and entry[0] != record:
            raise ValueError(f"two different records share the id {record.record_id!r}")
        return entry[1]

    def pair_text(self, left: Record, right: Record) -> str:
        """``serializer.serialize_pair_text(left, right)`` from the memo."""
        return " ".join([*self.tokens(left), SEP_TOKEN, *self.tokens(right)])

    def ids(self, record: Record, vocabulary: Vocabulary) -> list[int]:
        tokens = self.tokens(record)
        ids = self._ids.get(record.record_id)
        if ids is None:
            ids = vocabulary.encode(tokens, add_special_tokens=False)
            self._ids[record.record_id] = ids
        return ids


class _PairEncoderNetwork(Module):
    """Cross-encoder with a segment-interaction classification head.

    The full serialised pair runs through the Transformer blocks (so tokens
    of the two records can attend to each other), after which three pooled
    vectors are formed: the whole sequence, the left record's segment and the
    right record's segment.  The classifier sees
    ``[pooled_all, pooled_left · pooled_right, |pooled_left − pooled_right|]``,
    which gives the tiny model the matching-oriented inductive bias a fully
    pre-trained DistilBERT brings along from pre-training.
    """

    def __init__(
        self,
        vocab_size: int,
        max_length: int,
        dim: int,
        hidden_dim: int,
        num_blocks: int,
        num_aux_features: int,
        rng: np.random.Generator,
    ) -> None:
        self.token_embedding = Embedding(vocab_size, dim, rng, "token_embedding")
        self.positional_embedding = PositionalEmbedding(max_length, dim, rng, "positional")
        self.blocks = [
            TransformerBlock(dim, hidden_dim, rng, name=f"block{i}")
            for i in range(num_blocks)
        ]
        self.final_norm = LayerNorm(dim, name="final_norm")
        self.pool_all = MaskedMeanPool()
        self.pool_left = MaskedMeanPool()
        self.pool_right = MaskedMeanPool()
        self.num_aux_features = num_aux_features
        self.classifier = Linear(3 * dim + num_aux_features, 2, rng, "classifier")
        self._cache: dict[str, np.ndarray] | None = None

    def forward(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        left_mask: np.ndarray,
        right_mask: np.ndarray,
        aux_features: np.ndarray | None = None,
    ) -> np.ndarray:
        embeddings = self.token_embedding.forward(ids)
        hidden = self.positional_embedding.forward(embeddings)
        for block in self.blocks:
            hidden = block.forward(hidden, mask)
        hidden = self.final_norm.forward(hidden)

        # The contextualised sequence representation...
        pooled_all = self.pool_all.forward(hidden, mask)
        # ...plus segment representations pooled from the *raw* token
        # embeddings: identical tokens in the two records contribute identical
        # vectors, preserving the exact-overlap signal that a pre-trained
        # encoder would carry through its contextualisation.
        pooled_left = self.pool_left.forward(embeddings, left_mask)
        pooled_right = self.pool_right.forward(embeddings, right_mask)

        difference = pooled_left - pooled_right
        parts = [pooled_all, pooled_left * pooled_right, np.abs(difference)]
        if self.num_aux_features:
            if aux_features is None:
                raise ValueError("aux_features required by this network configuration")
            parts.append(aux_features)
        features = np.concatenate(parts, axis=-1)
        self._cache = {
            "pooled_left": pooled_left,
            "pooled_right": pooled_right,
            "difference_sign": np.sign(difference),
        }
        return self.classifier.forward(features)

    def backward(self, grad_logits: np.ndarray) -> None:
        assert self._cache is not None
        cache = self._cache
        grad_features = self.classifier.backward(grad_logits)
        dim = (grad_features.shape[-1] - self.num_aux_features) // 3
        grad_all = grad_features[:, :dim]
        grad_product = grad_features[:, dim:2 * dim]
        grad_absdiff = grad_features[:, 2 * dim:3 * dim]
        # Gradients w.r.t. the auxiliary similarity features are discarded —
        # they are inputs, not produced by any trainable layer.

        grad_left = (
            grad_product * cache["pooled_right"] + grad_absdiff * cache["difference_sign"]
        )
        grad_right = (
            grad_product * cache["pooled_left"] - grad_absdiff * cache["difference_sign"]
        )

        # Contextualised path.
        grad_hidden = self.pool_all.backward(grad_all)
        grad = self.final_norm.backward(grad_hidden)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        grad = self.positional_embedding.backward(grad)

        # Raw-embedding path (accumulates into the same embedding table).
        grad_embeddings = (
            grad + self.pool_left.backward(grad_left) + self.pool_right.backward(grad_right)
        )
        self.token_embedding.backward(grad_embeddings)


class TransformerPairClassifier(TrainablePairwiseMatcher):
    """Trainable Match / NoMatch classifier over serialised record pairs."""

    def __init__(
        self,
        serializer: PairSerializer | None = None,
        attributes: Sequence[str] | None = None,
        max_tokens: int = 128,
        embedding_dim: int = 32,
        hidden_dim: int = 64,
        num_blocks: int = 1,
        num_epochs: int = 5,
        batch_size: int = 32,
        learning_rate: float = 2e-3,
        vocab_size: int = 8_000,
        threshold: float = 0.5,
        class_weighted: bool = True,
        use_similarity_features: bool = True,
        seed: int = 0,
    ) -> None:
        if serializer is None:
            if attributes is None:
                raise ValueError("either a serializer or an attribute list is required")
            serializer = PlainSerializer(attributes, max_tokens=max_tokens)
        if num_epochs < 1:
            raise ValueError("num_epochs must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")

        self.serializer = serializer
        self.max_tokens = serializer.max_tokens
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.num_blocks = num_blocks
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.vocab_size = vocab_size
        self.threshold = threshold
        #: Reweight the loss so the 5:1 negative sampling does not push the
        #: model into always predicting NoMatch (DistilBERT is large enough
        #: not to need this; the tiny stand-in is not).
        self.class_weighted = class_weighted
        #: DistilBERT arrives pre-trained with strong lexical-similarity
        #: priors; the from-scratch stand-in does not, so by default the
        #: classification head additionally receives the classic pair
        #: similarity features (see DESIGN.md, substitution 2).  Disable to
        #: study the pure token model.
        self.use_similarity_features = use_similarity_features
        self.seed = seed

        self._feature_extractor = PairFeatureExtractor() if use_similarity_features else None
        self._feature_means: np.ndarray | None = None
        self._feature_scales: np.ndarray | None = None
        self.vocabulary: Vocabulary | None = None
        self.network: _PairEncoderNetwork | None = None
        self.history = TrainingHistory()
        #: Inverse document frequency per token id, estimated on the training
        #: pairs.  Used to weight the pooling so that ubiquitous tokens
        #: (corporate suffixes, country names, [COL] markers) do not dominate
        #: the pooled record representations — the stand-in for what
        #: DistilBERT's pre-trained attention learns to do.
        self._idf: np.ndarray | None = None

    # -- encoding -----------------------------------------------------------------

    def _encode_pairs(
        self, pairs: Sequence[RecordPair], records: _RecordEncodings
    ) -> _EncodedPairs:
        """Tokenise pairs into the network inputs.

        Each row is ``[CLS] left [SEP] right [SEP]``, truncated with a final
        ``[SEP]`` — exactly ``Vocabulary.encode(serialize_pair(...))`` —
        built from the per-record ids in ``records``.  The left/right segment
        masks split the sequence at the first middle ``[SEP]`` token (the
        record boundary); they feed the segment-interaction head of the
        network.  ``aux`` holds the (standardised) pair similarity features
        when enabled, otherwise an empty array.
        """
        vocabulary = self.vocabulary
        if vocabulary is None:
            raise RuntimeError("matcher must be fitted before encoding")
        cls_id, sep_id = vocabulary.cls_id, vocabulary.sep_id
        sequences: list[list[int]] = []
        boundaries: list[int] = []
        for left, right in pairs:
            sequence = [
                cls_id, *records.ids(left, vocabulary),
                sep_id, *records.ids(right, vocabulary), sep_id,
            ]
            if len(sequence) > self.max_tokens:
                del sequence[self.max_tokens:]
                sequence[-1] = sep_id
            sequences.append(sequence)
            # Position 0 is [CLS]; the first [SEP] after it separates records.
            boundaries.append(sequence.index(sep_id, 1))
        lengths = np.array([len(sequence) for sequence in sequences])
        positions = np.arange(batch_width(int(lengths.max()), self.max_tokens))
        real = positions < lengths[:, None]
        ids = np.zeros(real.shape, dtype=np.int64)
        ids[real] = np.fromiter(
            chain.from_iterable(sequences), dtype=np.int64, count=int(lengths.sum())
        )
        boundary = np.array(boundaries)[:, None]
        left_mask = ((positions >= 1) & (positions < boundary)).astype(np.float64)
        right_mask = ((positions > boundary) & real).astype(np.float64)
        if self._idf is not None:
            token_weights = self._idf[ids]
            left_mask *= token_weights
            right_mask *= token_weights
        aux = self._aux_features(pairs)
        return _EncodedPairs(
            ids, real.astype(np.float64), left_mask, right_mask, aux, lengths
        )

    def _aux_features(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Standardised similarity features (empty array when disabled)."""
        if self._feature_extractor is None:
            return np.zeros((len(pairs), 0))
        features = self._feature_extractor.extract_batch(pairs)
        if self._feature_means is not None and self._feature_scales is not None:
            features = (features - self._feature_means) / self._feature_scales
        return features

    def _fit_feature_scaler(self, features: np.ndarray) -> np.ndarray:
        """Fit mean/std scaling on the training features and return them scaled."""
        self._feature_means = features.mean(axis=0)
        scales = features.std(axis=0)
        scales[scales < 1e-9] = 1.0
        self._feature_scales = scales
        return (features - self._feature_means) / self._feature_scales

    def _fit_idf(self, ids: np.ndarray) -> np.ndarray:
        """Estimate per-token-id inverse document frequency from training ids."""
        assert self.vocabulary is not None
        vocab_size = len(self.vocabulary)
        document_frequency = np.zeros(vocab_size, dtype=np.float64)
        for row in ids:
            document_frequency[np.unique(row)] += 1.0
        num_documents = max(len(ids), 1)
        idf = np.log((1.0 + num_documents) / (1.0 + document_frequency)) + 1.0
        # Padding must never contribute to a pooled representation.
        idf[self.vocabulary.pad_id] = 0.0
        return idf

    # -- training --------------------------------------------------------------------

    def fit(
        self,
        pairs: Sequence[RecordPair],
        labels: Sequence[int],
        validation_pairs: Sequence[RecordPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "TransformerPairClassifier":
        if len(pairs) != len(labels):
            raise ValueError("pairs and labels must have the same length")
        if not pairs:
            raise EmptyTrainingSetError()

        start_time = clock.now()

        records = _RecordEncodings(self.serializer)
        corpus = (records.pair_text(left, right) for left, right in pairs)
        self.vocabulary = Vocabulary(max_size=self.vocab_size).fit(corpus)

        num_aux = self._feature_extractor.num_features if self._feature_extractor else 0
        rng = np.random.default_rng(self.seed)
        self.network = _PairEncoderNetwork(
            vocab_size=len(self.vocabulary),
            max_length=self.max_tokens,
            dim=self.embedding_dim,
            hidden_dim=self.hidden_dim,
            num_blocks=self.num_blocks,
            num_aux_features=num_aux,
            rng=rng,
        )
        optimizer = Adam(self.network.parameters(), learning_rate=self.learning_rate)

        encoded = self._encode_pairs(pairs, records)
        self._idf = self._fit_idf(encoded.ids)
        token_weights = self._idf[encoded.ids]
        encoded = encoded._replace(
            left_mask=encoded.left_mask * token_weights,
            right_mask=encoded.right_mask * token_weights,
        )
        if num_aux:
            encoded = encoded._replace(aux=self._fit_feature_scaler(encoded.aux))
        targets = np.asarray(labels, dtype=np.int64)
        sample_weights = self._class_weights(targets)

        validation_data = None
        if validation_pairs and validation_labels:
            validation_data = (
                self._encode_pairs(validation_pairs, records),
                np.asarray(validation_labels, dtype=np.int64),
            )

        self.history = TrainingHistory()
        best_loss = np.inf
        best_snapshot: list[np.ndarray] | None = None

        for epoch in range(self.num_epochs):
            epoch_loss = self._run_epoch(encoded, targets, sample_weights, optimizer, rng)
            self.history.train_loss.append(epoch_loss)

            if validation_data is not None:
                validation_loss = self._evaluate_loss(*validation_data)
            else:
                validation_loss = epoch_loss
            self.history.validation_loss.append(validation_loss)

            if validation_loss < best_loss:
                best_loss = validation_loss
                best_snapshot = [p.value.copy() for p in self.network.parameters()]
                self.history.best_epoch = epoch

        if best_snapshot is not None:
            for parameter, saved in zip(self.network.parameters(), best_snapshot):
                parameter.value[...] = saved

        self.history.training_seconds = clock.now() - start_time
        return self

    def _class_weights(self, targets: np.ndarray) -> np.ndarray:
        """Per-sample weights balancing the Match / NoMatch classes."""
        if not self.class_weighted:
            return np.ones(len(targets))
        num_positive = float((targets == 1).sum())
        num_negative = float((targets == 0).sum())
        if num_positive == 0 or num_negative == 0:
            return np.ones(len(targets))
        positive_weight = len(targets) / (2.0 * num_positive)
        negative_weight = len(targets) / (2.0 * num_negative)
        return np.where(targets == 1, positive_weight, negative_weight)

    def _forward_batches(
        self, encoded: _EncodedPairs, order: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Run the network over the rows ``order`` in batches.

        Yields ``(rows, logits)`` per batch.  Each batch is cut to its
        longest sequence (rounded by :func:`batch_width`): the columns past
        it are padding in every row.  The network caches one batch's
        activations, so a training caller runs its backward pass before it
        asks for the next batch.
        """
        assert self.network is not None
        for start in range(0, len(order), self.batch_size):
            rows = order[start:start + self.batch_size]
            width = batch_width(int(encoded.lengths[rows].max()), self.max_tokens)
            yield rows, self.network.forward(
                encoded.ids[rows, :width],
                encoded.mask[rows, :width],
                encoded.left_mask[rows, :width],
                encoded.right_mask[rows, :width],
                encoded.aux[rows],
            )

    def _run_epoch(
        self,
        encoded: _EncodedPairs,
        targets: np.ndarray,
        sample_weights: np.ndarray,
        optimizer: Adam,
        rng: np.random.Generator,
    ) -> float:
        assert self.network is not None
        total_loss = 0.0
        num_batches = 0
        for rows, logits in self._forward_batches(encoded, rng.permutation(len(targets))):
            loss, grad_logits = cross_entropy(logits, targets[rows], sample_weights[rows])
            optimizer.zero_grad()
            self.network.backward(grad_logits)
            optimizer.step()
            total_loss += loss
            num_batches += 1
        return total_loss / max(num_batches, 1)

    def _evaluate_loss(self, encoded: _EncodedPairs, targets: np.ndarray) -> float:
        losses = [
            cross_entropy(logits, targets[rows])[0]
            for rows, logits in self._forward_batches(encoded, np.arange(len(targets)))
        ]
        return sum(losses) / max(len(losses), 1)

    # -- inference -----------------------------------------------------------------------

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        if self.network is None or self.vocabulary is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not pairs:
            return []
        encoded = self._encode_pairs(pairs, _RecordEncodings(self.serializer))
        probabilities: list[float] = []
        for _, logits in self._forward_batches(encoded, np.arange(len(pairs))):
            probabilities.extend(float(p) for p in softmax(logits)[:, 1])
        return probabilities

    # -- persistence-ish helpers ------------------------------------------------------------

    def num_parameters(self) -> int:
        """Total number of trainable scalars (for the model-size comparisons)."""
        if self.network is None:
            return 0
        return int(sum(p.value.size for p in self.network.parameters()))
