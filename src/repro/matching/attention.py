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
  epoch with the lowest validation loss, exactly as in Section 4.1.

The network is orders of magnitude smaller than DistilBERT, but it occupies
the identical position in the pipeline and reacts to the same experimental
knobs (serialisation scheme, token budget, training-set size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

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
from repro.text.tokenize import Vocabulary


@dataclass
class TrainingHistory:
    """Per-epoch loss trajectory of one fine-tuning run."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    training_seconds: float = 0.0


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
        self, pairs: Sequence[RecordPair]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serialize + tokenise pairs into (ids, mask, left_mask, right_mask, aux).

        The left/right segment masks split the sequence at the first middle
        ``[SEP]`` token (the record boundary produced by the serialiser); they
        feed the segment-interaction head of the network.  ``aux`` holds the
        (standardised) pair similarity features when enabled, otherwise an
        empty array.
        """
        if self.vocabulary is None:
            raise RuntimeError("matcher must be fitted before encoding")
        ids = np.zeros((len(pairs), self.max_tokens), dtype=np.int64)
        mask = np.zeros((len(pairs), self.max_tokens), dtype=np.float64)
        left_mask = np.zeros((len(pairs), self.max_tokens), dtype=np.float64)
        right_mask = np.zeros((len(pairs), self.max_tokens), dtype=np.float64)
        sep_id = self.vocabulary.sep_id
        for row, (left, right) in enumerate(pairs):
            tokens = self.serializer.serialize_pair(left.attributes(), right.attributes())
            encoded = self.vocabulary.encode(tokens, max_length=self.max_tokens)
            length = len(encoded)
            ids[row, :length] = encoded
            mask[row, :length] = 1.0
            # Position 0 is [CLS]; the first [SEP] after it separates records.
            boundary = length
            for position in range(1, length):
                if encoded[position] == sep_id:
                    boundary = position
                    break
            left_mask[row, 1:boundary] = 1.0
            right_mask[row, boundary + 1:length] = 1.0
        if self._idf is not None:
            token_weights = self._idf[ids]
            left_mask *= token_weights
            right_mask *= token_weights
        aux = self._aux_features(pairs)
        return ids, mask, left_mask, right_mask, aux

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

        corpus = (
            self.serializer.serialize_pair_text(left.attributes(), right.attributes())
            for left, right in pairs
        )
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

        ids, mask, left_mask, right_mask, aux = self._encode_pairs(pairs)
        self._idf = self._fit_idf(ids)
        token_weights = self._idf[ids]
        if num_aux:
            aux = self._fit_feature_scaler(aux)
        encoded = (ids, mask, left_mask * token_weights, right_mask * token_weights, aux)
        targets = np.asarray(labels, dtype=np.int64)
        sample_weights = self._class_weights(targets)

        validation_data = None
        if validation_pairs and validation_labels:
            validation_data = (
                self._encode_pairs(validation_pairs),
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

    def _run_epoch(
        self,
        encoded: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        targets: np.ndarray,
        sample_weights: np.ndarray,
        optimizer: Adam,
        rng: np.random.Generator,
    ) -> float:
        assert self.network is not None
        ids, mask, left_mask, right_mask, aux = encoded
        order = rng.permutation(len(targets))
        total_loss = 0.0
        num_batches = 0
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            optimizer.zero_grad()
            logits = self.network.forward(
                ids[batch], mask[batch], left_mask[batch], right_mask[batch], aux[batch]
            )
            loss, grad_logits = cross_entropy(
                logits, targets[batch], sample_weights[batch]
            )
            self.network.backward(grad_logits)
            optimizer.step()
            total_loss += loss
            num_batches += 1
        return total_loss / max(num_batches, 1)

    def _evaluate_loss(
        self,
        encoded: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        targets: np.ndarray,
    ) -> float:
        assert self.network is not None
        ids, mask, left_mask, right_mask, aux = encoded
        total_loss = 0.0
        num_batches = 0
        for start in range(0, len(targets), self.batch_size):
            stop = start + self.batch_size
            logits = self.network.forward(
                ids[start:stop], mask[start:stop],
                left_mask[start:stop], right_mask[start:stop], aux[start:stop],
            )
            loss, _ = cross_entropy(logits, targets[start:stop])
            total_loss += loss
            num_batches += 1
        return total_loss / max(num_batches, 1)

    # -- inference -----------------------------------------------------------------------

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        if self.network is None or self.vocabulary is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not pairs:
            return []
        ids, mask, left_mask, right_mask, aux = self._encode_pairs(pairs)
        probabilities: list[float] = []
        for start in range(0, len(pairs), self.batch_size):
            stop = start + self.batch_size
            logits = self.network.forward(
                ids[start:stop], mask[start:stop],
                left_mask[start:stop], right_mask[start:stop], aux[start:stop],
            )
            batch_probabilities = softmax(logits)[:, 1]
            probabilities.extend(float(p) for p in batch_probabilities)
        return probabilities

    # -- persistence-ish helpers ------------------------------------------------------------

    def num_parameters(self) -> int:
        """Total number of trainable scalars (for the model-size comparisons)."""
        if self.network is None:
            return 0
        return int(sum(p.value.size for p in self.network.parameters()))
