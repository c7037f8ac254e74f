"""Feature-based logistic-regression matcher.

A compact, fast, fully-trainable matcher over the similarity features of
:class:`~repro.matching.features.PairFeatureExtractor`.  It serves two
purposes in the reproduction:

* as the classical baseline the neural matchers are compared against, and
* as the default matcher for very large candidate sets where the attention
  model would dominate the experiment's run time.

Training uses full-batch gradient descent with L2 regularisation — the
feature dimensionality is tiny, so nothing fancier is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.datagen.records import Record
from repro.matching.base import (
    EmptyTrainingSetError,
    IdPair,
    RecordPair,
    TrainablePairwiseMatcher,
)
from repro.matching.features import PairFeatureExtractor
from repro.matching.profiles import ProfileStore


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


@dataclass
class LogisticTrainingHistory:
    """Loss trajectory of one fit, useful for tests and diagnostics."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)


class LogisticRegressionMatcher(TrainablePairwiseMatcher):
    """Binary logistic regression over pair similarity features."""

    #: Features come from a :class:`PairFeatureExtractor` over a profile
    #: store, so the engine prepares the store once and feeds this matcher
    #: bare id pairs; scoring is one feature-matrix extraction plus
    #: row-local array arithmetic — no per-pair Python.
    columnar_capable = True

    def __init__(
        self,
        learning_rate: float = 0.5,
        num_iterations: int = 300,
        l2: float = 1e-3,
        threshold: float = 0.5,
        extractor: PairFeatureExtractor | None = None,
        class_weighted: bool = True,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if num_iterations < 1:
            raise ValueError("num_iterations must be at least 1")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.learning_rate = learning_rate
        self.num_iterations = num_iterations
        self.l2 = l2
        self.threshold = threshold
        self.extractor = extractor or PairFeatureExtractor()
        self.class_weighted = class_weighted
        self.seed = seed

        self._weights: np.ndarray | None = None
        self._bias: float = 0.0
        self._feature_means: np.ndarray | None = None
        self._feature_scales: np.ndarray | None = None
        self.history = LogisticTrainingHistory()

    # -- training ---------------------------------------------------------------

    def fit(
        self,
        pairs: Sequence[RecordPair],
        labels: Sequence[int],
        validation_pairs: Sequence[RecordPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "LogisticRegressionMatcher":
        if len(pairs) != len(labels):
            raise ValueError("pairs and labels must have the same length")
        if not pairs:
            raise EmptyTrainingSetError()

        features = self.extractor.extract_batch(pairs)
        targets = np.asarray(labels, dtype=np.float64)
        if set(np.unique(targets)) - {0.0, 1.0}:
            raise ValueError("labels must be 0 or 1")

        self._fit_scaler(features)
        features = self._scale(features)

        validation_features = None
        validation_targets = None
        if validation_pairs is not None and validation_labels is not None:
            validation_features = self._scale(self.extractor.extract_batch(validation_pairs))
            validation_targets = np.asarray(validation_labels, dtype=np.float64)

        rng = np.random.default_rng(self.seed)
        num_features = features.shape[1]
        weights = rng.normal(0.0, 0.01, size=num_features)
        bias = 0.0

        sample_weights = self._sample_weights(targets)
        self.history = LogisticTrainingHistory()

        for _ in range(self.num_iterations):
            logits = features @ weights + bias
            probabilities = _sigmoid(logits)
            errors = (probabilities - targets) * sample_weights
            gradient_weights = features.T @ errors / len(targets) + self.l2 * weights
            gradient_bias = float(errors.mean())
            weights -= self.learning_rate * gradient_weights
            bias -= self.learning_rate * gradient_bias

            self.history.train_loss.append(
                self._loss(probabilities, targets, sample_weights, weights)
            )
            if validation_features is not None and validation_targets is not None:
                validation_probabilities = _sigmoid(validation_features @ weights + bias)
                self.history.validation_loss.append(
                    self._loss(
                        validation_probabilities,
                        validation_targets,
                        np.ones_like(validation_targets),
                        weights,
                    )
                )

        self._weights = weights
        self._bias = bias
        return self

    def _sample_weights(self, targets: np.ndarray) -> np.ndarray:
        """Balance classes so the 5:1 negative ratio does not bias the fit."""
        if not self.class_weighted:
            return np.ones_like(targets)
        num_positive = float(targets.sum())
        num_negative = float(len(targets) - num_positive)
        if num_positive == 0 or num_negative == 0:
            return np.ones_like(targets)
        positive_weight = len(targets) / (2.0 * num_positive)
        negative_weight = len(targets) / (2.0 * num_negative)
        return np.where(targets == 1.0, positive_weight, negative_weight)

    def _loss(
        self,
        probabilities: np.ndarray,
        targets: np.ndarray,
        sample_weights: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        eps = 1e-12
        cross_entropy = -(
            targets * np.log(probabilities + eps)
            + (1.0 - targets) * np.log(1.0 - probabilities + eps)
        )
        return float(
            (cross_entropy * sample_weights).mean() + 0.5 * self.l2 * (weights @ weights)
        )

    # -- feature scaling -----------------------------------------------------------

    def _fit_scaler(self, features: np.ndarray) -> None:
        self._feature_means = features.mean(axis=0)
        scales = features.std(axis=0)
        scales[scales < 1e-9] = 1.0
        self._feature_scales = scales

    def _scale(self, features: np.ndarray) -> np.ndarray:
        if self._feature_means is None or self._feature_scales is None:
            raise RuntimeError("scaler not fitted")
        return (features - self._feature_means) / self._feature_scales

    # -- inference -------------------------------------------------------------------

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not pairs:
            return []
        features = self._scale(self.extractor.extract_batch(pairs))
        return self._probabilities(features)

    def _probability_vector(self, scaled_features: np.ndarray) -> np.ndarray:
        # Row-local on purpose: each pair's logit is an elementwise product
        # reduced along its own row, never one batched gemv — BLAS may pick
        # different accumulation paths at different matrix heights, which
        # shifts borderline logits by an ULP.  NumPy's axis-1 pairwise
        # reduction runs per row over a fixed length, so a pair's
        # probability is bitwise independent of how inference was batched —
        # the property the incremental subsystem's decision cache (reusing
        # a probability scored under one chunking inside a run that chose
        # another) relies on.
        logits = (scaled_features * self._weights).sum(axis=1)
        return _sigmoid(logits + self._bias)

    def _probabilities(self, scaled_features: np.ndarray) -> list[float]:
        return [float(p) for p in self._probability_vector(scaled_features)]

    # -- columnar inference -------------------------------------------------------

    def prepare_profiles(self, records: Iterable[Record]) -> ProfileStore:
        """Profile every record once; pairs are then scored by id."""
        return self.extractor.prepare(records)

    def score_profiled(
        self, profiles: ProfileStore, id_pairs: Sequence[IdPair]
    ) -> np.ndarray:
        """Probability vector for id pairs resolved against a profile store.

        Feature extraction, scaling and the row-local logit reduction are
        all array expressions.  Byte-identical to :meth:`predict_proba` on
        the corresponding record pairs: the feature matrix holds the same
        float64 values in the same shape, so scaling and the row-local
        reduction see identical inputs.
        """
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not id_pairs:
            return np.zeros(0, dtype=np.float64)
        features = self._scale(self.extractor.extract_batch_profiles(profiles, id_pairs))
        return self._probability_vector(features)

    # -- introspection -----------------------------------------------------------------

    def feature_importances(self) -> dict[str, float]:
        """Absolute weight per feature name (after scaling), for diagnostics."""
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before inspecting weights")
        return {
            name: float(weight)
            for name, weight in zip(self.extractor.feature_names(), self._weights)
        }
