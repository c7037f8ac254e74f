"""Pairwise matching models.

The paper's pairwise matchers are fine-tuned Transformer language models
(DistilBERT, and DITTO which wraps a DistilBERT backbone behind a different
serialisation scheme).  HuggingFace models are not available offline, so the
matchers here are built from scratch on numpy (see DESIGN.md, substitution
2) while keeping the exact role and interface of the originals: given a
serialised record pair, produce a Match / NoMatch probability.

* :mod:`repro.matching.base` — the :class:`PairwiseMatcher` interface,
* :mod:`repro.matching.pairs` — labelled pair construction and negative
  sampling (the 5:1 scheme of Section 5.1.3),
* :mod:`repro.matching.features` — similarity features for the classical
  baseline,
* :mod:`repro.matching.profiles` — per-record feature profiles
  (:class:`RecordProfile` / :class:`ProfileStore`): record-local
  derivations computed once, pairs scored from profiles,
* :mod:`repro.matching.decisions` — array-backed decision containers
  (:class:`DecisionVector` / :class:`DecisionCache`) for the engine's
  columnar matching route and the incremental decision cache,
* :mod:`repro.matching.logistic` — logistic-regression matcher,
* :mod:`repro.matching.nn` — numpy neural-network building blocks,
* :mod:`repro.matching.attention` — the Transformer-style cross-encoder
  (DistilBERT stand-in),
* :mod:`repro.matching.models` — the named model zoo of Table 3
  (``distilbert-128-all``, ``distilbert-128-15k``, ``ditto-128``,
  ``ditto-256``, …),
* :mod:`repro.matching.heuristic` — the identifier-overlap baseline,
* :mod:`repro.matching.training` — the fine-tuning loop (epochs, validation
  loss model selection, timing).
"""

from repro.matching.base import (
    EmptyTrainingSetError,
    MatchDecision,
    PairwiseMatcher,
    ScoredPair,
)
from repro.matching.decisions import DecisionCache, DecisionVector
from repro.matching.pairs import LabeledPair, PairSampler, build_labeled_pairs
from repro.matching.features import PairFeatureExtractor
from repro.matching.profiles import ProfileStore, RecordProfile, build_profile
from repro.matching.logistic import LogisticRegressionMatcher
from repro.matching.attention import TransformerPairClassifier
from repro.matching.heuristic import IdOverlapMatcher, ThresholdNameMatcher
from repro.matching.models import MODEL_SPECS, ModelSpec, build_matcher
from repro.matching.training import FineTuner, FineTuneResult

__all__ = [
    "EmptyTrainingSetError",
    "MatchDecision",
    "PairwiseMatcher",
    "ScoredPair",
    "DecisionCache",
    "DecisionVector",
    "LabeledPair",
    "PairSampler",
    "build_labeled_pairs",
    "PairFeatureExtractor",
    "ProfileStore",
    "RecordProfile",
    "build_profile",
    "LogisticRegressionMatcher",
    "TransformerPairClassifier",
    "IdOverlapMatcher",
    "ThresholdNameMatcher",
    "MODEL_SPECS",
    "ModelSpec",
    "build_matcher",
    "FineTuner",
    "FineTuneResult",
]
