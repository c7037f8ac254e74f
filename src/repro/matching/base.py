"""The pairwise matcher interface.

Every matcher — neural, feature-based or heuristic — consumes *record pairs*
and produces Match / NoMatch decisions with a probability.  The entity group
matching pipeline only depends on this interface (Figure 1 explicitly
supports "any matching method that produces pairwise matches").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.datagen.records import Record


@dataclass(frozen=True)
class ScoredPair:
    """A candidate pair together with the matcher's probability of a match."""

    left_id: str
    right_id: str
    probability: float

    @property
    def pair(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


@dataclass(frozen=True)
class MatchDecision:
    """Final Match / NoMatch decision for one candidate pair."""

    left_id: str
    right_id: str
    probability: float
    is_match: bool

    @property
    def pair(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


RecordPair = tuple[Record, Record]


#: An unordered pair referenced by record id — the task payload of the
#: columnar inference route (the records themselves live in the profile
#: store, shipped to each worker once).
IdPair = tuple[str, str]


class PairwiseMatcher(ABC):
    """Binary Match / NoMatch classifier over record pairs.

    The execution engine runs a matcher along one of two routes, selected by
    the one capability flag ``columnar_capable``:

    * **record pairs** (the default) — chunks of ``(left, right)`` records
      go through :meth:`decide_batches`;
    * **columnar** (``columnar_capable = True``) — a two-phase protocol, the
      matching analogue of the blocking layer's shardable protocol:

      1. :meth:`prepare_profiles` derives per-record state once (for the
         feature-based matchers: a
         :class:`~repro.matching.profiles.ProfileStore`).  Runs in the
         parent process; the result must be picklable.
      2. :meth:`score_profiled` scores chunks of bare
         ``(left_id, right_id)`` pairs against that state and returns the
         probability vector as one float64 array; the engine wraps the
         concatenated vectors in a lazy
         :class:`~repro.matching.decisions.DecisionVector`.

    The contract: for any chunking of the candidate list,
    ``score_profiled(prepare_profiles(records), ids)`` holds bitwise the
    probabilities :meth:`predict_proba` gives on the corresponding record
    pairs — profiles precompute record-local work, they never change it.
    The protocol-conformance lint rule checks that the flag and both
    methods are declared together.
    """

    #: Decision threshold applied to the match probability.
    threshold: float = 0.5

    #: Whether this matcher implements the columnar two-phase protocol:
    #: ``prepare_profiles`` + ``score_profiled``, returning the probability
    #: vector as one float64 array with no per-pair Python in the scoring
    #: loop.
    columnar_capable: bool = False

    @abstractmethod
    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        """Return the match probability for every pair, in order."""

    def predict(self, pairs: Sequence[RecordPair]) -> list[bool]:
        """Apply the decision threshold to :meth:`predict_proba`."""
        return [p >= self.threshold for p in self.predict_proba(pairs)]

    def decide(self, pairs: Sequence[RecordPair]) -> list[MatchDecision]:
        """Return full decisions (ids, probability, verdict) for every pair."""
        probabilities = self.predict_proba(pairs)
        return [
            MatchDecision(
                left_id=left.record_id,
                right_id=right.record_id,
                probability=probability,
                is_match=probability >= self.threshold,
            )
            for (left, right), probability in zip(pairs, probabilities)
        ]

    def decide_batches(
        self, batches: Sequence[Sequence[RecordPair]]
    ) -> list[list[MatchDecision]]:
        """Decide several batches of pairs through one batched entry point.

        This is the inference path of the execution engine: each batch is
        one (vectorised) :meth:`decide` call, so per-call overhead is
        amortized over ``batch_size`` pairs while the *numeric batch shape
        stays exactly the chunking the engine chose*.  That shape stability
        is deliberate — BLAS reductions are not bitwise-reproducible across
        matrix shapes, so flattening batches into one fused call can flip
        borderline probabilities at the last ULP and break the engine's
        serial/parallel determinism guarantee.  Matchers whose arithmetic
        is shape-independent may override this with a fused implementation.
        """
        return [self.decide(batch) for batch in batches]

    # -- columnar inference (opt-in) --------------------------------------------

    def prepare_profiles(self, records: Iterable[Record]) -> Any:
        """Phase 1 of the columnar protocol: per-record state, built once.

        Runs in the parent process; the returned object is shipped to every
        worker out of band (never per chunk) and must be picklable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support columnar scoring "
            "(columnar_capable=False)"
        )

    def score_profiled(self, profiles: Any, id_pairs: Sequence[IdPair]) -> np.ndarray:
        """Phase 2: the probability vector for one chunk of id pairs.

        Returns a float64 array of length ``len(id_pairs)`` whose values are
        bitwise those :meth:`predict_proba` gives on the corresponding
        record pairs — the columnar route changes where the arithmetic runs
        (array expressions over the store's columns), never what it
        computes.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support columnar scoring "
            "(columnar_capable=False)"
        )

    def score_pairs(self, pairs: Sequence[RecordPair]) -> list[ScoredPair]:
        """Return scored pairs without applying the threshold."""
        probabilities = self.predict_proba(pairs)
        return [
            ScoredPair(left.record_id, right.record_id, probability)
            for (left, right), probability in zip(pairs, probabilities)
        ]


class EmptyTrainingSetError(ValueError):
    """``fit`` got no labelled pairs, e.g. a corpus with a single record."""

    def __init__(self) -> None:
        super().__init__("cannot fit on an empty training set")


class TrainablePairwiseMatcher(PairwiseMatcher):
    """A matcher that is fine-tuned on labelled pairs before use."""

    @abstractmethod
    def fit(
        self,
        pairs: Sequence[RecordPair],
        labels: Sequence[int],
        validation_pairs: Sequence[RecordPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "TrainablePairwiseMatcher":
        """Train on labelled pairs (1 = match, 0 = non-match)."""
