"""The blocking interface.

A blocking takes a :class:`~repro.datagen.records.Dataset` and returns
*candidate pairs* — unordered pairs of record ids that the pairwise matcher
will evaluate.  Each candidate remembers which blocking produced it, because
the Pre Graph Cleanup step of GraLMatch treats token-overlap candidates in
very large components specially (Section 4.2.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.datagen.records import Dataset, Record
from repro.graphs.graph import canonical_edge


@dataclass(frozen=True)
class CandidatePair:
    """An unordered candidate pair, tagged with its originating blocking."""

    left_id: str
    right_id: str
    blocking: str

    @property
    def key(self) -> tuple[str, str]:
        return canonical_edge(self.left_id, self.right_id)  # type: ignore[return-value]


@dataclass(frozen=True)
class BlockingDelta:
    """Result of one incremental index update (:meth:`Blocking.delta_update`).

    ``shared`` is the updated shared state; ``dirty_record_ids`` are the
    *pre-existing* records whose :meth:`Blocking.candidates_for` output may
    differ under the new state and must therefore be rescored (the newly
    ingested records are always rescored, so they are never listed here).
    """

    shared: Any
    dirty_record_ids: frozenset[str] = field(default_factory=frozenset)


class Blocking(ABC):
    """Base class for candidate pair generators.

    Besides the one-shot :meth:`candidate_pairs` entry point, a blocking may
    opt into the *record-sharded* two-phase protocol (``shardable = True``):

    1. :meth:`prepare` scans the whole dataset once and returns the shared
       state every shard needs (inverted indexes, document frequencies,
       source maps).  This phase is global on purpose — naive dataset
       partitioning would change token document frequencies and per-record
       top-n selections, silently altering the candidates.
    2. :meth:`candidates_for` scores one chunk of records against the
       shared state, embarrassingly parallel across chunks.

    The contract that makes sharded execution byte-identical to serial:
    splitting the dataset's records into consecutive chunks (in dataset
    order), concatenating ``candidates_for(shared, chunk)`` over the chunks
    and de-duplicating with :func:`dedupe_pairs` must reproduce
    ``candidate_pairs(dataset)`` exactly — same pairs, same order, same
    tags.  Shardable blockings therefore implement ``candidate_pairs`` *in
    terms of* the two-phase form, and each blocking owns the rule that
    assigns a pair to exactly one chunk (see the individual blockings).
    """

    #: Name recorded on every emitted candidate pair.
    name: str = "blocking"

    #: Whether this blocking implements the two-phase sharded protocol.
    shardable: bool = False

    #: Whether this blocking implements the incremental index-update protocol
    #: (:meth:`delta_update`) on top of the sharded one.
    delta_capable: bool = False

    @abstractmethod
    def candidate_pairs(self, dataset: Dataset) -> list[CandidatePair]:
        """Return the candidate pairs for ``dataset``."""

    def prepare(self, dataset: Dataset) -> Any:
        """Phase 1 of the sharded protocol: build the chunk-shared state.

        Runs once, in the parent process; the returned object is shipped to
        every worker (for process pools: pickled once per epoch, fetched
        and cached worker-side) and must be picklable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support record-sharded "
            "candidate generation (shardable=False)"
        )

    def candidates_for(
        self, shared: Any, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Phase 2: the candidate pairs owned by one chunk of records.

        ``records`` is a consecutive slice of the dataset's records in
        dataset order.  Results are raw (not de-duplicated): the engine
        concatenates all chunks and de-duplicates once globally, because a
        duplicate pair's two endpoints may live in different chunks.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support record-sharded "
            "candidate generation (shardable=False)"
        )

    def owned_candidates(
        self, shared: Any, records: Sequence[Record]
    ) -> list[tuple[CandidatePair, ...]]:
        """Each record's :meth:`candidates_for` output, aligned with ``records``.

        Single-record chunks are a valid chunking under the shardable
        contract, so each tuple is exactly that record's slice of the serial
        emission stream — what the incremental matcher splices into its
        per-record candidate map.  Blockings that score records in blocks
        override this to score the whole sequence at once.
        """
        return [tuple(self.candidates_for(shared, (record,))) for record in records]

    def delta_update(
        self, shared: Any, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Fold newly ingested records into an existing shared state.

        ``dataset`` is the *full* dataset with ``new_records`` already
        appended (in ingestion order); ``shared`` is the state built for the
        dataset *without* them.  The contract that makes incremental
        ingestion byte-identical to a one-shot batch run:

        1. the returned ``shared`` must equal ``prepare(dataset)`` — the
           delta path may reuse cached derivations (tokenisations, postings)
           but never diverge from the global rebuild, and
        2. for every pre-existing record *not* in ``dirty_record_ids``,
           ``candidates_for(new_shared, [record])`` must equal
           ``candidates_for(old_shared, [record])`` — dirtiness may be
           conservative (listing too many records costs rescoring time, not
           correctness), never optimistic.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental index "
            "updates (delta_capable=False)"
        )

    def partition(self) -> list["Blocking"]:
        """Independent sub-blockings the execution engine may fan out.

        A plain blocking is its own single partition.  Composite blockings
        override this to expose their parts; the engine runs each part as
        one pool task and merges the results in declaration order, so the
        parallel merge keeps the first-blocking-wins de-duplication
        semantics of :class:`~repro.blocking.combine.CombinedBlocking`.
        Record sharding composes with partitioning: the engine shards each
        *part* that is shardable, still merging parts in declaration order.
        """
        return [self]

    def _make_pair(self, left: Record | str, right: Record | str) -> CandidatePair:
        left_id = left if isinstance(left, str) else left.record_id
        right_id = right if isinstance(right, str) else right.record_id
        first, second = canonical_edge(left_id, right_id)
        return CandidatePair(first, second, self.name)


def dedupe_pairs(pairs: list[CandidatePair]) -> list[CandidatePair]:
    """Remove duplicate candidate pairs, keeping the first blocking that found each."""
    seen: set[tuple[str, str]] = set()
    unique: list[CandidatePair] = []
    for pair in pairs:
        if pair.key in seen:
            continue
        seen.add(pair.key)
        unique.append(pair)
    return unique


def recall_of_blocking(pairs: list[CandidatePair], dataset: Dataset) -> float:
    """Share of ground-truth matches covered by the candidate pairs.

    This is the quantity that upper-bounds the pipeline's recall: true pairs
    discarded by the blocking can never be recovered later (Section 5.3.2).
    """
    true_matches = dataset.true_matches()
    if not true_matches:
        return 1.0
    found = {pair.key for pair in pairs}
    return len(true_matches & found) / len(true_matches)
