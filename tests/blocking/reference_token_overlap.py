"""Scalar reference implementation of token-overlap blocking (test oracle).

This is the dict-based index and the per-record scoring loop that
:class:`~repro.blocking.token_overlap.TokenOverlapBlocking` used before its
CSR array kernel.  Each record's score against every co-occurring record of
another source is the IDF weight ``1 + log(N / df)`` summed over their
shared tokens in sorted-token order; the top-n by ``(-score, record id)``
become the record's candidates.  The array kernel must reproduce this loop
bit for bit, including exact score ties and 1-ULP summation-order effects.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from collections.abc import Sequence

from repro.blocking.base import CandidatePair, dedupe_pairs
from repro.blocking.token_overlap import TokenOverlapBlocking
from repro.datagen.records import Dataset, Record


@dataclass(frozen=True)
class ReferenceIndex:
    #: record id -> sorted token tuple, in dataset order.
    record_tokens: dict[str, tuple[str, ...]]
    #: token -> number of tokenised records containing it.
    document_frequency: Counter
    #: token -> record ids containing it (cutoff survivors only), dataset order.
    token_index: dict[str, list[str]]
    #: record id -> source name.
    sources: dict[str, str]
    #: records with at least one token (at least 1).
    num_tokenised: int


def reference_prepare(
    blocking: TokenOverlapBlocking, dataset: Dataset
) -> ReferenceIndex:
    record_tokens = {
        record.record_id: tuple(sorted(blocking._tokens(record)))
        for record in dataset
    }
    document_frequency: Counter[str] = Counter()
    for tokens in record_tokens.values():
        document_frequency.update(tokens)
    num_tokenised = max(sum(1 for tokens in record_tokens.values() if tokens), 1)
    frequency_cutoff = blocking.max_token_frequency * num_tokenised
    token_index: dict[str, list[str]] = defaultdict(list)
    for record_id, tokens in record_tokens.items():
        for token in tokens:
            if document_frequency[token] <= frequency_cutoff:
                token_index[token].append(record_id)
    return ReferenceIndex(
        record_tokens=record_tokens,
        document_frequency=document_frequency,
        token_index=dict(token_index),
        sources={record.record_id: record.source for record in dataset},
        num_tokenised=num_tokenised,
    )


def reference_candidates_for(
    blocking: TokenOverlapBlocking,
    shared: ReferenceIndex,
    records: Sequence[Record],
) -> list[CandidatePair]:
    pairs: list[CandidatePair] = []
    for record in records:
        record_id = record.record_id
        scores: dict[str, float] = defaultdict(float)
        for token in shared.record_tokens[record_id]:
            candidates = shared.token_index.get(token, ())
            if not candidates:
                continue
            weight = 1.0 + math.log(
                shared.num_tokenised / shared.document_frequency[token]
            )
            for other_id in candidates:
                if other_id == record_id:
                    continue
                if shared.sources[other_id] == shared.sources[record_id]:
                    continue
                scores[other_id] += weight
        best = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        for other_id, _ in best[: blocking.top_n]:
            pairs.append(blocking._make_pair(record_id, other_id))
    return pairs


def reference_candidate_pairs(
    blocking: TokenOverlapBlocking, dataset: Dataset
) -> list[CandidatePair]:
    shared = reference_prepare(blocking, dataset)
    return dedupe_pairs(reference_candidates_for(blocking, shared, dataset.records))
