"""Token Overlap blocking.

"Considers each record as the list of tokens resulting from its tokenization
and selects as candidate pairs those involving the record and the top-n
records with most overlapping tokens across different data sources"
(Section 5.3.1).

The implementation builds an inverted token index over the records' textual
attributes, scores co-occurring records by the number of shared tokens
(weighted by inverse token frequency so that ubiquitous corporate terms do
not dominate) and keeps the top-n per record.  This is the blocking that
creates the hard look-alike candidates (Crowdstrike vs Crowdstreet) that the
GraLMatch clean-up later has to deal with.

Candidate generation is a self-join on tokens, so it runs set-at-a-time:
the index is a pair of CSR arrays over interned token ids, and a block of
records is scored with one ``np.add.at`` over the concatenated postings of
its tokens.  Incremental ingestion keeps a per-record *margin certificate*
(:class:`TokenMargins`) so that a delta rescores only the records whose
top-n it can change (see :meth:`TokenOverlapBlocking.delta_update`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from collections.abc import Container, Iterable, Sequence
from typing import Any

import numpy as np

from repro.blocking.base import Blocking, BlockingDelta, CandidatePair, dedupe_pairs
from repro.datagen.records import Dataset, Record
from repro.registry import register_blocking
from repro.text.tokenize import word_tokenize

#: Dense scratch cells (records scored × corpus size) of one scoring block.
#: It bounds the block's temporaries too: about a quarter-million cells keeps
#: a block's working set to a few MB (peak RSS is a benchmarked metric).
BLOCK_CELLS = 1 << 18

#: Records with more tokens than this never hold a certificate (their shared
#: token sets are tracked as int64 bitmasks over token positions).
MAX_CERTIFIED_TOKENS = 62

#: Relative slack of the envelope test: it absorbs the rounding of summed
#: float weights, which the bound itself reasons about exactly.
ENVELOPE_SLACK = 1e-9

_EMPTY = np.zeros(0, dtype=np.int64)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start, stop)`` over aligned bound arrays."""
    lengths = stops - starts
    total = int(lengths.sum())
    if not total:
        return _EMPTY
    offsets = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lengths)


@dataclass(frozen=True, eq=False)
class TokenMargins:
    """Per-record certificates that a record's top-n is unchanged by a delta.

    Rows align with :attr:`TokenIndex.record_ids`.  For a record ``r`` with
    a certificate, ``kept[r]`` is its emitted top-n (record indices in rank
    order, ``-1`` padded) and ``envelope[r, m - 1]`` the highest score of any
    *other* candidate sharing ``m`` tokens with it, computed when the corpus
    had ``basis[r]`` tokenised records.  An IDF weight ``1 + log(N / df)``
    rises by at most ``log(N' / N)`` as the corpus grows to ``N'`` (document
    frequencies never fall), so that candidate's score can reach at most
    ``envelope[r, m - 1] + m * log(N' / basis[r])`` — as long as none of
    ``r``'s tokens re-enters the index past the frequency cutoff.
    Candidates whose shared tokens equal the n-th kept candidate's are left
    out: their sums are bitwise equal to it and a later id loses the tie.
    """

    #: Whether the row holds a certificate (false: rescore on the next delta).
    certified: np.ndarray
    #: Emitted candidates per record, in rank order, ``-1`` padded.
    kept: np.ndarray
    #: Best non-kept score per shared-token count (column ``m - 1``).
    envelope: np.ndarray
    #: ``num_tokenised`` the row's scores were computed at.
    basis: np.ndarray

    def __len__(self) -> int:
        return len(self.certified)


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """Shared state of the two-phase protocol: one global pass over the data.

    Built once by :meth:`TokenOverlapBlocking.prepare`; scoring a chunk of
    records reads it without touching the dataset again.  Global on purpose:
    document frequencies and the frequency cutoff computed per chunk would
    differ from the batch run and change per-record top-n selections.

    Everything is interned: records are indexed in dataset order, tokens in
    first-seen order (dataset order, sorted within a record), sources in
    first-seen order — so folding new records into an index yields exactly
    the index of the full dataset.  Equality compares every field except
    :attr:`margins`, which only the incremental path maintains.
    """

    #: Record ids in dataset order (the row/column order of every array).
    record_ids: tuple[str, ...]
    #: Interned source names, and each record's source code.
    source_names: tuple[str, ...]
    record_sources: np.ndarray
    #: Interned tokens; a token's id is its position.
    tokens: tuple[str, ...]
    #: CSR of each record's token ids, in sorted *token-string* order: the
    #: order IDF weights are summed in, identical in the parent and in
    #: spawn-started pool workers (1-ULP summation differences could flip
    #: top-n boundary candidates).
    token_ptr: np.ndarray
    token_ids: np.ndarray
    #: Per token id: number of tokenised records containing it.
    document_frequency: np.ndarray
    #: CSR inverted index: record indices (ascending) per token id, for
    #: tokens within the frequency cutoff; empty for the others.
    postings_ptr: np.ndarray
    postings: np.ndarray
    #: IDF denominator: records with at least one token.  Token-less records
    #: can never be candidates, so counting them would only dilute the IDF
    #: weights and inflate the frequency cutoff.
    num_tokenised: int
    #: Delta certificates (``None`` until an incremental update computes
    #: them; :meth:`TokenOverlapBlocking.prepare` computes none).
    margins: TokenMargins | None = field(default=None, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenIndex):
            return NotImplemented
        for spec in fields(self):
            if not spec.compare:
                continue
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, np.ndarray):
                if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # Fields only: the cached lookups below are rebuilt on demand.
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        if "token_index" in state:
            # Match-state formats 1–2 pickled the dict-based index.
            state = _from_dict_layout(state)
        for spec in fields(self):
            object.__setattr__(self, spec.name, state.get(spec.name, spec.default))

    # -- derived lookups (cached per instance, never pickled) ----------------

    @cached_property
    def weights(self) -> np.ndarray:
        """IDF weight ``1 + log(N / df)`` per token id.

        Computed with :func:`math.log` over the distinct frequencies, so the
        kernel adds exactly the floats the scalar per-record loop added.
        """
        distinct, inverse = np.unique(self.document_frequency, return_inverse=True)
        table = np.array(
            [1.0 + math.log(self.num_tokenised / df) for df in distinct.tolist()],
            dtype=np.float64,
        )
        return table[inverse] if len(table) else np.zeros(0, dtype=np.float64)

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each record's position in record-id order (the tie-break key)."""
        order = sorted(range(len(self.record_ids)), key=self.record_ids.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        return rank

    @cached_property
    def record_index(self) -> dict[str, int]:
        return {record_id: row for row, record_id in enumerate(self.record_ids)}

    @cached_property
    def token_lookup(self) -> dict[str, int]:
        return {token: token_id for token_id, token in enumerate(self.tokens)}

    @cached_property
    def posting_keys(self) -> np.ndarray:
        """``token_id * N + record`` per posting — ascending, for membership
        lookups by binary search."""
        counts = np.diff(self.postings_ptr)
        token_of = np.repeat(np.arange(len(self.tokens), dtype=np.int64), counts)
        return token_of * len(self.record_ids) + self.postings

    # -- queries -------------------------------------------------------------

    def rows_of(self, records: Sequence[Record]) -> np.ndarray:
        return np.fromiter(
            (self.record_index[record.record_id] for record in records),
            dtype=np.int64,
            count=len(records),
        )

    def token_counts(self) -> np.ndarray:
        return np.diff(self.token_ptr)


def _empty_index() -> TokenIndex:
    return TokenIndex(
        record_ids=(),
        source_names=(),
        record_sources=_EMPTY,
        tokens=(),
        token_ptr=np.zeros(1, dtype=np.int64),
        token_ids=_EMPTY,
        document_frequency=_EMPTY,
        postings_ptr=np.zeros(1, dtype=np.int64),
        postings=_EMPTY,
        num_tokenised=1,
    )


def _append(
    shared: TokenIndex,
    rows: Iterable[tuple[str, str, Sequence[str]]],
    max_token_frequency: float,
    survivors: Container[str] | None = None,
) -> TokenIndex:
    """``shared`` extended by ``(record id, source, sorted tokens)`` rows.

    The rows are interned onto the record-token CSR; everything after that
    — document frequencies, the IDF denominator, the frequency cutoff and
    the inverted index — is re-assembled from the whole interned
    tokenisation (in dataset order): the IDF denominator and the cutoff move
    with every tokenised arrival, which can flip any token's cutoff status.
    An index grown by deltas therefore equals the index of the full dataset
    by construction.  ``survivors`` (the tokens known to pass the cutoff)
    replaces the cutoff test when given.
    """
    token_lookup = dict(shared.token_lookup)
    source_lookup = {name: code for code, name in enumerate(shared.source_names)}
    record_ids: list[str] = []
    sources: list[int] = []
    new_counts: list[int] = []
    new_token_ids: list[int] = []
    for record_id, source, tokens in rows:
        record_ids.append(record_id)
        sources.append(source_lookup.setdefault(source, len(source_lookup)))
        new_counts.append(len(tokens))
        for token in tokens:
            new_token_ids.append(token_lookup.setdefault(token, len(token_lookup)))
    token_ptr = np.concatenate(
        [shared.token_ptr, shared.token_ptr[-1] + np.cumsum(new_counts, dtype=np.int64)]
    )
    token_ids = np.concatenate([shared.token_ids, np.array(new_token_ids, dtype=np.int64)])
    vocabulary = len(token_lookup)
    document_frequency = np.bincount(token_ids, minlength=vocabulary).astype(np.int64)
    counts = np.diff(token_ptr)
    num_tokenised = max(int(np.count_nonzero(counts)), 1)
    if survivors is None:
        surviving = document_frequency <= max_token_frequency * num_tokenised
    else:
        surviving = np.array([token in survivors for token in token_lookup], dtype=bool)
    keep = surviving[token_ids]
    kept_tokens = token_ids[keep]
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # A stable sort by token keeps each posting list in ascending record order.
    order = np.argsort(kept_tokens, kind="stable")
    postings_ptr = np.zeros(vocabulary + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_tokens, minlength=vocabulary), out=postings_ptr[1:])
    return TokenIndex(
        record_ids=shared.record_ids + tuple(record_ids),
        source_names=tuple(source_lookup),
        record_sources=np.concatenate(
            [shared.record_sources, np.array(sources, dtype=np.int64)]
        ),
        tokens=tuple(token_lookup),
        token_ptr=token_ptr,
        token_ids=token_ids,
        document_frequency=document_frequency,
        postings_ptr=postings_ptr,
        postings=owners[keep][order],
        num_tokenised=num_tokenised,
    )


def _from_dict_layout(state: dict[str, Any]) -> dict[str, Any]:
    """Convert a pickled dict-layout index (record id -> sorted token tuple,
    token -> posting list, record id -> source) into this layout's fields.

    The old posting lists name the tokens that passed the frequency cutoff,
    so the cutoff itself is not needed.  The result has no margins: every
    record counts as dirty once, on the next delta, which computes them.
    """
    sources = state["sources"]
    rows = (
        (record_id, sources[record_id], tokens)
        for record_id, tokens in state["record_tokens"].items()  # repro-lint: disable=unordered-iteration -- insertion-ordered: dataset order
    )
    index = _append(_empty_index(), rows, 1.0, survivors=state["token_index"])
    return index.__getstate__()


def _top_n_floor(
    values: np.ndarray, segments: np.ndarray, segment_of: np.ndarray, top_n: int
) -> np.ndarray:
    """Per segment of ``values`` (positive, grouped): the n-th largest value
    counting ties, or 0.0 where the segment holds fewer than n values.

    Each pass peels one distinct value level off every open segment, so it
    takes at most ``top_n`` linear passes — no sort of the whole block.
    """
    remaining = values.copy()
    floor = np.zeros(len(segments), dtype=np.float64)
    above = np.zeros(len(segments), dtype=np.int64)
    open_segments = np.ones(len(segments), dtype=bool)
    for _ in range(top_n):
        peak = np.maximum.reduceat(remaining, segments)
        at_peak = remaining == peak[segment_of]
        above += np.add.reduceat(at_peak, segments, dtype=np.int64)
        reached = open_segments & (peak > 0.0) & (above >= top_n)
        floor[reached] = peak[reached]
        open_segments &= ~reached
        if not open_segments.any():
            break
        remaining[at_peak] = 0.0
    return floor


def _rank_block(
    index: TokenIndex,
    rows: np.ndarray,
    top_n: int,
    scratch: np.ndarray,
    envelope_width: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Score ``rows`` against the whole index and keep each row's top-n.

    One gather over the rows' concatenated postings gives every (row,
    candidate) contribution, in each row's sorted-token order.  The dense
    ``(len(rows), N)`` ``scratch`` interns the touched cells, and one
    unbuffered ``np.add.at`` sums each cell's weights in that order — every
    score is bitwise the scalar loop's left-to-right sum.  Selection keeps
    the cells at or above each row's n-th largest score, then orders those
    (ties included) by ``(-score, record id)``.

    Returns the kept candidates (record indices in rank order, ``-1``
    padded) and, with ``envelope_width``, the rows' margin envelopes from
    the same pass (see :class:`TokenMargins`).
    """
    num_records = len(index.record_ids)
    block = len(rows)
    starts, stops = index.token_ptr[rows], index.token_ptr[rows + 1]
    lengths = stops - starts
    entries = _ranges(starts, stops)
    tokens = index.token_ids[entries]
    posting_starts = index.postings_ptr[tokens]
    posting_counts = index.postings_ptr[tokens + 1] - posting_starts
    others = index.postings[_ranges(posting_starts, posting_starts + posting_counts)]
    token_of = np.repeat(np.arange(len(tokens), dtype=np.int64), posting_counts)
    row_of = np.repeat(np.repeat(np.arange(block, dtype=np.int64), lengths), posting_counts)
    selves = rows[row_of]
    keep = (others != selves) & (
        index.record_sources[others] != index.record_sources[selves]
    )
    token_of, others = token_of[keep], others[keep]
    cells = row_of[keep] * num_records + others
    # Intern the touched cells: whichever contribution's write lands, the
    # scratch names one representative per cell.  Rows stay grouped.
    contributions = np.arange(len(cells), dtype=scratch.dtype)
    scratch[cells] = contributions
    representative = scratch[cells]
    first = representative == contributions
    compact = np.cumsum(first) - 1
    cell_of = compact[representative]
    scores = np.zeros(int(first.sum()), dtype=np.float64)
    np.add.at(scores, cell_of, index.weights[tokens[token_of]])
    cell_rows = row_of[keep][first]
    cell_others = others[first]

    kept = np.full((block, top_n), -1, dtype=np.int64)
    if not len(scores):
        envelope = None if envelope_width is None else np.full((block, envelope_width), -np.inf)
        return kept, envelope
    segments = np.flatnonzero(np.diff(cell_rows, prepend=-1))
    segment_of = np.cumsum(np.diff(cell_rows, prepend=-1) != 0) - 1
    floor = _top_n_floor(scores, segments, segment_of, top_n)
    candidates = np.flatnonzero(scores >= floor[segment_of])
    order = np.lexsort((
        index.id_rank[cell_others[candidates]],
        -scores[candidates],
        cell_rows[candidates],
    ))
    candidates = candidates[order]
    candidate_rows = cell_rows[candidates]
    rank_in_row = np.arange(len(candidates)) - np.searchsorted(candidate_rows, candidate_rows)
    chosen = candidates[rank_in_row < top_n]
    kept[cell_rows[chosen], rank_in_row[rank_in_row < top_n]] = cell_others[chosen]
    if envelope_width is None:
        return kept, None

    # Margins: each cell's shared-token set as a bitmask over the row's
    # token positions (rows past MAX_CERTIFIED_TOKENS are never certified,
    # so clamping their positions is harmless).
    position = entries - np.repeat(starts, lengths)
    bits = np.zeros(len(scores), dtype=np.int64)
    shifts = np.minimum(position[token_of], MAX_CERTIFIED_TOKENS)
    np.add.at(bits, cell_of, np.left_shift(np.int64(1), shifts))
    nth_bits = np.zeros(block, dtype=np.int64)
    last = chosen[rank_in_row[rank_in_row < top_n] == top_n - 1]
    nth_bits[cell_rows[last]] = bits[last]
    # Bitwise ties of the n-th kept candidate (same shared tokens) rank
    # after it forever; every other non-kept candidate enters the envelope.
    rest = np.ones(len(scores), dtype=bool)
    rest[chosen] = False
    rest &= bits != nth_bits[cell_rows]
    envelope = np.full((block, envelope_width), -np.inf)
    np.maximum.at(
        envelope,
        (cell_rows[rest], np.bitwise_count(bits[rest]).astype(np.int64) - 1),
        scores[rest],
    )
    return kept, envelope


def _score_pairs(
    index: TokenIndex, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact scores of ``(left[i], right[i])`` pairs, summed in the left
    record's sorted-token order (bitwise the kernel's cell sums), and each
    pair's shared-token bitmask over the left record's token positions."""
    starts, stops = index.token_ptr[left], index.token_ptr[left + 1]
    lengths = stops - starts
    entries = _ranges(starts, stops)
    pair_of = np.repeat(np.arange(len(left), dtype=np.int64), lengths)
    position = entries - np.repeat(starts, lengths)
    tokens = index.token_ids[entries]
    query = tokens * len(index.record_ids) + right[pair_of]
    keys = index.posting_keys
    found = np.minimum(np.searchsorted(keys, query), max(len(keys) - 1, 0))
    hit = keys[found] == query if len(keys) else np.zeros(len(query), dtype=bool)
    scores = np.zeros(len(left), dtype=np.float64)
    np.add.at(scores, pair_of[hit], index.weights[tokens[hit]])
    bits = np.zeros(len(left), dtype=np.int64)
    shifts = np.minimum(position[hit], MAX_CERTIFIED_TOKENS)
    np.add.at(bits, pair_of[hit], np.left_shift(np.int64(1), shifts))
    return scores, bits


def _ranks_before(
    score: np.ndarray, rank: np.ndarray, other_score: np.ndarray, other_rank: np.ndarray
) -> np.ndarray:
    """Whether a candidate precedes another under ``(-score, id)``."""
    return (score > other_score) | ((score == other_score) & (rank < other_rank))


@register_blocking("token_overlap")
class TokenOverlapBlocking(Blocking):
    """Top-n most token-overlapping records across different sources."""

    name = "token_overlap"
    shardable = True
    delta_capable = True

    def __init__(
        self,
        top_n: int = 5,
        attributes: tuple[str, ...] = ("name", "title"),
        min_token_length: int = 2,
        max_token_frequency: float = 0.25,
    ) -> None:
        if top_n < 1:
            raise ValueError("top_n must be at least 1")
        if not 0.0 < max_token_frequency <= 1.0:
            raise ValueError("max_token_frequency must be in (0, 1]")
        self.top_n = top_n
        self.attributes = attributes
        self.min_token_length = min_token_length
        #: Tokens appearing in more than this share of records are ignored —
        #: they would otherwise produce quadratic blow-ups ("inc", "corp").
        self.max_token_frequency = max_token_frequency

    def candidate_pairs(self, dataset: Dataset) -> list[CandidatePair]:
        shared = self.prepare(dataset)
        return dedupe_pairs(self.candidates_for(shared, dataset.records))

    def prepare(self, dataset: Dataset) -> TokenIndex:
        """Build the inverted token index and document frequencies once."""
        return self._extend(_empty_index(), dataset.records)

    def _extend(self, shared: TokenIndex, new_records: Sequence[Record]) -> TokenIndex:
        """``shared`` with ``new_records`` tokenised and folded in."""
        rows = (
            (record.record_id, record.source, sorted(self._tokens(record)))
            for record in new_records
        )
        return _append(shared, rows, self.max_token_frequency)

    def delta_update(
        self, shared: TokenIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Fold new records in, rescoring only records they can affect.

        Only the new records are tokenised; the index is re-assembled from
        the cached tokenisation.  IDF weights ``1 + log(N / df)`` are
        global, so a tokenised arrival shifts every weight — but a
        pre-existing record stays clean when its margin certificate
        (:class:`TokenMargins`) proves its ranked top-n cannot change:

        * none of its tokens newly entered the index past the cutoff;
        * its kept candidates, rescored exactly under the new weights,
          keep their order;
        * every new record sharing a token with it, scored exactly, ranks
          after its n-th kept candidate;
        * every other candidate's score, bounded by the envelope
          ``max_m (S_m + m·log(N'/N_last))``, stays below the n-th kept
          candidate's new score.

        A clean record folds this delta's new candidates into its envelope,
        so the next delta checks against a current tail.  Records without a
        certificate (a :meth:`prepare`-built index, a state saved before
        certificates existed) are dirty once; dirty and new records get
        fresh certificates from one margin-computing pass of the kernel.
        Token-less new records touch nothing and dirty nothing.
        """
        index = self._extend(shared, new_records)
        old_count = len(shared.record_ids)
        counts = index.token_counts()
        if not counts[old_count:].any():
            # No tokenised arrival: weights, cutoff and postings are as before.
            return BlockingDelta(
                shared=_with_margins(index, _grow(shared.margins, index, self.top_n)),
                dirty_record_ids=frozenset(),
            )
        old_rows = np.flatnonzero(counts[:old_count])
        if shared.margins is None:
            clean = np.zeros(0, dtype=np.int64)
            margins = _grow(_uncertified(old_count, self.top_n), index, self.top_n)
        else:
            margins = _grow(shared.margins, index, self.top_n)
            clean = self._certify(shared, index, margins, old_rows)
        dirty = np.setdiff1d(old_rows, clean)
        new_rows = old_count + np.flatnonzero(counts[old_count:])
        margins = self._recertify(index, margins, np.concatenate([dirty, new_rows]))
        return BlockingDelta(
            shared=_with_margins(index, margins),
            dirty_record_ids=frozenset(index.record_ids[row] for row in dirty.tolist()),
        )

    def _certify(
        self,
        shared: TokenIndex,
        index: TokenIndex,
        margins: TokenMargins,
        rows: np.ndarray,
    ) -> np.ndarray:
        """The pre-existing tokenised ``rows`` whose certificate holds under
        ``index``; folds new candidates into their envelopes in place."""
        old_count = len(shared.record_ids)
        counts = index.token_counts()
        # Tokens that crossed back under the cutoff bring candidates the
        # envelope never saw.
        entered = (np.diff(index.postings_ptr[: len(shared.tokens) + 1]) > 0) & (
            np.diff(shared.postings_ptr) == 0
        )
        entries = index.token_ids[: index.token_ptr[old_count]]
        owner = np.repeat(np.arange(old_count, dtype=np.int64), counts[:old_count])
        reentered = np.bincount(owner[entered[entries]], minlength=old_count) > 0
        rows = rows[margins.certified[rows] & ~reentered[rows]]
        if not len(rows):
            return rows

        rank = index.id_rank
        top_n = self.top_n
        kept = margins.kept[rows]
        has = kept >= 0
        kept_count = has.sum(axis=1)
        full = kept_count == top_n
        kept_scores = np.full(kept.shape, -np.inf)
        kept_bits = np.zeros(kept.shape, dtype=np.int64)
        slot_rows, slot_cols = np.nonzero(has)
        kept_scores[slot_rows, slot_cols], kept_bits[slot_rows, slot_cols] = _score_pairs(
            index, rows[slot_rows], kept[slot_rows, slot_cols]
        )
        kept_rank = rank[np.maximum(kept, 0)]
        ordered = ~has[:, 1:] | _ranks_before(
            kept_scores[:, :-1], kept_rank[:, :-1], kept_scores[:, 1:], kept_rank[:, 1:]
        )
        # A kept candidate whose shared tokens all left the index is gone.
        ok = ordered.all(axis=1) & ((kept_scores > 0.0) | ~has).all(axis=1)

        # New records sharing a surviving token with a certified row.
        slot = np.full(len(index.record_ids), -1, dtype=np.int64)
        slot[rows] = np.arange(len(rows))
        new_rows = np.arange(old_count, len(index.record_ids), dtype=np.int64)
        entries = _ranges(index.token_ptr[new_rows], index.token_ptr[new_rows + 1])
        arrivals = np.repeat(new_rows, counts[old_count:])
        tokens = index.token_ids[entries]
        posting_starts = index.postings_ptr[tokens]
        posting_counts = index.postings_ptr[tokens + 1] - posting_starts
        neighbours = index.postings[_ranges(posting_starts, posting_starts + posting_counts)]
        arrivals = np.repeat(arrivals, posting_counts)
        link = (slot[neighbours] >= 0) & (
            index.record_sources[neighbours] != index.record_sources[arrivals]
        )
        links = np.unique(neighbours[link] * len(index.record_ids) + arrivals[link])
        link_rows, link_new = np.divmod(links, len(index.record_ids))
        link_scores, link_bits = _score_pairs(index, link_rows, link_new)
        link_slot = slot[link_rows]
        nth = top_n - 1
        intrudes = ~full[link_slot] | _ranks_before(
            link_scores,
            rank[link_new],
            kept_scores[link_slot, nth],
            kept_rank[link_slot, nth],
        )
        ok &= np.bincount(link_slot[intrudes], minlength=len(rows)) == 0

        # The envelope: every other candidate's score, bounded above.
        growth = np.log(index.num_tokenised / margins.basis[rows])
        width = margins.envelope.shape[1]
        bound = (
            margins.envelope[rows]
            + np.arange(1, width + 1, dtype=np.float64) * growth[:, None]
        ).max(axis=1)
        nth_scores = kept_scores[:, nth]
        slack = ENVELOPE_SLACK * np.maximum(1.0, np.abs(nth_scores))
        ok &= ~full | (bound < nth_scores - slack)

        # Clean rows remember this delta's arrivals (all ranked after their
        # n-th) — bitwise ties of the n-th excepted, as in the kernel.
        fold = ok[link_slot] & (link_bits != kept_bits[link_slot, nth])
        np.maximum.at(
            margins.envelope,
            (
                link_rows[fold],
                np.bitwise_count(link_bits[fold]).astype(np.int64) - 1,
            ),
            link_scores[fold],
        )
        return rows[ok]

    def _recertify(
        self, index: TokenIndex, margins: TokenMargins, rows: np.ndarray
    ) -> TokenMargins:
        """Fresh certificates for ``rows`` from the margin-computing kernel."""
        width = margins.envelope.shape[1]
        blocks, scratch = self._blocks(index, rows)
        for block in blocks:
            margins.kept[block], margins.envelope[block] = _rank_block(
                index, block, self.top_n, scratch, width
            )
        margins.basis[rows] = index.num_tokenised
        margins.certified[rows] = index.token_counts()[rows] <= MAX_CERTIFIED_TOKENS
        return margins

    def _blocks(
        self, index: TokenIndex, rows: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Consecutive blocks of ``rows`` and one cell-interning scratch
        (at most about :data:`BLOCK_CELLS` cells) they all reuse."""
        size = max(1, min(len(rows), BLOCK_CELLS // max(len(index.record_ids), 1)))
        blocks = [rows[start:start + size] for start in range(0, len(rows), size)]
        return blocks, np.empty(size * len(index.record_ids), dtype=np.int32)

    def owned_candidates(
        self, shared: TokenIndex, records: Sequence[Record]
    ) -> list[tuple[CandidatePair, ...]]:
        """Each record's emitted pairs, scored in blocks by the array kernel."""
        rows = shared.rows_of(records)
        owned: list[tuple[CandidatePair, ...]] = [()] * len(rows)
        scored = np.flatnonzero(shared.token_counts()[rows])
        record_ids = shared.record_ids
        blocks, scratch = self._blocks(shared, scored)
        for block in blocks:
            kept, _ = _rank_block(shared, rows[block], self.top_n, scratch)
            for position, row, chosen in zip(
                block.tolist(), rows[block].tolist(), kept.tolist()
            ):
                record_id = record_ids[row]
                owned[position] = tuple(
                    self._make_pair(record_id, record_ids[other])
                    for other in chosen
                    if other >= 0
                )
        return owned

    def candidates_for(
        self, shared: TokenIndex, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Score one chunk of records against the global index.

        A pair is owned by the record whose top-n selection produced it, so
        every chunk emits exactly the pairs the serial per-record loop emits
        for its records — chunk concatenation reproduces the serial stream.
        """
        return [
            pair for owned in self.owned_candidates(shared, records) for pair in owned
        ]

    def postings_visited(self, shared: TokenIndex, records: Sequence[Record]) -> int:
        """Deterministic work of scoring ``records``: the posting entries
        the kernel gathers for them."""
        rows = shared.rows_of(records)
        tokens = shared.token_ids[_ranges(shared.token_ptr[rows], shared.token_ptr[rows + 1])]
        return int((shared.postings_ptr[tokens + 1] - shared.postings_ptr[tokens]).sum())

    def _tokens(self, record: Record) -> set[str]:
        tokens: set[str] = set()
        for attribute in self.attributes:
            value = getattr(record, attribute, None)
            if not value:
                continue
            tokens.update(
                token
                for token in word_tokenize(str(value))
                if len(token) >= self.min_token_length
            )
        return tokens


def _uncertified(rows: int, top_n: int) -> TokenMargins:
    return TokenMargins(
        certified=np.zeros(rows, dtype=bool),
        kept=np.full((rows, top_n), -1, dtype=np.int64),
        envelope=np.full((rows, 1), -np.inf),
        basis=np.ones(rows, dtype=np.int64),
    )


def _grow(margins: TokenMargins | None, index: TokenIndex, top_n: int) -> TokenMargins | None:
    """A writable copy of ``margins`` covering every record of ``index``:
    arrivals start uncertified unless token-less (those never have
    candidates), and the envelope widens to the longest record."""
    if margins is None:
        return None
    rows = len(index.record_ids)
    counts = index.token_counts()
    width = max(margins.envelope.shape[1], int(counts.max(initial=0)), 1)
    extra = rows - len(margins)
    envelope = np.full((rows, width), -np.inf)
    envelope[: len(margins), : margins.envelope.shape[1]] = margins.envelope
    return TokenMargins(
        certified=np.concatenate([margins.certified, counts[len(margins):] == 0]),
        kept=np.concatenate([margins.kept, np.full((extra, top_n), -1, dtype=np.int64)]),
        envelope=envelope,
        basis=np.concatenate([margins.basis, np.full(extra, index.num_tokenised, dtype=np.int64)]),
    )


def _with_margins(index: TokenIndex, margins: TokenMargins | None) -> TokenIndex:
    """Attach certificates to a freshly assembled index (kept, not copied,
    so the lookups the certification cached on it carry over)."""
    object.__setattr__(index, "margins", margins)
    return index
