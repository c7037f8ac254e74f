"""The pipeline execution engine.

:class:`PipelineRuntime` is the seam between the entity-group-matching
*logic* (blocking recipes, matchers, graph clean-up) and its *execution*
(batching, worker pools, profiling).  The pipeline delegates its two
data-parallel stages here:

* **candidate generation** — a composite blocking is partitioned into its
  independent sub-blockings, and each shardable sub-blocking is further
  split into record chunks (``blocking_shards``): the blocking's
  :meth:`~repro.blocking.base.Blocking.prepare` builds the shared state
  (inverted index, document frequencies) once in the parent, the per-chunk
  :meth:`~repro.blocking.base.Blocking.candidates_for` calls fan out over
  the pool, and the results merge parts-major / chunks-minor — declaration
  order first, record order second — before one global de-duplication, so
  first blocking wins on duplicates exactly like the serial
  :class:`~repro.blocking.combine.CombinedBlocking`,
* **pairwise inference** — candidates are chunked into ``batch_size``
  pairs, one matcher call per chunk — in-process under the serial engine,
  one pool task per chunk under the parallel engine — along one of two
  routes picked by the matcher's ``columnar_capable`` flag.  Columnar
  matchers get their
  :meth:`~repro.matching.base.PairwiseMatcher.prepare_profiles` run once
  here in the parent; the store ships to each worker out of band through
  the pool's epoch protocol (once per state revision), chunk tasks
  carry bare id pairs, run the matcher's vectorised ``score_profiled``
  kernel and return float64 probability arrays, and the engine hands back
  a lazy :class:`~repro.matching.decisions.DecisionVector`, so no per-pair
  decision object is built (or shipped) unless a consumer at the
  pipeline/API/CLI boundary indexes one.  Every other matcher gets chunks
  of record pairs through its batched
  :meth:`~repro.matching.base.PairwiseMatcher.decide_batches` entry
  point.

The runtime owns one persistent :class:`~repro.runtime.pool.WorkerPool`
(via its scheduler): spawned lazily on the first
parallel stage, reused across stage calls, pipeline runs and incremental
batches, released by :meth:`PipelineRuntime.close` (or the context-manager
protocol) — after which the next parallel call simply respawns it.

Determinism guarantee: chunk results are merged in submission order, every
matcher decision depends only on its own record pair, and the chunking — the
numeric batch shape a vectorised matcher sees — depends only on
``batch_size``, never on ``workers`` or the executor.  Runs that share a
``batch_size`` therefore produce identical decisions, edges and groups at
any worker count.  (Shape stability matters: BLAS reductions are not
bitwise-reproducible across matrix shapes, so re-batching can flip
borderline probabilities at the last ULP.)
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.blocking.base import Blocking, CandidatePair, dedupe_pairs
from repro.datagen.records import Dataset, Record
from repro.matching.base import IdPair, MatchDecision, PairwiseMatcher, RecordPair
from repro.matching.decisions import DecisionVector
from repro.obs.sinks import JsonlSink
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.runtime.config import RuntimeConfig
from repro.runtime.profiler import StageProfiler
from repro.runtime.scheduler import ChunkScheduler, chunked, even_spans


def _decide_chunk(
    matcher: PairwiseMatcher, pairs: list[RecordPair]
) -> list[MatchDecision]:
    """Worker task: one inference chunk (module-level for picklability).

    Goes through :meth:`decide_batches` — the same matcher entry point the
    serial engine uses — so a matcher that overrides the batched path
    behaves identically under both engines.
    """
    return matcher.decide_batches([pairs])[0]


@dataclass(frozen=True)
class _MatchingPlan:
    """Per-run shared state of the columnar inference route.

    The matcher and its prepared profile store ride to each process-pool
    worker out of band, so chunk tasks only carry id pairs.
    """

    matcher: PairwiseMatcher
    profiles: Any


def _score_profiled_chunk(
    plan: _MatchingPlan, id_pairs: list[tuple[str, str]]
) -> np.ndarray:
    """Worker task of the columnar route: one chunk's probability vector, as
    a float64 array — no per-pair decision objects are built (or pickled
    back) anywhere in the fan-out."""
    return plan.matcher.score_profiled(plan.profiles, id_pairs)


@dataclass(frozen=True)
class _BlockingPlan:
    """Per-run shared state shipped to every blocking worker once.

    ``parts`` are the partitioned sub-blockings, ``states`` their prepared
    shared state (``None`` for parts running unsharded), ``records`` the
    dataset's records (present when any task is sharded), ``dataset`` the
    full dataset (present only when some part runs unsharded).  Everything
    bulky rides here — shipped to process workers out of band (pickled once
    per epoch) — so the per-task payload is just a pair of indexes.
    """

    parts: tuple[Blocking, ...]
    states: tuple[Any, ...]
    records: tuple[Record, ...] | None
    dataset: Dataset | None


@dataclass(frozen=True)
class _BlockingTask:
    """One pool task: a record-index span of one part, or a whole unsharded
    part (``span=None``)."""

    part: int
    span: tuple[int, int] | None


def _blocking_task(plan: _BlockingPlan, task: _BlockingTask) -> list[CandidatePair]:
    """Worker task: candidates of one record chunk (or one whole part)."""
    blocking = plan.parts[task.part]
    if task.span is None:
        return blocking.candidate_pairs(plan.dataset)
    start, stop = task.span
    return blocking.candidates_for(plan.states[task.part], plan.records[start:stop])


@dataclass(frozen=True)
class _DeltaBlockingPlan:
    """Shared state of the per-record rescoring fan-out (delta ingestion).

    One part, its prepared shared index, and the records to rescore; tasks
    are index spans into ``records``.
    """

    part: Blocking
    state: Any
    records: tuple[Record, ...]


def _delta_blocking_task(
    plan: _DeltaBlockingPlan, span: tuple[int, int]
) -> list[tuple[CandidatePair, ...]]:
    """Worker task: per-record owned candidate lists for one record span
    (:meth:`~repro.blocking.base.Blocking.owned_candidates`)."""
    start, stop = span
    return plan.part.owned_candidates(plan.state, plan.records[start:stop])


def _owned_candidate_count(owned: list[tuple[CandidatePair, ...]]) -> int:
    """Candidates across one delta-blocking span's per-record owned lists."""
    return sum(len(pairs) for pairs in owned)


class PipelineRuntime:
    """Executes the data-parallel pipeline stages under a runtime config.

    The runtime also owns the run's observability: ``recorder`` (or, when
    omitted, ``config.trace`` → a JSONL-streaming
    :class:`~repro.obs.trace.TraceRecorder`; no trace configured → the
    shared no-op) is threaded through the scheduler and pool, and
    :meth:`profiler` hands out stage profilers bound to it so stage/chunk
    timings land in the trace.  Recording never steers execution — traced
    and untraced runs produce byte-identical outputs.
    """

    def __init__(
        self, config: RuntimeConfig | None = None, recorder: Any = None
    ) -> None:
        self.config = config or RuntimeConfig()
        if recorder is not None:
            self.recorder = recorder
        elif self.config.trace is not None:
            self.recorder = TraceRecorder(sink=JsonlSink(self.config.trace))
        else:
            self.recorder = NULL_RECORDER
        self.scheduler = ChunkScheduler(self.config, recorder=self.recorder)

    # -- lifecycle ----------------------------------------------------------

    def profiler(self) -> StageProfiler:
        """A new stage profiler bound to this runtime's trace recorder.

        Pipeline runs and ingest batches build their per-run profiler here,
        so stage spans and chunk spans nest in the runtime's trace; without
        a recorder this is exactly ``StageProfiler()``.
        """
        return StageProfiler(recorder=self.recorder)

    def close(self) -> None:
        """Release the persistent worker pool and its published payloads,
        and finalise the trace (the recorder streams its metrics record and
        releases the sink).

        Idempotent and non-terminal: the next parallel stage call lazily
        respawns a fresh pool.  Serial runtimes never spawn a pool, so this
        is a no-op for them.
        """
        self.scheduler.close()
        self.recorder.finish()

    def __enter__(self) -> "PipelineRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def pool_stats(self) -> dict[str, int] | None:
        """Snapshot of the worker pool's cost counters (``None`` if no pool).

        Exposes spawn/publish/fetch counts so benchmarks and tests can
        prove that pools spawn once and payloads ship once per revision.
        """
        pool = self.scheduler.pool
        return None if pool is None else pool.stats.snapshot()

    # -- candidate generation ----------------------------------------------

    def run_blocking(
        self,
        blocking: Blocking,
        dataset: Dataset,
        profiler: StageProfiler | None = None,
    ) -> list[CandidatePair]:
        """Generate candidate pairs, fanning out parts and record shards.

        The task list is built parts-major, chunks-minor: the blocking is
        partitioned into its independent parts (declaration order), and each
        shardable part is split into ``blocking_shards`` consecutive record
        chunks — its :meth:`~repro.blocking.base.Blocking.prepare` runs once
        here in the parent, the chunk tasks only score.  Non-shardable parts
        stay one task each.  All tasks go through one scheduler call (one
        pool), results merge in submission order, and a single global
        de-duplication keeps the first occurrence — which reproduces the
        serial semantics bit for bit, including first-blocking-wins tags.
        """
        parts = blocking.partition()
        shards = self.config.blocking_shards
        tasks: list[_BlockingTask] = []
        states: list[Any] = []
        for index, part in enumerate(parts):
            if shards > 1 and part.shardable:
                states.append(part.prepare(dataset))
                tasks.extend(
                    _BlockingTask(index, span)
                    for span in even_spans(len(dataset), shards)
                )
            else:
                states.append(None)
                tasks.append(_BlockingTask(index, None))
        if len(tasks) == 1 and tasks[0].span is None:
            # One whole-part task: skip the plan plumbing entirely.
            return blocking.candidate_pairs(dataset)
        needs_records = any(task.span is not None for task in tasks)
        needs_dataset = any(task.span is None for task in tasks)
        # Both can ride along in the mixed case: one pickling pass memoizes
        # the Record objects the dataset and the tuple share.
        plan = _BlockingPlan(
            parts=tuple(parts),
            states=tuple(states),
            records=tuple(dataset.records) if needs_records else None,
            dataset=dataset if needs_dataset else None,
        )
        per_task = self.scheduler.map_chunks(
            _blocking_task,
            tasks,
            stage="blocking",
            profiler=profiler,
            shared=plan,
            items=len,  # candidates emitted per task -> candidates/s chunks
        )
        merged: list[CandidatePair] = []
        for pairs in per_task:
            merged.extend(pairs)
        return dedupe_pairs(merged)

    def run_blocking_delta(
        self,
        part: Blocking,
        shared: Any,
        records: Sequence[Record],
        profiler: StageProfiler | None = None,
    ) -> list[tuple[CandidatePair, ...]]:
        """Rescore individual records against a prepared shared index.

        The incremental-ingestion counterpart of :meth:`run_blocking`: given
        one (shardable) part and its up-to-date shared state, return each
        record's owned candidate pairs — one tuple per record, aligned with
        ``records``.  Spans of records fan out over the pool exactly like
        sharded candidate generation (``blocking_shards`` tasks, shared
        state shipped out of band), and per-record outputs are sliced
        worker-side so the parent can splice them into a persistent
        record → candidates map.
        """
        if not records:
            return []
        plan = _DeltaBlockingPlan(
            part=part, state=shared, records=tuple(records)
        )
        spans = even_spans(len(records), self.config.blocking_shards)
        per_span = self.scheduler.map_chunks(
            _delta_blocking_task,
            spans,
            stage="blocking_delta",
            profiler=profiler,
            shared=plan,
            items=_owned_candidate_count,
        )
        merged: list[tuple[CandidatePair, ...]] = []
        for owned in per_span:
            merged.extend(owned)
        return merged

    # -- pairwise inference -------------------------------------------------

    def run_matching(
        self,
        matcher: PairwiseMatcher,
        dataset: Dataset,
        candidates: Sequence[CandidatePair],
        profiler: StageProfiler | None = None,
        profiles: Any = None,
        id_pairs: Sequence[IdPair] | None = None,
    ) -> Sequence[MatchDecision]:
        """Predict Match / NoMatch for every candidate, in candidate order.

        The scheduler runs one matcher call per ``batch_size``
        chunk (in-process when serial, pooled when parallel), so the matcher
        entry point, the call granularity and the numeric batch shapes are
        identical at any worker count — which is what keeps serial and
        parallel decisions bit-identical — and every run gets per-chunk
        timings and pair counts.  The matcher's ``columnar_capable`` flag
        picks the route:

        * **columnar** — the matcher prepares its per-record profiles once,
          matcher + store ship to each worker out of band (epoch
          protocol), chunk tasks carry bare id pairs, run
          :meth:`~repro.matching.base.PairwiseMatcher.score_profiled` and
          return float64 probability arrays; the concatenated vector comes
          back as a lazy :class:`~repro.matching.decisions.DecisionVector`
          that materialises decision objects only at the API boundary;
        * **record pairs** — chunk payloads are the record objects
          themselves, resolved here in the parent, and go through
          :meth:`~repro.matching.base.PairwiseMatcher.decide_batches`.

        ``profiles`` (optional) short-circuits the preparation step of the
        columnar route with an already-built store — the incremental
        matcher's persistent :class:`~repro.matching.profiles.ProfileStore`
        rides through here so each delta reuses every prior profile.  It
        must cover every record the candidates reference; the output is
        byte-identical to in-run preparation because profiles are pure
        per-record derivations.

        ``id_pairs`` (optional) short-circuits the id-pair extraction of the
        columnar route with a precomputed ``(left_id, right_id)`` list
        aligned with ``candidates`` — callers that already hold bare id
        pairs (incremental ingest) skip the per-candidate Python loop here.
        """
        if not candidates:
            return []
        if matcher.columnar_capable:
            if profiles is None:
                # Profile only the records the candidates reference: on a
                # sparse candidate set (narrow blocking over a huge dataset)
                # profiling the whole dataset would cost more than scoring.
                referenced: dict[str, None] = {}
                for candidate in candidates:
                    referenced.setdefault(candidate.left_id)
                    referenced.setdefault(candidate.right_id)
                profiles = matcher.prepare_profiles(
                    dataset.record(record_id) for record_id in referenced
                )
            if id_pairs is None:
                id_pairs = [
                    (candidate.left_id, candidate.right_id)
                    for candidate in candidates
                ]
            elif len(id_pairs) != len(candidates):
                raise ValueError(
                    f"id_pairs must align with candidates: got {len(id_pairs)} "
                    f"pairs for {len(candidates)} candidates"
                )
            plan = _MatchingPlan(matcher=matcher, profiles=profiles)
            id_batches = chunked(id_pairs, self.config.batch_size)
            # Similarity-memo accounting (trace only): delta the store's
            # hit/miss counters around the stage.  In-process execution
            # (serial, and threads — they share the store by reference) is
            # fully counted; process-pool workers gather against their own
            # shipped copies, which this parent-side delta cannot see.
            memo_before = (
                profiles.memo_stats()
                if self.recorder.enabled and hasattr(profiles, "memo_stats")
                else None
            )
            scored = self.scheduler.map_chunks(
                _score_profiled_chunk,
                id_batches,
                stage="pairwise_matching",
                profiler=profiler,
                shared=plan,
                # Epoch identity: the same matcher + the same store at the
                # same revision means the already-published plan is current,
                # so consecutive calls (incremental batches reusing the
                # persistent store) skip re-pickling it.  Stores without a
                # revision counter get a fresh sentinel per call — always
                # republished, never stale.
                shared_anchors=(matcher, profiles),
                shared_version=getattr(profiles, "revision", object()),
                items=len,
            )
            if memo_before is not None:
                hits_before, misses_before = memo_before
                hits_after, misses_after = profiles.memo_stats()
                self.recorder.metrics.add(
                    "profile_store.sim_memo.hits", hits_after - hits_before
                )
                self.recorder.metrics.add(
                    "profile_store.sim_memo.misses", misses_after - misses_before
                )
            # Concatenating the per-chunk vectors copies values bitwise, so
            # the vector holds exactly the probabilities each chunk scored.
            probabilities = scored[0] if len(scored) == 1 else np.concatenate(scored)
            return DecisionVector(
                pairs=id_pairs,
                probabilities=probabilities,
                threshold=matcher.threshold,
            )
        pair_batches: list[list[RecordPair]] = [
            [
                (dataset.record(candidate.left_id), dataset.record(candidate.right_id))
                for candidate in batch
            ]
            for batch in chunked(candidates, self.config.batch_size)
        ]
        decided = self.scheduler.map_chunks(
            _decide_chunk,
            pair_batches,
            stage="pairwise_matching",
            profiler=profiler,
            shared=matcher,
            # The matcher itself is the payload: the same matcher object is
            # current across calls (fitted models are not re-fit between
            # runs in the built-in flows).
            shared_anchors=(matcher,),
            items=len,
        )
        decisions: list[MatchDecision] = []
        for batch in decided:
            decisions.extend(batch)
        return decisions
