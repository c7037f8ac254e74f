"""The pipeline execution engine.

:class:`PipelineRuntime` is the seam between the entity-group-matching
*logic* (blocking recipes, matchers, graph clean-up) and its *execution*
(batching, worker pools, profiling).  The pipeline delegates its two
data-parallel stages here:

* **candidate generation** — always in the parent, as one timed call: the
  blocking's :meth:`~repro.blocking.base.Blocking.candidate_pairs` for a
  batch run, or one part's
  :meth:`~repro.blocking.base.Blocking.owned_candidates` against its
  prepared shared index for an incremental delta.  On two cores, fanning
  blocking out over a process pool lost to this in-process call up to ~7k
  records and won only at ~35k, so the pool is never used here,
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
(via its scheduler), a process pool: spawned lazily on the first parallel
matching call, reused across calls, pipeline runs and incremental batches,
released by :meth:`PipelineRuntime.close` (or the context-manager
protocol) — after which the next parallel call simply respawns it.

Determinism guarantee: chunk results are merged in submission order, every
matcher decision depends only on its own record pair, and the chunking — the
numeric batch shape a vectorised matcher sees — depends only on
``batch_size``, never on ``workers``.  Runs that share a ``batch_size``
therefore produce identical decisions, edges and groups at any worker
count.  (Shape stability matters: BLAS reductions are not
bitwise-reproducible across matrix shapes, so re-batching can flip
borderline probabilities at the last ULP.)
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from functools import partial
from typing import Any

import numpy as np

from repro.blocking.base import Blocking, CandidatePair
from repro.datagen.records import Dataset, Record
from repro.matching.base import IdPair, MatchDecision, PairwiseMatcher, RecordPair
from repro.matching.decisions import DecisionVector
from repro.obs.sinks import JsonlSink
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.runtime.config import RuntimeConfig
from repro.runtime.profiler import StageProfiler
from repro.runtime.scheduler import ChunkScheduler, chunked, timed_call


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


def _owned_candidate_count(owned: list[tuple[CandidatePair, ...]]) -> int:
    """Candidates across a delta's per-record owned lists."""
    return sum(len(pairs) for pairs in owned)


def _in_process(
    fn: Callable[[Any], Any],
    argument: Any,
    stage: str,
    profiler: StageProfiler | None,
    items: Callable[[Any], int],
) -> Any:
    """Run ``fn(argument)`` in the parent, recorded as one ``stage`` chunk."""
    result, start, end = timed_call(fn, argument)
    if profiler is not None:
        profiler.record_chunk(
            stage, end - start, items=items(result), start=start, end=end
        )
    return result


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
        """Generate candidate pairs in the parent process.

        One :meth:`~repro.blocking.base.Blocking.candidate_pairs` call,
        recorded as one ``blocking`` chunk whose item count is the number
        of candidates.
        """
        return _in_process(blocking.candidate_pairs, dataset, "blocking", profiler, len)

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
        ``records`` — from one in-process
        :meth:`~repro.blocking.base.Blocking.owned_candidates` call, recorded
        as one ``blocking_delta`` chunk.
        """
        if not records:
            return []
        return _in_process(
            partial(part.owned_candidates, shared),
            records,
            "blocking_delta",
            profiler,
            _owned_candidate_count,
        )

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
            # hit/miss counters around the stage.  Serial execution is fully
            # counted; pool workers gather against their own shipped copies,
            # which this parent-side delta cannot see.
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
