"""Persistent worker pools and the shared-state epoch protocol.

A fresh :class:`~concurrent.futures.ProcessPoolExecutor` per call, with
the whole shared payload (profile store + matcher, blocking shared index)
re-shipped each time, makes pool spawn plus payload pickling swamp the
actual work on the matching hot path, so 2-worker parallel runs lose to
the serial engine.  :class:`WorkerPool` inverts the cost structure:

* **the pool is persistent** — spawned lazily on first use, sized once from
  ``RuntimeConfig.workers`` (excess slots idle harmlessly), and reused
  across stage calls, pipeline runs and incremental-ingest batches until
  :meth:`close` (after which the next use simply respawns it),
* **shared payloads ship by epoch, not by call** — :meth:`publish` assigns
  each payload revision a globally unique *epoch id* and spools the pickled
  payload to a private file exactly once; worker tasks carry only
  ``(slot, epoch, path)`` and lazily fetch-and-cache the payload when their
  cached epoch is stale (:func:`load_epoch_payload`).  A publish whose
  *anchors* (the payload's constituent objects, compared by identity) and
  *version* (a revision counter for in-place-mutable payloads, e.g.
  ``ProfileStore.revision``) match the current epoch is answered without
  re-pickling anything — a store ships once per state revision instead of
  once per call.

The parent keeps strong references to the anchor objects of the current
epoch, so identity comparison can never be confused by id reuse after
garbage collection.  Thread pools skip the protocol entirely: threads share
the parent's memory, so payloads pass by reference for free.

Correctness note: epoch reuse assumes a payload is a pure function of its
anchors + version.  Mutating an anchored object in place *without* bumping
its revision (e.g. re-``fit``-ing a matcher between runs) is not detected —
call :meth:`close` (or :meth:`PipelineRuntime.close`) to drop published
state first.  The built-in flows never do this: profile stores carry a
``revision`` counter bumped on every append, and every other payload is
rebuilt (new objects, new epoch) per call.
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.obs.trace import NULL_RECORDER
from repro.runtime.config import EXECUTOR_KINDS

#: Globally unique epoch ids (parent side).  A plain monotonic counter:
#: epochs are never reused within a process, so a worker's cached epoch can
#: only ever match the payload it was actually fetched for — even across a
#: pool dispose/respawn cycle.
_EPOCH_IDS = itertools.count(1)

#: Worker-side payload cache: ``slot -> (epoch, payload)``.  Lives in the
#: worker *process* (module global); the parent never writes to it.  One
#: entry per slot — publishing a new epoch implicitly evicts the old
#: payload on the next fetch.
_fetch_cache: dict[str, tuple[int, Any]] = {}


def load_epoch_payload(slot: str, epoch: int, path: str) -> tuple[Any, bool]:
    """Worker-side fetch: return ``(payload, fetched)`` for one epoch.

    Serves the payload from the per-process cache when the cached epoch
    matches, otherwise reads and unpickles the spool file written by
    :meth:`WorkerPool.publish` (at most once per worker per epoch) and
    caches it.  The ``fetched`` flag travels back to the parent so pool
    statistics can prove how often payloads actually shipped.
    """
    cached = _fetch_cache.get(slot)
    if cached is not None and cached[0] == epoch:
        return cached[1], False
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    _fetch_cache[slot] = (epoch, payload)
    return payload, True


@dataclass
class PoolStats:
    """Observable cost counters of one :class:`WorkerPool`.

    ``spawns`` counts executor constructions (pool cold starts),
    ``publishes`` counts epochs actually pickled to the spool,
    ``publish_reuses`` counts :meth:`WorkerPool.publish` calls answered by
    the current epoch without re-pickling, and ``fetches`` counts
    worker-side payload loads reported back through task results.  The
    benchmarks snapshot these between ingest batches to prove the pool
    pays pool-start and pickling costs once, not per call.
    """

    spawns: int = 0
    publishes: int = 0
    publish_reuses: int = 0
    fetches: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "spawns": self.spawns,
            "publishes": self.publishes,
            "publish_reuses": self.publish_reuses,
            "fetches": self.fetches,
        }


@dataclass(frozen=True)
class PublishedEpoch:
    """Parent-side record of one published payload revision.

    Holds a strong reference to the payload *and* its anchors: while this
    epoch is current, the anchor objects cannot be garbage collected, so
    the identity comparison inside :meth:`WorkerPool.publish` is sound (a
    new object can never alias a compared-against id).
    """

    slot: str
    epoch: int
    #: Spool file holding the pickled payload (``None`` for thread pools —
    #: payloads pass by reference and are never spooled).
    path: str | None
    payload: Any
    anchors: tuple[Any, ...] | None
    version: Any


def _shutdown_abandoned(executor: Executor | None, payload_dir: str | None) -> None:
    """GC finalizer for pools that were dropped without :meth:`close`.

    Keeps test suites and notebooks honest: a pool owner that simply goes
    out of scope must not leak worker processes or spool files until
    interpreter exit.
    """
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)
    if payload_dir is not None:
        shutil.rmtree(payload_dir, ignore_errors=True)


class WorkerPool:
    """A persistent executor plus the parent half of the epoch protocol.

    ``recorder`` (default: the shared no-op) receives lifecycle trace
    events — executor spawns, epoch publishes with payload bytes, publish
    reuses — and mirrors :class:`PoolStats` into trace metrics.  The stats
    object remains the pool-local view (benchmarks snapshot it directly);
    the metrics are the whole-run aggregate across every pool a trace sees.
    """

    def __init__(self, kind: str, workers: int, *, recorder: Any = None) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ValueError(f"executor must be one of {EXECUTOR_KINDS}, got {kind!r}")
        if workers < 1:
            raise ValueError(f"workers must be a positive integer, got {workers}")
        self.kind = kind
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: Pool width, fixed at construction from ``RuntimeConfig.workers``.
        #: Never clamped to a call's task count: executors start workers on
        #: demand, so excess slots cost nothing while idling, and resizing
        #: per call would force a rebuild (the bug this class fixes).
        self.workers = workers
        self.stats = PoolStats()
        self._executor: Executor | None = None
        self._epochs: dict[str, PublishedEpoch] = {}
        self._payload_dir: str | None = None
        self._finalizer: weakref.finalize | None = None
        #: Guards every state transition (executor spawn/teardown, epoch
        #: table, spool directory, statistics).  Re-entrant because the
        #: locked lifecycle methods call each other (``close`` →
        #: ``dispose``) and share ``_refresh_finalizer``.  One pipeline
        #: runtime is single-threaded, but a pool outlives calls by design
        #: and e.g. benchmark drivers poke ``stats`` from timer threads.
        self._lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def executor(self) -> Executor:
        """The live executor, spawned lazily on first use."""
        with self._lock:
            if self._executor is None:
                if self.kind == "process":
                    self._executor = ProcessPoolExecutor(max_workers=self.workers)
                else:
                    self._executor = ThreadPoolExecutor(max_workers=self.workers)
                self.stats.spawns += 1
                if self.recorder.enabled:
                    self.recorder.event(
                        "pool.spawn", executor=self.kind, workers=self.workers
                    )
                    self.recorder.metrics.add("pool.spawns")
                self._refresh_finalizer()
            return self._executor

    def dispose(self, *, cancel: bool = False) -> None:
        """Shut the executor down (optionally cancelling queued tasks).

        Published epochs and their spool files survive: the next use
        respawns fresh workers whose empty caches simply re-fetch the
        current payloads.  This is the failure-recovery path — after a
        worker exception the pool is disposed with ``cancel=True`` so no
        in-flight chunk task outlives the call that submitted it.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=cancel)
                self._executor = None
                self._refresh_finalizer()

    def close(self) -> None:
        """Release everything: workers, published payloads, spool files.

        Safe to call twice; the pool remains usable afterwards (the next
        use starts from a cold, empty state).
        """
        with self._lock:
            self.dispose(cancel=True)
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if self._payload_dir is not None:
                shutil.rmtree(self._payload_dir, ignore_errors=True)
                self._payload_dir = None
            self._epochs.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _refresh_finalizer(self) -> None:
        with self._lock:
            if self._finalizer is not None:
                self._finalizer.detach()
            if self._executor is None and self._payload_dir is None:
                self._finalizer = None
                return
            self._finalizer = weakref.finalize(
                self, _shutdown_abandoned, self._executor, self._payload_dir
            )

    # -- the epoch protocol ------------------------------------------------

    def publish(
        self,
        slot: str,
        payload: Any,
        *,
        anchors: tuple[Any, ...] | None = None,
        version: Any = None,
    ) -> PublishedEpoch:
        """Register ``payload`` under ``slot``; returns its current epoch.

        ``anchors`` are the objects the payload is built from; when every
        anchor of the current epoch is the *same object* (identity, not
        equality) and ``version`` compares equal, the current epoch is
        reused and nothing is pickled.  ``anchors=None`` means "always
        stale": every publish is a new epoch (the right call for payloads
        rebuilt per call, like blocking plans).  For process pools the
        payload is spooled to a private file once per epoch; thread pools
        keep it by reference only.
        """
        with self._lock:
            current = self._epochs.get(slot)
            if (
                current is not None
                and anchors is not None
                and current.anchors is not None
                and len(current.anchors) == len(anchors)
                and all(ours is theirs for ours, theirs in zip(current.anchors, anchors))
                and current.version == version
            ):
                self.stats.publish_reuses += 1
                if self.recorder.enabled:
                    self.recorder.event(
                        "pool.publish_reuse", slot=slot, epoch=current.epoch
                    )
                    self.recorder.metrics.add("pool.publish_reuses")
                return current
            epoch = next(_EPOCH_IDS)
            path: str | None = None
            payload_bytes: int | None = None
            if self.kind == "process":
                if self._payload_dir is None:
                    self._payload_dir = tempfile.mkdtemp(prefix="repro-pool-")
                    self._refresh_finalizer()
                path = os.path.join(self._payload_dir, f"{slot}-{epoch:d}.pkl")
                with open(path, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    payload_bytes = handle.tell()
                if current is not None and current.path is not None:
                    # No in-flight tasks can reference the old epoch: map_chunks
                    # drains all futures before the next publish.
                    try:
                        os.unlink(current.path)
                    except OSError:
                        pass
            published = PublishedEpoch(
                slot=slot,
                epoch=epoch,
                path=path,
                payload=payload,
                anchors=tuple(anchors) if anchors is not None else None,
                version=version,
            )
            self._epochs[slot] = published
            self.stats.publishes += 1
            if self.recorder.enabled:
                attributes: dict[str, Any] = {"slot": slot, "epoch": epoch}
                if payload_bytes is not None:
                    attributes["payload_bytes"] = payload_bytes
                self.recorder.event("pool.publish", **attributes)
                self.recorder.metrics.add("pool.publishes")
                if payload_bytes is not None:
                    self.recorder.metrics.add("pool.publish_bytes", payload_bytes)
            return published

    def current_epoch(self, slot: str) -> PublishedEpoch | None:
        """The epoch currently published under ``slot`` (if any)."""
        with self._lock:
            return self._epochs.get(slot)

    def record_fetches(self, count: int) -> None:
        """Fold worker-reported payload fetches into the statistics."""
        with self._lock:
            self.stats.fetches += count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._executor is not None else "cold"
        return (
            f"WorkerPool(kind={self.kind!r}, workers={self.workers}, {state}, "
            f"slots={sorted(self._epochs)})"
        )
