"""Batched, optionally parallel execution engine for the matching pipeline.

The runtime separates *what* the pipeline computes from *how* it is
executed.  :class:`RuntimeConfig` selects the worker count, chunk size and
trace file; :class:`PipelineRuntime` executes the data-parallel stages
(candidate generation in the parent, pairwise inference in chunks, on a
process pool when ``workers > 1``); :class:`ChunkScheduler` is the
underlying order-preserving fan-out primitive; :class:`StageProfiler`
records stage and per-chunk wall-clock timings.

Observability lives in :mod:`repro.obs`; the runtime is its producer:
``RuntimeConfig.trace`` (or an explicit recorder handed to
:class:`PipelineRuntime`) threads a trace recorder through the scheduler
and pool, and the profiler doubles as the timings view over the trace.

Serial and parallel execution are guaranteed to produce identical results —
the regression suite pins this on a golden dataset — and tracing never
changes outputs either.
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import PipelineRuntime
from repro.runtime.pool import PoolStats, WorkerPool
from repro.runtime.profiler import StageProfiler
from repro.runtime.scheduler import ChunkScheduler, chunked

__all__ = [
    "RuntimeConfig",
    "PipelineRuntime",
    "PoolStats",
    "StageProfiler",
    "ChunkScheduler",
    "WorkerPool",
    "chunked",
]
