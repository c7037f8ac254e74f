"""Configuration of the batched pipeline execution engine.

The runtime splits the data-parallel pipeline stages (candidate generation
and pairwise inference) into chunks and fans them out over a
:mod:`concurrent.futures` worker pool.  The knobs matter independently:

* ``workers`` bounds the parallelism,
* ``batch_size`` bounds the per-task granularity — large enough to amortize
  scheduling (and, for process pools, pickling) overhead, small enough to
  keep all workers busy and the per-chunk timings informative,
* ``blocking_shards`` splits candidate generation itself into record chunks
  (shared index built once, per-chunk scoring fanned out), so a single
  blocking scales beyond one core,
* ``trace`` streams a structured run trace to a JSON Lines file.

Which matching route runs is not a knob: the matcher's ``columnar_capable``
flag picks it (see :meth:`repro.runtime.PipelineRuntime.run_matching`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Executor kinds accepted by :class:`RuntimeConfig`.
EXECUTOR_KINDS = ("thread", "process")


@dataclass(frozen=True)
class RuntimeConfig:
    """How the pipeline's data-parallel stages are executed.

    The default configuration (one worker) is the fully serial engine; it
    batches pairwise inference but never spawns a pool, so library users pay
    nothing for the parallel machinery unless they opt in.
    """

    #: Number of worker slots; 1 means serial execution (no pool).
    workers: int = 1
    #: Candidate pairs per inference chunk.
    batch_size: int = 2048
    #: Pool flavour used when ``workers > 1``: "process" achieves real
    #: CPU parallelism for pure-Python matchers (the GIL serialises
    #: "thread"), while "thread" avoids pickling and suits matchers that
    #: release the GIL (numpy-heavy forward passes) or do I/O.
    executor: str = "process"
    #: Record chunks candidate generation is sharded into; 1 means each
    #: blocking runs as one task (the pre-sharding behaviour).  Sharding is
    #: deterministic at any shard count: the shared index is global and the
    #: per-chunk results merge in record order, so the candidates are
    #: byte-identical to the serial run.
    blocking_shards: int = 1
    #: Stream a structured run trace (spans + metrics, JSON Lines) to this
    #: path; ``None`` (the default) installs the no-op recorder and the
    #: engine does no observability work at all.  Like every other knob,
    #: tracing only *observes*: outputs are byte-identical with tracing on
    #: or off.  Read the file back with ``repro report``.
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be a positive integer, got {self.batch_size}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.blocking_shards < 1:
            raise ValueError(
                f"blocking_shards must be a positive integer, got {self.blocking_shards}"
            )
        if self.trace is not None and not isinstance(self.trace, str):
            raise ValueError(
                f"trace must be a path string or None, got {self.trace!r}"
            )

    def __setstate__(self, state: dict) -> None:
        # Configs pickled into match states before the matching-route and
        # pool-mode knobs were retired still carry them as attributes;
        # restore the current fields only.
        for spec in fields(self):
            if spec.name in state:
                object.__setattr__(self, spec.name, state[spec.name])

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1
