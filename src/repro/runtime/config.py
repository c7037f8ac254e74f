"""Configuration of the batched pipeline execution engine.

The runtime splits pairwise inference into chunks and, when asked to, fans
them out over a persistent process pool.  Candidate generation always runs
in the parent.  The knobs matter independently:

* ``workers`` bounds the parallelism,
* ``batch_size`` bounds the per-task granularity — large enough to amortize
  scheduling and pickling overhead, small enough to keep all workers busy
  and the per-chunk timings informative,
* ``trace`` streams a structured run trace to a JSON Lines file.

Which matching route runs is not a knob: the matcher's ``columnar_capable``
flag picks it (see :meth:`repro.runtime.PipelineRuntime.run_matching`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class RuntimeConfig:
    """How the pipeline's pairwise-matching stage is executed.

    The default configuration (one worker) is the fully serial engine; it
    batches pairwise inference but never spawns a pool, so library users pay
    nothing for the parallel machinery unless they opt in.  With
    ``workers > 1`` matching chunks run on a process pool, which gives real
    CPU parallelism for pure-Python matchers.
    """

    #: Number of worker processes; 1 means serial execution (no pool).
    workers: int = 1
    #: Candidate pairs per inference chunk.
    batch_size: int = 2048
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
        if self.trace is not None and not isinstance(self.trace, str):
            raise ValueError(
                f"trace must be a path string or None, got {self.trace!r}"
            )

    def __setstate__(self, state: dict) -> None:
        # Configs pickled into match states before the matching-route,
        # pool-mode, executor and blocking-shard knobs were retired still
        # carry them as attributes; restore the current fields only.
        for spec in fields(self):
            if spec.name in state:
                object.__setattr__(self, spec.name, state[spec.name])

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1
