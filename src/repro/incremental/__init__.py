"""Incremental ingestion: persistent match state + delta matching.

The one-shot batch pipeline answers "what are the groups of this corpus?";
this subsystem answers it *continuously*: a versioned on-disk
:class:`MatchState` holds everything a matching task has learned, and an
:class:`IncrementalMatcher` folds newly arriving records in at a cost
proportional to the delta for the expensive stages — while guaranteeing the
resulting groups are byte-identical to a batch run over the full corpus
(any partition, any order; pinned by ``tests/incremental/``).

Entry points: :func:`repro.api.open_state` / :func:`repro.api.ingest`, the
CLI's ``repro ingest`` / ``repro state show``, or the classes directly.
"""

from repro.incremental.matcher import (
    DuplicateRecordError,
    IncrementalMatcher,
    IngestReport,
)
from repro.incremental.state import (
    STATE_FORMAT,
    STATE_FORMAT_VERSION,
    ComponentCleanup,
    MatchState,
    MatchStateError,
    is_state_dir,
    read_manifest,
)

__all__ = [
    "STATE_FORMAT",
    "STATE_FORMAT_VERSION",
    "ComponentCleanup",
    "DuplicateRecordError",
    "IncrementalMatcher",
    "IngestReport",
    "MatchState",
    "MatchStateError",
    "is_state_dir",
    "read_manifest",
]
