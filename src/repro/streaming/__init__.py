"""Streaming subsystem: maintain top-k answers over growing videos.

This package turns the engine from "query a finished video" into
"maintain answers over a growing one" (DESIGN.md §7):

* :class:`~repro.streaming.session.StreamingSession` — the appendable
  session: ``Session.open_stream(...)`` → ``append`` / ``subscribe`` /
  ``checkpoint`` / ``resume``;
* :mod:`~repro.streaming.phase1_incremental` — the Phase-1 builder
  kept alive across appends, drift auditing and warm retraining;
* :mod:`~repro.streaming.live_topk` — the cache-backed executor and
  per-query :class:`~repro.streaming.live_topk.LiveTopK` maintainers;
* :mod:`~repro.streaming.store` — the persistent Phase-1 artifact
  store with an atomic, checksum-verified manifest.
"""

from .live_topk import (
    CachingOracle,
    LiveTopK,
    ScoreCache,
    StreamingQueryExecutor,
)
from .phase1_incremental import (
    BlockInferenceCache,
    DriftTracker,
    IncrementalPhase1,
    INFER_BLOCK,
    StreamingConfig,
    StreamingStats,
)
from .session import AppendResult, StreamingSession
from .store import (
    FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "AppendResult",
    "BlockInferenceCache",
    "CachingOracle",
    "DriftTracker",
    "FORMAT_VERSION",
    "INFER_BLOCK",
    "IncrementalPhase1",
    "LiveTopK",
    "ScoreCache",
    "StreamingConfig",
    "StreamingQueryExecutor",
    "StreamingSession",
    "StreamingStats",
    "read_checkpoint",
    "write_checkpoint",
]
