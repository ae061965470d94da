"""``repro.exec``: the supervised parallel sweep executor.

Decomposes an experiment session into independent seeded cells
(:mod:`~repro.exec.cells`), runs them across N supervised worker
processes with timeouts, heartbeat hang detection, capped-backoff
retry, poison-cell quarantine and serial degradation
(:mod:`~repro.exec.supervisor` / :mod:`~repro.exec.pool`), journals
progress crash-safely for ``--resume`` (:mod:`~repro.exec.checkpoint`),
and merges cells back into one record only after provenance-hash
validation (:mod:`~repro.exec.merge`).
"""

from repro.exec.cells import SweepCell, decompose  # noqa: F401
from repro.exec.checkpoint import (  # noqa: F401
    SweepCheckpoint,
    SweepLock,
    sweep_id,
)
from repro.exec.merge import merge_results, telemetry_lines  # noqa: F401
from repro.exec.supervisor import SweepExecutor  # noqa: F401
from repro.exec.tracing import (  # noqa: F401
    SpanWriter,
    SweepTracer,
    merge_sweep_trace,
    worker_lane,
)

__all__ = [
    "SpanWriter",
    "SweepCell",
    "SweepCheckpoint",
    "SweepExecutor",
    "SweepLock",
    "SweepTracer",
    "decompose",
    "merge_results",
    "merge_sweep_trace",
    "sweep_id",
    "telemetry_lines",
    "worker_lane",
]
