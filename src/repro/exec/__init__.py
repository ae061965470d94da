"""``repro.exec``: the supervised parallel sweep executor.

Decomposes an experiment session into independent seeded cells
(:mod:`~repro.exec.cells`), runs them across N supervised worker
processes with timeouts, heartbeat hang detection, capped-backoff
retry, poison-cell quarantine and serial degradation
(:mod:`~repro.exec.supervisor` / :mod:`~repro.exec.pool`), journals
progress crash-safely for ``--resume`` (:mod:`~repro.exec.checkpoint`),
and merges cells back into one record only after provenance-hash
validation (:mod:`~repro.exec.merge`).  The names below are imported
from their submodule on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: re-exported name -> the module that defines it, imported on first use.
_EXPORTS = {
    "SpanWriter": "repro.exec.tracing",
    "SweepCell": "repro.exec.cells",
    "SweepCheckpoint": "repro.exec.checkpoint",
    "SweepExecutor": "repro.exec.supervisor",
    "SweepLock": "repro.exec.checkpoint",
    "SweepTracer": "repro.exec.tracing",
    "decompose": "repro.exec.cells",
    "merge_results": "repro.exec.merge",
    "merge_sweep_trace": "repro.exec.tracing",
    "sweep_id": "repro.exec.checkpoint",
    "telemetry_lines": "repro.exec.merge",
    "worker_lane": "repro.exec.tracing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
