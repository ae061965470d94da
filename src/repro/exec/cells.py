"""The sweep cell protocol: independent seeded units of work.

A *cell* is the atom the supervised executor schedules: one
(workload, platform, scale, seed) characterization, runnable in any
process, depending on nothing but its own spec.  Cells are plain dicts
on the wire (queues, journals) and :class:`SweepCell` in code.

The callable a cell runs is named by a dotted path (``fn``), resolved
inside the worker — the default is :func:`characterize_cell`, which
replays the exact ``ExperimentContext.counters`` code path so a cell
result is bit-identical to a serial in-process run.  Tests point ``fn``
at misbehaving callables (crash, hang, SIGKILL) to drive the
supervisor's failure paths.

Every result carries a **provenance hash** over (spec, metrics), and
a result that carries a counter sample must rehydrate to exactly those
metrics.  :func:`cell_intact` is that one rule; the merge step, context
adoption and ``repro fsck`` all apply it, so a corrupted or foreign
checkpoint entry can never silently contaminate a merged run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Dotted path of the default cell callable.
DEFAULT_CELL_FN = "repro.exec.cells.characterize_cell"

#: Short CLI platform key -> the :mod:`repro.uarch.platforms` constant
#: it names; :func:`platform_for` and :func:`platform_key` read it.
_PLATFORMS = {"e5645": "XEON_E5645", "d510": "ATOM_D510"}

PLATFORM_KEYS = tuple(_PLATFORMS)


@dataclass(frozen=True)
class SweepCell:
    """One schedulable unit: a seeded (workload, platform) point."""

    workload: str
    platform: str  # short key: "e5645" | "d510"
    scale: float
    seed: int
    fn: str = DEFAULT_CELL_FN
    #: Free-form extras forwarded to the cell callable (test hooks).
    extra: tuple = field(default_factory=tuple)

    @property
    def cell_id(self) -> str:
        return f"{self.workload}@{self.platform}+s{self.seed}"

    @classmethod
    def from_cell_id(cls, cell_id: str,
                     scale: float) -> Optional["SweepCell"]:
        """Invert :attr:`cell_id` (``workload@platform+sN``), or None."""
        head, plus, seed = cell_id.rpartition("+s")
        workload, at, platform = head.rpartition("@")
        if not (plus and at):
            return None
        try:
            return cls(workload=workload, platform=platform, scale=scale,
                       seed=int(seed))
        except ValueError:
            return None

    def to_dict(self) -> dict:
        spec = {
            "cell_id": self.cell_id,
            "workload": self.workload,
            "platform": self.platform,
            "scale": self.scale,
            "seed": self.seed,
            "fn": self.fn,
        }
        if self.extra:
            spec["extra"] = dict(self.extra)
        return spec

    @classmethod
    def from_dict(cls, spec: dict) -> "SweepCell":
        return cls(
            workload=spec["workload"],
            platform=spec["platform"],
            scale=float(spec["scale"]),
            seed=int(spec["seed"]),
            fn=spec.get("fn", DEFAULT_CELL_FN),
            extra=tuple(sorted(spec.get("extra", {}).items())),
        )


@dataclass
class CellResult:
    """One completed (or abandoned) cell, as journaled and merged."""

    cell_id: str
    status: str  # "ok" | "quarantined"
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Optional full-fidelity PerfCounters payload (JSON form), present
    #: for characterize cells so contexts can adopt the sample.
    counters: Optional[dict] = None
    provenance_hash: str = ""
    attempts: int = 1
    seconds: float = 0.0
    worker: int = -1
    #: Failure signatures observed before quarantine (empty when ok).
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        data = {
            "cell_id": self.cell_id,
            "status": self.status,
            "metrics": dict(self.metrics),
            "provenance_hash": self.provenance_hash,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "worker": self.worker,
        }
        if self.counters is not None:
            data["counters"] = self.counters
        if self.failures:
            data["failures"] = list(self.failures)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(
            cell_id=data["cell_id"],
            status=data["status"],
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            counters=data.get("counters"),
            provenance_hash=data.get("provenance_hash", ""),
            attempts=int(data.get("attempts", 1)),
            seconds=float(data.get("seconds", 0.0)),
            worker=int(data.get("worker", -1)),
            failures=list(data.get("failures", [])),
        )


def provenance_hash(spec: dict, metrics: Dict[str, float]) -> str:
    """Hash binding a cell's result to the spec that produced it.

    Recomputed at merge time from the journaled (spec, metrics) pair;
    any bit flipped in either changes the hash.
    """
    canonical = json.dumps(
        {"spec": spec, "metrics": metrics},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def resolve_cell_fn(dotted: str):
    """Import ``pkg.module.callable`` and return the callable."""
    module_name, _, attr = dotted.rpartition(".")
    if not module_name:
        raise ValueError(f"cell fn {dotted!r} is not a dotted path")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def run_cell(spec: dict) -> dict:
    """Execute one cell spec in the current process.

    Returns the journal payload: ``{"metrics", "counters"?,
    "provenance_hash"}``.  Raises whatever the cell callable raises —
    classifying and retrying failures is the supervisor's job.
    """
    fn = resolve_cell_fn(spec.get("fn", DEFAULT_CELL_FN))
    payload = fn(spec)
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise TypeError(
            f"cell fn {spec.get('fn')!r} must return a dict with 'metrics', "
            f"got {type(payload).__name__}"
        )
    metrics = {k: float(v) for k, v in payload["metrics"].items()}
    result = {
        "metrics": metrics,
        "provenance_hash": provenance_hash(_hashable_spec(spec), metrics),
    }
    if payload.get("counters") is not None:
        result["counters"] = payload["counters"]
    return result


def _hashable_spec(spec: dict) -> dict:
    """The spec fields the provenance hash covers (identity, not fn)."""
    return {
        "cell_id": spec["cell_id"],
        "workload": spec["workload"],
        "platform": spec["platform"],
        "scale": spec["scale"],
        "seed": spec["seed"],
    }


def cell_intact(spec: dict, result: CellResult) -> bool:
    """Whether a completed cell may be trusted for ``spec``.

    The provenance hash must match ``(spec, metrics)``, and a cell that
    carries ``counters`` must rehydrate to exactly its hashed metrics,
    since that sample (not the metrics) is what a primed context adopts.
    """
    if result.provenance_hash != provenance_hash(_hashable_spec(spec),
                                                 result.metrics):
        return False
    if result.counters is None:
        return True
    from repro.uarch.counters import PerfCounters

    try:
        rehydrated = PerfCounters.from_dict(result.counters).metric_dict()
    except (KeyError, TypeError, ValueError, AttributeError):
        return False
    return _canonical(rehydrated) == _canonical(result.metrics)


def _canonical(metrics: Dict[str, float]) -> str:
    """Bit-exact text of a metric map (NaN equals NaN; -0.0 is not 0.0)."""
    return json.dumps({k: float(v) for k, v in metrics.items()},
                      sort_keys=True)


def platform_for(key: str):
    """Map a short platform key to its :class:`Platform`."""
    from repro.uarch import platforms

    try:
        return getattr(platforms, _PLATFORMS[key])
    except KeyError:
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"unknown platform {key!r}; choose from {', '.join(PLATFORM_KEYS)}"
        ) from None


def platform_key(name: str) -> str:
    """The short key of the platform called ``name`` (inverse of
    :func:`platform_for`)."""
    for key in PLATFORM_KEYS:
        if platform_for(key).name == name:
            return key
    raise KeyError(name)


def characterize_cell(spec: dict) -> dict:
    """The default cell: run + characterize one workload on one platform.

    Goes through :class:`~repro.experiments.runner.ExperimentContext`
    so the numbers follow the exact serial code path (same seeds, same
    warm-up), and returns both the 45-metric dict and the lossless
    counter sample for cache adoption.
    """
    from repro.experiments.runner import ExperimentContext

    context = ExperimentContext(
        scale=float(spec["scale"]), seed=int(spec["seed"])
    )
    counters = context.counters(spec["workload"], platform_for(spec["platform"]))
    return {
        "metrics": counters.metric_dict(),
        "counters": counters.to_dict(),
    }


def decompose(
    workloads: Sequence[str],
    platforms: Sequence[str],
    scale: float,
    seeds: Sequence[int],
    fn: str = DEFAULT_CELL_FN,
) -> List[SweepCell]:
    """The full sweep matrix as an ordered cell list.

    Order is deterministic (workload-major) so serial and parallel
    sweeps enumerate — and therefore merge — identically.
    """
    return [
        SweepCell(workload=w, platform=p, scale=scale, seed=s, fn=fn)
        for w in workloads
        for p in platforms
        for s in seeds
    ]
