"""The observatory: a read-only aggregate view over one runs directory.

Everything the substrate emits — registry records, sweep checkpoints,
per-process span files, ``kind="profile"``
host profiles, ``kind="bench"`` wall-clock records, fsck findings —
lands under ``.repro-runs/``, each with its own reader.  This module
indexes all of it into one queryable :class:`ObservatoryModel` that the
static-site renderer (:mod:`repro.obs.dashboard`) and a future
``repro serve`` consume.

Two hard rules, both enforced by the golden determinism test:

- **Strictly read-only.**  The registry's normal :meth:`records` path
  quarantines corrupt files (a rename).  The observatory must render
  the same directory twice and find it byte-identical both times, so
  it uses :meth:`RunRegistry.scan` with ``quarantine=False`` and the
  read-only :meth:`SweepDir.read`, and only ever *reports* damage.
- **No clock, no filesystem-order dependence.**  Nothing here reads
  wall-clock (the module is deliberately absent from the DET003
  quarantine list); every listing is sorted and every artifact that
  fails to parse becomes a :class:`SkippedArtifact` in the health
  model instead of an exception or a silent hole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.checkpoint import SweepDir, sweep_dirs
from repro.exec.tracing import COMMIT, SWEEP_STARTED, progress_rate
from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.tracer import Span

__all__ = [
    "ObservatoryModel",
    "SkippedArtifact",
    "SweepView",
    "build_model",
]


@dataclass(frozen=True)
class SkippedArtifact:
    """One artifact the aggregator could not use, and why.

    Surfaced on the health panel: a skipped artifact is never silent —
    "we indexed everything" must be falsifiable.
    """

    path: str
    reason: str


@dataclass
class SweepView:
    """Everything known about one sweep directory, read tolerantly."""

    sweep: str
    path: str
    manifest: Dict[str, object] = field(default_factory=dict)
    n_cells: int = 0
    done: int = 0
    quarantined: int = 0
    #: Journal lines that are not valid cells (torn tails, corruption).
    torn_journal_lines: int = 0
    #: Host-clock records of the sweep's span files.
    spans: List[Span] = field(default_factory=list)
    has_merged_trace: bool = False

    def _instants(self, name: str) -> List[Span]:
        return [s for s in self.spans
                if s.kind == "instant" and s.name == name]

    @property
    def finished(self) -> bool:
        return any(s.kind == "span" and s.cat == "sweep" for s in self.spans)

    @property
    def retries(self) -> int:
        return sum(1 for s in self.spans
                   if s.kind == "instant" and s.cat == "retry")

    @property
    def rate(self) -> Tuple[Optional[float], Optional[float]]:
        """``(cells/s, ETA s)`` as of the latest commit, or Nones.

        The run is the supervisor lane of that commit, measured from
        its latest start at or before it.
        """
        commits = self._instants(COMMIT)
        if not commits:
            return None, None
        last = max(commits, key=lambda s: s.t0)
        starts = [s for s in self._instants(SWEEP_STARTED)
                  if s.lane == last.lane and s.t0 <= last.t0]
        if not starts:
            return None, None
        return progress_rate(max(starts, key=lambda s: s.t0), last)

    @property
    def last_throughput(self) -> Optional[float]:
        return self.rate[0]


@dataclass
class ObservatoryModel:
    """The aggregate: records + sweeps + damage, ready to render."""

    root: str
    records: List[RunRecord] = field(default_factory=list)
    sweeps: List[SweepView] = field(default_factory=list)
    skipped: List[SkippedArtifact] = field(default_factory=list)
    #: fsck findings as plain dicts (kind/severity/path/detail), sorted.
    findings: List[Dict[str, object]] = field(default_factory=list)

    def experiments(self) -> List[str]:
        return sorted({record.experiment for record in self.records})

    def by_experiment(self, experiment: str) -> List[RunRecord]:
        return [r for r in self.records if r.experiment == experiment]

    def latest(self, experiment: str) -> Optional[RunRecord]:
        records = self.by_experiment(experiment)
        return records[-1] if records else None

    def of_kind(self, kind: str) -> List[RunRecord]:
        return [r for r in self.records if r.kind == kind]

    @property
    def error_findings(self) -> List[Dict[str, object]]:
        return [f for f in self.findings if f.get("severity") == "error"]


def _build_sweep_view(
    sweep: SweepDir, skipped: List[SkippedArtifact]
) -> SweepView:
    state = sweep.read()
    view = SweepView(sweep=sweep.name, path=sweep.dir)
    if not os.path.isfile(sweep.manifest_path):
        skipped.append(SkippedArtifact(sweep.manifest_path, "missing manifest"))
    skipped.extend(SkippedArtifact(path, reason) for path, reason in state.damage)
    if state.manifest is not None:
        view.manifest = state.manifest
        view.n_cells = int(state.manifest.get("n_cells", 0) or 0)
    statuses = [r.status for r in state.results.values()]
    view.done = statuses.count("ok")
    view.quarantined = statuses.count("quarantined")
    view.torn_journal_lines = len(state.bad_journal_lines)
    view.spans = state.spans
    view.has_merged_trace = os.path.isfile(sweep.trace_path)
    return view


def build_model(runs_dir: str, *, fsck: bool = True) -> ObservatoryModel:
    """Aggregate one runs directory into an :class:`ObservatoryModel`.

    A missing directory yields an empty model (rendering an empty
    observatory is a legitimate request); a damaged one yields a model
    whose health panel says exactly what was skipped.
    """
    model = ObservatoryModel(root=runs_dir)

    registry = RunRegistry(runs_dir)
    records, problems = registry.scan(quarantine=False)
    model.records = records
    for path, reason, _ in problems:
        model.skipped.append(SkippedArtifact(path, reason))

    for sweep in sweep_dirs(runs_dir):
        model.sweeps.append(_build_sweep_view(sweep, model.skipped))

    if fsck and os.path.isdir(runs_dir):
        from repro.obs.fsck import fsck_scan

        result = fsck_scan(runs_dir)
        model.findings = sorted(
            (f.to_dict() for f in result.findings),
            key=lambda f: (str(f["path"]), str(f["kind"])),
        )
    return model
