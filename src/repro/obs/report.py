"""Cross-run reporting: fidelity scorecard, drift diff, metric history.

Three consumers of the run registry:

- :func:`scorecard` — score each anchored experiment's *latest* record
  against :data:`repro.obs.anchors.PAPER_ANCHORS` (``repro report``);
- :func:`diff_records` — per-metric drift between any two records, with
  relative/absolute thresholds and distinct clean / drifted /
  missing-metric verdicts (``repro diff``, CI's regression gate);
- :func:`history` — one metric's trajectory across every recorded run
  of an experiment, rendered as a terminal sparkline or exported as
  JSON/HTML (``repro history``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.anchors import (
    FAIL,
    PASS,
    WARN,
    AnchorCheck,
    anchored_experiments,
    evaluate_record,
    summarize,
)
from repro.obs.registry import RunRecord, RunRegistry
from repro.report.tables import render_table

#: Default drift thresholds for ``diff_records`` — a metric must move
#: by more than 0.5% relative *and* an absolute epsilon to count, so
#: float formatting noise never pages anyone.
DEFAULT_REL_THRESHOLD = 0.005
DEFAULT_ABS_THRESHOLD = 1e-9

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# fidelity scorecard
# ---------------------------------------------------------------------------

@dataclass
class Scorecard:
    """Anchor checks for the latest record of every anchored experiment."""

    checks: List[AnchorCheck] = field(default_factory=list)
    missing_experiments: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        return summarize(self.checks)

    @property
    def ok(self) -> bool:
        """True when no anchored metric is failing outright."""
        return self.counts[FAIL] == 0 and not self.missing_experiments

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "ok": self.ok,
            "missing_experiments": list(self.missing_experiments),
            "checks": [
                {
                    "experiment": check.anchor.experiment,
                    "metric": check.anchor.metric,
                    "source": check.anchor.source,
                    "paper": check.anchor.paper_value,
                    "band": check.anchor.band,
                    "value": check.value,
                    "status": check.status,
                    "run_id": check.run_id,
                }
                for check in self.checks
            ],
        }

    def render(self) -> str:
        rows = []
        for check in self.checks:
            anchor = check.anchor
            rows.append(
                [
                    anchor.experiment,
                    anchor.metric,
                    "-" if anchor.paper_value is None else anchor.paper_value,
                    check.value if check.value is not None else "missing",
                    anchor.band_label,
                    check.status.upper() if check.status != PASS else "pass",
                    anchor.source,
                ]
            )
        table = render_table(
            ["experiment", "metric", "paper", "ours", "band", "status",
             "source"],
            rows,
            title="Paper-fidelity scorecard",
        )
        counts = self.counts
        lines = [
            table,
            f"\n{counts[PASS]} pass, {counts[WARN]} warn, "
            f"{counts[FAIL]} fail over {len(self.checks)} anchors",
        ]
        if self.missing_experiments:
            lines.append(
                "no recorded runs yet for: "
                + ", ".join(self.missing_experiments)
                + "  (run `repro fig/table/...` to record them)"
            )
        return "\n".join(lines)


def scorecard(
    registry: RunRegistry, experiments: Optional[List[str]] = None
) -> Scorecard:
    """Score the latest record of each anchored experiment.

    ``registry`` may be anything with :meth:`RunRegistry.latest`; the
    observatory's scorecard page passes its in-memory model, so the
    CLI and the site pick a run by this one rule.
    """
    chosen = experiments if experiments is not None else anchored_experiments()
    card = Scorecard()
    for experiment in chosen:
        record = registry.latest(experiment)
        if record is None:
            card.missing_experiments.append(experiment)
            continue
        card.checks.extend(evaluate_record(record))
    return card


# ---------------------------------------------------------------------------
# cross-run diff
# ---------------------------------------------------------------------------

#: Per-metric diff statuses.
SAME, DRIFTED, MISSING = "same", "drifted", "missing"


@dataclass(frozen=True)
class MetricDrift:
    """One metric compared across two records."""

    metric: str
    a: Optional[float]
    b: Optional[float]
    status: str

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def rel_delta(self) -> Optional[float]:
        delta = self.delta
        if delta is None:
            return None
        return delta / abs(self.a) if self.a else float("inf") if delta else 0.0


@dataclass
class DiffResult:
    """Every metric of two records, classified same/drifted/missing."""

    record_a: RunRecord
    record_b: RunRecord
    drifts: List[MetricDrift] = field(default_factory=list)
    rel_threshold: float = DEFAULT_REL_THRESHOLD
    abs_threshold: float = DEFAULT_ABS_THRESHOLD

    @property
    def drifted(self) -> List[MetricDrift]:
        return [d for d in self.drifts if d.status == DRIFTED]

    @property
    def missing(self) -> List[MetricDrift]:
        return [d for d in self.drifts if d.status == MISSING]

    @property
    def clean(self) -> bool:
        return not self.drifted and not self.missing

    @property
    def exit_code(self) -> int:
        """0 clean, 1 metric drift, 2 metric set mismatch."""
        if self.missing:
            return 2
        if self.drifted:
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "a": self.record_a.run_id or self.record_a.experiment,
            "b": self.record_b.run_id or self.record_b.experiment,
            "rel_threshold": self.rel_threshold,
            "abs_threshold": self.abs_threshold,
            "clean": self.clean,
            "exit_code": self.exit_code,
            "drifted": [
                {"metric": d.metric, "a": d.a, "b": d.b,
                 "delta": d.delta, "rel_delta": d.rel_delta}
                for d in self.drifted
            ],
            "missing": [
                {"metric": d.metric, "a": d.a, "b": d.b}
                for d in self.missing
            ],
            "compared": len(self.drifts),
        }

    def render(self) -> str:
        header = (
            f"diff {self.record_a.run_id or '<a>'} -> "
            f"{self.record_b.run_id or '<b>'} "
            f"({len(self.drifts)} metrics, rel>{self.rel_threshold:g}, "
            f"abs>{self.abs_threshold:g})"
        )
        if self.clean:
            return f"{header}\nclean: no metric drifted"
        rows = []
        for drift in self.drifted:
            rows.append(
                [
                    drift.metric,
                    drift.a,
                    drift.b,
                    drift.delta,
                    f"{100 * drift.rel_delta:+.2f}%"
                    if drift.rel_delta not in (None, float("inf"))
                    else "new-nonzero",
                ]
            )
        parts = [header]
        if rows:
            parts.append(
                render_table(["metric", "a", "b", "delta", "rel"], rows,
                             title="drifted:", float_format="{:.6g}")
            )
        if self.missing:
            parts.append("missing (present in only one record):")
            for drift in self.missing:
                side = "a only" if drift.b is None else "b only"
                parts.append(f"  {drift.metric}  ({side})")
        return "\n".join(parts)


def diff_records(
    record_a: RunRecord,
    record_b: RunRecord,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    abs_threshold: float = DEFAULT_ABS_THRESHOLD,
) -> DiffResult:
    """Classify every metric of two records as same/drifted/missing.

    A metric counts as drifted only when it moves by more than *both*
    thresholds, so tiny float wobbles need ``rel_threshold=0`` to show.
    """
    result = DiffResult(
        record_a=record_a,
        record_b=record_b,
        rel_threshold=rel_threshold,
        abs_threshold=abs_threshold,
    )
    names = sorted(set(record_a.metrics) | set(record_b.metrics))
    for name in names:
        a = record_a.metrics.get(name)
        b = record_b.metrics.get(name)
        if a is None or b is None:
            result.drifts.append(MetricDrift(name, a, b, MISSING))
            continue
        delta = abs(b - a)
        relative = delta / abs(a) if a else (float("inf") if delta else 0.0)
        status = (
            DRIFTED
            if delta > abs_threshold and relative > rel_threshold
            else SAME
        )
        result.drifts.append(MetricDrift(name, a, b, status))
    return result


# ---------------------------------------------------------------------------
# metric history
# ---------------------------------------------------------------------------

def sparkline(values: List[float]) -> str:
    """A unicode block sparkline of one series."""
    finite = [v for v in values if v == v and abs(v) != float("inf")]
    if not finite:
        return ""
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in values:
        if value != value or abs(value) == float("inf"):
            chars.append("?")
            continue
        if span == 0:
            chars.append(_SPARK_LEVELS[3])
            continue
        index = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[index])
    return "".join(chars)


@dataclass
class History:
    """One experiment's recorded trajectory, metric by metric."""

    experiment: str
    run_ids: List[str] = field(default_factory=list)
    created_at: List[str] = field(default_factory=list)
    series: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    #: Executor telemetry (``exec.*`` keys of the quarantined timings):
    #: shown alongside — but never diffed with — the metric series.
    telemetry: Dict[str, List[Optional[float]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {
            "experiment": self.experiment,
            "runs": list(self.run_ids),
            "created_at": list(self.created_at),
            "series": {k: list(v) for k, v in self.series.items()},
        }
        if self.telemetry:
            data["telemetry"] = {
                k: list(v) for k, v in self.telemetry.items()
            }
        return data

    def render(self) -> str:
        if not self.run_ids:
            return f"no recorded runs for {self.experiment!r}"
        lines = [
            f"{self.experiment}: {len(self.run_ids)} recorded runs "
            f"({self.run_ids[0]} .. {self.run_ids[-1]})"
        ]
        width = max(len(name) for name in self.series) if self.series else 0
        for name in sorted(self.series):
            values = self.series[name]
            present = [v for v in values if v is not None]
            if not present:
                continue
            spark = sparkline([
                v if v is not None else float("nan") for v in values
            ])
            lines.append(
                f"  {name:<{width}s} {spark} "
                f"last={present[-1]:.6g} min={min(present):.6g} "
                f"max={max(present):.6g}"
            )
        if self.telemetry:
            lines.append("executor telemetry (wall-clock; never diffed):")
            t_width = max(len(name) for name in self.telemetry)
            for name in sorted(self.telemetry):
                values = self.telemetry[name]
                present = [v for v in values if v is not None]
                if not present:
                    continue
                spark = sparkline([
                    v if v is not None else float("nan") for v in values
                ])
                lines.append(
                    f"  {name:<{t_width}s} {spark} last={present[-1]:.6g}"
                )
        return "\n".join(lines)

    def to_html(self) -> str:
        """A standalone HTML page with one inline SVG line per metric.

        Delegates to the observatory's renderer — one HTML code path
        for the whole repo (:mod:`repro.obs.dashboard`).  Imported
        lazily because the dashboard imports this module for the diff
        thresholds and the :class:`History` type.
        """
        from repro.obs.dashboard import render_history_page

        return render_history_page(self)


def history(
    registry: RunRegistry,
    experiment: str,
    metrics: Optional[List[str]] = None,
) -> History:
    """Collect one experiment's metric trajectories, oldest run first."""
    records = registry.records(experiment)
    result = History(experiment=experiment)
    if not records:
        return result
    result.run_ids = [record.run_id for record in records]
    result.created_at = [record.created_at for record in records]
    names = (
        metrics
        if metrics is not None
        else sorted({name for record in records for name in record.metrics})
    )
    for name in names:
        result.series[name] = [record.metrics.get(name) for record in records]
    exec_keys = sorted({
        name
        for record in records
        for name in record.timings
        if name.startswith("exec.")
    })
    for name in exec_keys:
        result.telemetry[name] = [
            record.timings.get(name) for record in records
        ]
    return result
