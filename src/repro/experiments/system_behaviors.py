"""§3.2: system- and data-behaviour classification of the representatives.

Runs each of the 17 representatives on the 5-node discrete-event
cluster, measures CPU utilisation / I/O wait / weighted disk I/O time,
applies the paper's §3.2.1 rules, and derives the §3.2.2 data-behaviour
buckets — regenerating the corresponding Table 2 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.system import classify
from repro.workloads import REPRESENTATIVE_WORKLOADS


@dataclass
class SystemBehaviorResult:
    rows: List[list] = field(default_factory=list)
    matches: int = 0
    total: int = 0

    @property
    def match_ratio(self) -> float:
        return self.matches / max(1, self.total)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload utilisation + match summary."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows(
            "workload",
            ["workload", "cpu_utilization", "io_wait_ratio",
             "weighted_io_time_ratio"],
            [row[:4] for row in self.rows],
        )
        for row in self.rows:
            metrics[f"workload.{row[0]}.matches"] = float(row[4] == row[5])
        metrics["summary.matches"] = float(self.matches)
        metrics["summary.total"] = float(self.total)
        metrics["summary.match_ratio"] = self.match_ratio
        return metrics

    def to_dict(self) -> dict:
        """Machine-readable form (``repro system --json`` payload)."""
        return {
            "rows": [list(row) for row in self.rows],
            "matches": self.matches,
            "total": self.total,
            "match_ratio": self.match_ratio,
        }

    def render(self) -> str:
        table = render_table(
            ["workload", "cpu util", "iowait", "wIO", "measured", "Table 2",
             "data behaviour"],
            self.rows,
            title="§3.2 — system behaviour classification (5-node cluster)",
        )
        summary = (
            f"\n{self.matches}/{self.total} match Table 2's system-"
            f"behaviour column"
        )
        return table + summary


def run(context: ExperimentContext) -> SystemBehaviorResult:
    """Classify every representative."""
    result = SystemBehaviorResult()
    for definition in REPRESENTATIVE_WORKLOADS:
        characterization = classify.characterize_system(
            definition, scale=context.scale, seed=context.seed
        )
        metrics = characterization.metrics
        result.rows.append(
            [
                definition.workload_id,
                metrics.cpu_utilization,
                metrics.io_wait_ratio,
                metrics.weighted_io_time_ratio,
                characterization.system_behavior.value,
                definition.expected_system_behavior.value,
                characterization.data_behavior.describe(),
            ]
        )
        result.total += 1
        if characterization.matches_expected:
            result.matches += 1
    return result
