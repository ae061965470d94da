"""Table 4 / §5.1: branch-prediction comparison of E5645 vs D510.

The paper profiles the big data workloads on both platforms and finds
average misprediction ratios of 2.8% (Xeon E5645, hybrid predictor
with loop counter, indirect predictor and 8192-entry BTB) versus 7.8%
(Atom D510, two-level global predictor, 128-entry BTB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.workloads import REPRESENTATIVE_WORKLOADS


@dataclass
class BranchStudyResult:
    rows: List[list] = field(default_factory=list)
    e5645_avg: float = 0.0
    d510_avg: float = 0.0

    @property
    def ratio(self) -> float:
        """How many times worse the D510 predicts than the E5645."""
        return self.d510_avg / max(1e-9, self.e5645_avg)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload misprediction + platform means."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows(
            "workload", ["workload", "e5645_mispred", "d510_mispred"],
            self.rows,
        )
        metrics["summary.e5645_mispred"] = self.e5645_avg
        metrics["summary.d510_mispred"] = self.d510_avg
        metrics["summary.ratio"] = self.ratio
        return metrics

    def render(self) -> str:
        table = render_table(
            ["workload", "E5645 mispred", "D510 mispred"],
            self.rows,
            title="Table 4 study — branch misprediction by platform",
        )
        summary = (
            f"\naverages: E5645 {self.e5645_avg:.3f}, "
            f"D510 {self.d510_avg:.3f}; ratio {self.ratio:.1f}x"
        )
        return table + summary


def run(context: ExperimentContext) -> BranchStudyResult:
    """Profile the 17 representatives on both platforms."""
    result = BranchStudyResult()
    n = len(REPRESENTATIVE_WORKLOADS)
    for definition in REPRESENTATIVE_WORKLOADS:
        xeon = context.counters(definition.workload_id, context.xeon)
        atom = context.counters(definition.workload_id, context.atom)
        result.rows.append(
            [
                definition.workload_id,
                xeon.branch_mispred_ratio,
                atom.branch_mispred_ratio,
            ]
        )
        result.e5645_avg += xeon.branch_mispred_ratio / n
        result.d510_avg += atom.branch_mispred_ratio / n
    return result
