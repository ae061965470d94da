"""Table 4 / §5.1–§5.2: the E5645 and the D510 on the 17 representatives.

The paper profiles the big data workloads on both platforms and finds
average misprediction ratios of 2.8% (Xeon E5645, hybrid predictor
with loop counter, indirect predictor and 8192-entry BTB) versus 7.8%
(Atom D510, two-level global predictor, 128-entry BTB).

The same two characterizations give §5.2's wimpy-core (Atom) versus
brawny-core (Xeon) comparison: "We speculate that the processor
architecture should not have one-size-fits-all solution."  The
per-core slowdown is Xeon IPC×GHz over Atom IPC×GHz; a wide spread of
slowdowns means neither road map wins everywhere.  §5.2 states no
number, so the slowdowns are recorded but not anchored.
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
    #: Mean share of E5645 cycles lost to branch flushes.
    e5645_flush_share: float = 0.0

    @property
    def ratio(self) -> float:
        """How many times worse the D510 predicts than the E5645."""
        return self.d510_avg / max(1e-9, self.e5645_avg)

    @property
    def slowdown_min(self) -> float:
        return min(row[3] for row in self.rows)

    @property
    def slowdown_max(self) -> float:
        return max(row[3] for row in self.rows)

    @property
    def slowdown_spread(self) -> float:
        """max/min per-core slowdown across workloads."""
        return self.slowdown_max / max(1e-9, self.slowdown_min)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload misprediction and slowdown,
        platform means and the slowdown range."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows(
            "workload",
            ["workload", "e5645_mispred", "d510_mispred", "slowdown"],
            self.rows,
        )
        metrics["summary.e5645_mispred"] = self.e5645_avg
        metrics["summary.d510_mispred"] = self.d510_avg
        metrics["summary.ratio"] = self.ratio
        metrics["summary.slowdown_min"] = self.slowdown_min
        metrics["summary.slowdown_max"] = self.slowdown_max
        metrics["summary.slowdown_spread"] = self.slowdown_spread
        metrics["summary.e5645_flush_share"] = self.e5645_flush_share
        return metrics

    def render(self) -> str:
        table = render_table(
            ["workload", "E5645 mispred", "D510 mispred", "D510 slowdown"],
            self.rows,
            title="Table 4 study — branch misprediction and per-core "
                  "slowdown by platform",
        )
        summary = (
            f"\naverages: E5645 {self.e5645_avg:.3f}, "
            f"D510 {self.d510_avg:.3f}; ratio {self.ratio:.1f}x"
            f"\nE5645 cycles lost to branch flushes: "
            f"{100 * self.e5645_flush_share:.1f}%"
            f"\nper-core slowdown spans {self.slowdown_min:.1f}x to "
            f"{self.slowdown_max:.1f}x (spread {self.slowdown_spread:.1f}x)"
        )
        return table + summary


def run(context: ExperimentContext) -> BranchStudyResult:
    """Profile the 17 representatives on both platforms."""
    result = BranchStudyResult()
    n = len(REPRESENTATIVE_WORKLOADS)
    for definition in REPRESENTATIVE_WORKLOADS:
        xeon = context.counters(definition.workload_id, context.xeon)
        atom = context.counters(definition.workload_id, context.atom)
        # Per-cycle capability scaled by clock: per-core wall-clock ratio.
        slowdown = (
            (xeon.ipc * context.xeon.frequency_ghz)
            / max(1e-9, atom.ipc * context.atom.frequency_ghz)
        )
        result.rows.append(
            [
                definition.workload_id,
                xeon.branch_mispred_ratio,
                atom.branch_mispred_ratio,
                slowdown,
            ]
        )
        result.e5645_avg += xeon.branch_mispred_ratio / n
        result.d510_avg += atom.branch_mispred_ratio / n
        result.e5645_flush_share += xeon.pipeline.branch_stall_ratio / n
    return result
