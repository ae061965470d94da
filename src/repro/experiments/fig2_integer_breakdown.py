"""Figure 2: what the integer instructions of big data workloads do.

The paper instruments the source code and finds, on average, 64% of
integer instructions calculating integer-array addresses, 18%
calculating floating-point-array addresses and 18% other computation —
and combines this with Figure 1 into the headline statistic: ~73% of
all instructions are data movement (load/store + address arithmetic),
rising to 92% with branches included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.uarch.isa import data_movement_share, data_movement_with_branches
from repro.workloads import REPRESENTATIVE_WORKLOADS


@dataclass
class IntegerBreakdownResult:
    rows: List[list] = field(default_factory=list)
    avg_int_addr: float = 0.0
    avg_fp_addr: float = 0.0
    avg_other: float = 0.0
    avg_data_movement: float = 0.0
    avg_with_branches: float = 0.0

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload breakdown + §5.1 averages."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows(
            "workload",
            ["workload", "int_addr", "fp_addr", "other", "data_movement",
             "with_branches"],
            self.rows,
        )
        metrics.update(
            {
                "avg.int_addr": self.avg_int_addr,
                "avg.fp_addr": self.avg_fp_addr,
                "avg.other": self.avg_other,
                "avg.data_movement": self.avg_data_movement,
                "avg.with_branches": self.avg_with_branches,
            }
        )
        return metrics

    def render(self) -> str:
        table = render_table(
            ["workload", "int addr", "fp addr", "other", "data movement", "+branches"],
            self.rows,
            title="Figure 2 — integer instruction breakdown",
        )
        summary = (
            f"\naverages: int addr {self.avg_int_addr:.2f}, "
            f"fp addr {self.avg_fp_addr:.2f}, other {self.avg_other:.2f}\n"
            f"data movement share {self.avg_data_movement:.2f}, "
            f"with branches {self.avg_with_branches:.2f}"
        )
        return table + summary


def run(context: ExperimentContext) -> IntegerBreakdownResult:
    """Regenerate Figure 2's data plus the §5.1 shares."""
    result = IntegerBreakdownResult()
    n = len(REPRESENTATIVE_WORKLOADS)
    for definition in REPRESENTATIVE_WORKLOADS:
        counters = context.counters(definition.workload_id)
        breakdown = counters.int_breakdown
        movement = data_movement_share(counters.mix, breakdown)
        with_branches = data_movement_with_branches(counters.mix, breakdown)
        result.rows.append(
            [
                definition.workload_id,
                breakdown.int_addr,
                breakdown.fp_addr,
                breakdown.other,
                movement,
                with_branches,
            ]
        )
        result.avg_int_addr += breakdown.int_addr / n
        result.avg_fp_addr += breakdown.fp_addr / n
        result.avg_other += breakdown.other / n
        result.avg_data_movement += movement / n
        result.avg_with_branches += with_branches / n
    return result
