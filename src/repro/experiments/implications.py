"""§5.1 implications: floating-point capacity utilisation.

"The E5645 processors can achieve 57.6 GFLOPS in theory, but the
average floating point performance of big data workloads is about 0.1
GFLOPS … incurring a serious waste of floating point capacity and
hence die size."  This experiment regenerates that statistic per
workload and per suite, plus the branch-prediction implication numbers
(misprediction × penalty = flushed-cycle share).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.comparison import SUITES
from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.uarch.platforms import XEON_E5645
from repro.workloads import REPRESENTATIVE_WORKLOADS


@dataclass
class ImplicationsResult:
    workload_rows: List[list] = field(default_factory=list)
    suite_rows: List[list] = field(default_factory=list)
    bigdata_gflops: float = 0.0
    bigdata_fp_utilization: float = 0.0
    bigdata_flush_share: float = 0.0

    def render(self) -> str:
        parts = [
            render_table(
                ["workload", "GFLOPS", "FP capacity used", "flush cycle share"],
                self.workload_rows,
                title="§5.1 implications — FP capacity and speculation waste",
            ),
            render_table(
                ["suite", "GFLOPS", "FP capacity used"],
                self.suite_rows,
                title="\nsuite averages",
            ),
            (
                f"\nbig data mean {self.bigdata_gflops:.2f} GFLOPS of "
                f"{XEON_E5645.peak_gflops} peak "
                f"({100 * self.bigdata_fp_utilization:.1f}% used) — "
                f"{100 * self.bigdata_flush_share:.1f}% of cycles lost to "
                f"branch flushes"
            ),
        ]
        return "\n".join(parts)


def run(context: ExperimentContext) -> ImplicationsResult:
    """Regenerate the §5.1 implication statistics."""
    result = ImplicationsResult()
    peak = context.xeon.peak_gflops
    n = len(REPRESENTATIVE_WORKLOADS)
    for definition in REPRESENTATIVE_WORKLOADS:
        metrics = context.counters(definition.workload_id).metric_dict()
        gflops = metrics["gflops"]
        flush = metrics["branch_stall_ratio"]
        result.workload_rows.append(
            [definition.workload_id, gflops, gflops / peak, flush]
        )
        result.bigdata_gflops += gflops / n
        result.bigdata_flush_share += flush / n
    result.bigdata_fp_utilization = result.bigdata_gflops / peak

    for suite_name in SUITES:
        gflops = context.suite_average(suite_name, "gflops")
        result.suite_rows.append([suite_name, gflops, gflops / peak])
    return result
