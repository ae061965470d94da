"""Figure 5: ITLB / DTLB behaviour of every workload.

Paper reference points: big data averages ITLB MPKI 0.05 and DTLB MPKI
0.9; ITLB per category (service 0.2, data analysis 0.04, interactive
0.04); DTLB per category (service 1.8, data analysis 1.1, interactive
0.5); CloudSuite above, HPCC/PARSEC at or below the big data numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.comparison import SUITES
from repro.experiments.runner import (
    BEHAVIOR_GROUPS,
    CATEGORY_GROUPS,
    ExperimentContext,
)
from repro.report.tables import render_table
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS


@dataclass
class TlbBehaviorResult:
    workload_rows: List[list] = field(default_factory=list)
    suite_rows: List[list] = field(default_factory=list)
    group_rows: List[list] = field(default_factory=list)
    bigdata_itlb: float = 0.0
    bigdata_dtlb: float = 0.0

    def fidelity_metrics(self) -> dict:
        """Registry metrics: TLB MPKI per workload/suite/group + means."""
        from repro.obs.registry import flatten_rows

        headers = ["workload", "itlb_mpki", "dtlb_mpki"]
        metrics = flatten_rows("workload", headers, self.workload_rows)
        metrics.update(flatten_rows("suite", headers, self.suite_rows))
        metrics.update(
            flatten_rows("group", ["group", "itlb_mpki", "dtlb_mpki"],
                         self.group_rows)
        )
        metrics["bigdata.itlb_mpki"] = self.bigdata_itlb
        metrics["bigdata.dtlb_mpki"] = self.bigdata_dtlb
        return metrics

    def render(self) -> str:
        parts = [
            render_table(["workload", "ITLB", "DTLB"], self.workload_rows,
                         title="Figure 5 — TLB MPKI (Xeon E5645)"),
            render_table(["suite", "ITLB", "DTLB"], self.suite_rows,
                         title="\nsuite averages"),
            render_table(["group", "ITLB", "DTLB"], self.group_rows,
                         title="\nsubclass averages"),
            f"\nbig data averages: ITLB {self.bigdata_itlb:.3f}, "
            f"DTLB {self.bigdata_dtlb:.2f}",
        ]
        return "\n".join(parts)


def run(context: ExperimentContext) -> TlbBehaviorResult:
    """Regenerate Figure 5's data."""
    result = TlbBehaviorResult()
    for definition in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS:
        metrics = context.counters(definition.workload_id).metric_dict()
        result.workload_rows.append(
            [definition.workload_id, metrics["itlb_mpki"], metrics["dtlb_mpki"]]
        )
    for suite_name in SUITES:
        result.suite_rows.append(
            [
                suite_name,
                context.suite_average(suite_name, "itlb_mpki"),
                context.suite_average(suite_name, "dtlb_mpki"),
            ]
        )
    for category in CATEGORY_GROUPS:
        result.group_rows.append(
            [
                f"category: {category}",
                context.group_average("itlb_mpki", "category", category),
                context.group_average("dtlb_mpki", "category", category),
            ]
        )
    for behavior in BEHAVIOR_GROUPS:
        result.group_rows.append(
            [
                f"behavior: {behavior}",
                context.group_average("itlb_mpki", "behavior", behavior),
                context.group_average("dtlb_mpki", "behavior", behavior),
            ]
        )
    result.bigdata_itlb = context.bigdata_average("itlb_mpki")
    result.bigdata_dtlb = context.bigdata_average("dtlb_mpki")
    return result
