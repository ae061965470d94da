"""Figure 4: L1I / L2 / L3 cache behaviour of every workload.

Paper reference points: big data averages L1I MPKI 15 (CloudSuite 32),
L2 MPKI 11, L3 MPKI 1.2; subclass L1I (service 51, data analysis 13,
interactive 14; CPU 8, I/O 22, hybrid 9); H-Read's L1I of 51; L2 per
category (service 32, data analysis 11, interactive 8); L3 per
category (service 1.2, data analysis 1.7, interactive 0.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.comparison import SUITES
from repro.experiments.runner import (
    BEHAVIOR_GROUPS,
    CATEGORY_GROUPS,
    ExperimentContext,
)
from repro.report.tables import render_table
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

LEVELS = ("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki")


@dataclass
class CacheBehaviorResult:
    workload_rows: List[list] = field(default_factory=list)
    suite_rows: List[list] = field(default_factory=list)
    group_rows: List[list] = field(default_factory=list)
    bigdata: Dict[str, float] = field(default_factory=dict)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: MPKI per workload/suite/group + means."""
        from repro.obs.registry import flatten_rows

        headers = ["workload"] + list(LEVELS)
        metrics = flatten_rows("workload", headers, self.workload_rows)
        metrics.update(flatten_rows("suite", headers, self.suite_rows))
        metrics.update(
            flatten_rows("group",
                         ["group", "l1i_mpki", "l2_mpki", "l3_mpki"],
                         self.group_rows)
        )
        for level, value in self.bigdata.items():
            metrics[f"bigdata.{level}"] = value
        return metrics

    def render(self) -> str:
        headers = ["workload", "L1I", "L1D", "L2", "L3"]
        parts = [
            render_table(headers, self.workload_rows,
                         title="Figure 4 — cache MPKI (Xeon E5645)"),
            render_table(["suite", "L1I", "L1D", "L2", "L3"], self.suite_rows,
                         title="\nsuite averages"),
            render_table(["group", "L1I", "L2", "L3"], self.group_rows,
                         title="\nsubclass averages"),
            f"\nbig data averages: L1I {self.bigdata['l1i_mpki']:.1f}, "
            f"L2 {self.bigdata['l2_mpki']:.1f}, "
            f"L3 {self.bigdata['l3_mpki']:.2f}",
        ]
        return "\n".join(parts)


def run(context: ExperimentContext) -> CacheBehaviorResult:
    """Regenerate Figure 4's data."""
    result = CacheBehaviorResult()
    for definition in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS:
        metrics = context.counters(definition.workload_id).metric_dict()
        result.workload_rows.append(
            [definition.workload_id] + [metrics[level] for level in LEVELS]
        )
    for suite_name in SUITES:
        result.suite_rows.append(
            [suite_name]
            + [context.suite_average(suite_name, level) for level in LEVELS]
        )
    for category in CATEGORY_GROUPS:
        result.group_rows.append(
            [f"category: {category}"]
            + [
                context.group_average(level, "category", category)
                for level in ("l1i_mpki", "l2_mpki", "l3_mpki")
            ]
        )
    for behavior in BEHAVIOR_GROUPS:
        result.group_rows.append(
            [f"behavior: {behavior}"]
            + [
                context.group_average(level, "behavior", behavior)
                for level in ("l1i_mpki", "l2_mpki", "l3_mpki")
            ]
        )
    for level in LEVELS:
        result.bigdata[level] = context.bigdata_average(level)
    return result
