"""Figure 1: the retired-instruction breakdown of all workloads.

Reproduces the per-workload instruction mix (integer / FP / branch /
load / store) for the 17 representatives, the six MPI versions and the
comparison suites, plus the subclass averages quoted in §5.1:

- average big data branch ratio 18.7% (service 18%, data analysis 19%,
  interactive analysis 19%; CPU 19%, I/O 18%, hybrid 19%),
- average big data integer ratio 38% (service 40%, data analysis 38%,
  interactive 38%; CPU 37%, I/O 39%, hybrid 38%),
- compared against SPECINT 41%, CloudSuite 34%, TPC-C 33% integer and
  TPC-C's 30% branch ratio.
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
from repro.obs.registry import flatten_rows
from repro.report.tables import render_table
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

MIX_METRICS = ("ratio_integer", "ratio_fp", "ratio_branch", "ratio_load", "ratio_store")


@dataclass
class InstructionMixResult:
    """Per-workload and per-group instruction mixes."""

    workload_rows: List[list] = field(default_factory=list)
    suite_rows: List[list] = field(default_factory=list)
    group_rows: List[list] = field(default_factory=list)
    bigdata_branch: float = 0.0
    bigdata_integer: float = 0.0

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload/suite/group mixes + averages."""
        headers = ["workload"] + list(MIX_METRICS)
        metrics = flatten_rows("workload", headers, self.workload_rows)
        metrics.update(flatten_rows("suite", headers, self.suite_rows))
        metrics.update(
            flatten_rows("group", ["group", "ratio_branch", "ratio_integer"],
                         self.group_rows)
        )
        metrics["bigdata.ratio_branch"] = self.bigdata_branch
        metrics["bigdata.ratio_integer"] = self.bigdata_integer
        return metrics

    def render(self) -> str:
        headers = ["workload", "integer", "fp", "branch", "load", "store"]
        parts = [
            render_table(headers, self.workload_rows,
                         title="Figure 1 — instruction breakdown (big data workloads)"),
            render_table(headers, self.suite_rows,
                         title="\nFigure 1 — instruction breakdown (comparison suites)"),
            render_table(["group", "branch", "integer"], self.group_rows,
                         title="\n§5.1 subclass averages"),
            f"\nbig data averages: branch {self.bigdata_branch:.3f}, "
            f"integer {self.bigdata_integer:.3f}",
        ]
        return "\n".join(parts)


def run(context: ExperimentContext) -> InstructionMixResult:
    """Regenerate Figure 1's data."""
    result = InstructionMixResult()

    for definition in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS:
        metrics = context.counters(definition.workload_id).metric_dict()
        result.workload_rows.append(
            [definition.workload_id] + [metrics[m] for m in MIX_METRICS]
        )

    for suite_name in SUITES:
        row = [suite_name] + [
            context.suite_average(suite_name, metric) for metric in MIX_METRICS
        ]
        result.suite_rows.append(row)

    for category in CATEGORY_GROUPS:
        result.group_rows.append(
            [
                f"category: {category}",
                context.group_average("ratio_branch", "category", category),
                context.group_average("ratio_integer", "category", category),
            ]
        )
    for behavior in BEHAVIOR_GROUPS:
        result.group_rows.append(
            [
                f"behavior: {behavior}",
                context.group_average("ratio_branch", "behavior", behavior),
                context.group_average("ratio_integer", "behavior", behavior),
            ]
        )

    result.bigdata_branch = context.bigdata_average("ratio_branch")
    result.bigdata_integer = context.bigdata_average("ratio_integer")
    return result
