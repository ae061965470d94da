"""Figure 3: IPC of every workload on the Xeon E5645, and §5.1's GFLOPS.

Paper reference points: big data average 1.28 vs SPECFP 1.1, SPECINT
0.9, PARSEC 1.28, HPCC 1.5; subclass averages (service 0.8, data
analysis 1.2, interactive 1.3; CPU 1.3, I/O 1.2, hybrid 1.3); notable
individuals H-Read 0.8, S-Project 1.6, S-TPC-DS-query8 1.7 and the
CloudSuite service average 0.9.

§5.1's floating-point implication reads the same counters: "The E5645
processors can achieve 57.6 GFLOPS in theory, but the average floating
point performance of big data workloads is about 0.1 GFLOPS …
incurring a serious waste of floating point capacity and hence die
size."
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


@dataclass
class IpcResult:
    workload_rows: List[list] = field(default_factory=list)
    suite_ipcs: Dict[str, float] = field(default_factory=dict)
    suite_gflops: Dict[str, float] = field(default_factory=dict)
    group_rows: List[list] = field(default_factory=list)
    bigdata_ipc: float = 0.0
    bigdata_gflops: float = 0.0
    #: ``bigdata_gflops`` over the E5645's peak (§5.1's 57.6 GFLOPS).
    bigdata_fp_utilization: float = 0.0

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload/suite IPC and GFLOPS, group
        IPC, and the big data means."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows("workload", ["workload", "ipc", "gflops"],
                               self.workload_rows)
        for name, ipc in self.suite_ipcs.items():
            metrics[f"suite.{name}.ipc"] = ipc
            metrics[f"suite.{name}.gflops"] = self.suite_gflops[name]
        metrics.update(flatten_rows("group", ["group", "ipc"],
                                    self.group_rows))
        metrics["bigdata.ipc"] = self.bigdata_ipc
        metrics["bigdata.gflops"] = self.bigdata_gflops
        metrics["bigdata.fp_utilization"] = self.bigdata_fp_utilization
        return metrics

    def render(self) -> str:
        parts = [
            render_table(["workload", "IPC", "GFLOPS"], self.workload_rows,
                         title="Figure 3 — IPC (Xeon E5645)"),
            render_table(["suite", "IPC", "GFLOPS"],
                         [[name, ipc, self.suite_gflops[name]]
                          for name, ipc in self.suite_ipcs.items()],
                         title="\nsuite averages"),
            render_table(["group", "IPC"], self.group_rows,
                         title="\nsubclass averages"),
            f"\nbig data average IPC {self.bigdata_ipc:.2f}",
            f"big data average {self.bigdata_gflops:.3f} GFLOPS "
            f"({100 * self.bigdata_fp_utilization:.2f}% of peak)",
        ]
        return "\n".join(parts)


def run(context: ExperimentContext) -> IpcResult:
    """Regenerate Figure 3's data and §5.1's FP-capacity statistic."""
    result = IpcResult()
    for definition in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS:
        counters = context.counters(definition.workload_id)
        result.workload_rows.append(
            [definition.workload_id, counters.ipc, counters.gflops]
        )
    for suite_name in SUITES:
        result.suite_ipcs[suite_name] = context.suite_average(suite_name, "ipc")
        result.suite_gflops[suite_name] = context.suite_average(
            suite_name, "gflops"
        )
    for category in CATEGORY_GROUPS:
        result.group_rows.append(
            [f"category: {category}",
             context.group_average("ipc", "category", category)]
        )
    for behavior in BEHAVIOR_GROUPS:
        result.group_rows.append(
            [f"behavior: {behavior}",
             context.group_average("ipc", "behavior", behavior)]
        )
    result.bigdata_ipc = context.bigdata_average("ipc")
    result.bigdata_gflops = context.bigdata_average("gflops")
    result.bigdata_fp_utilization = (
        result.bigdata_gflops / context.xeon.peak_gflops
    )
    return result
