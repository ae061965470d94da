"""§5.5: the software-stack impact study.

The same six algorithms implemented with MPI versus Hadoop/Spark.
Paper reference points:

- IPC: M-WordCount 1.8 vs Hadoop 1.1 and Spark 0.9; MPI average 1.4 vs
  1.16 for the others (a 21% gap).
- L1I MPKI: M-WordCount 2 vs Hadoop 7 and Spark 17 — one order of
  magnitude between stacks; MPI average 3.4 vs 12.6.
- L2/L3: M-WordCount 0.8/0.1 vs Hadoop 8.4/1.9 and Spark 16/2.7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table

#: Algorithm -> implementations present in the catalog (or MPI set).
ALGORITHM_STACKS = {
    "WordCount": ("M-WordCount", "H-WordCount", "S-WordCount"),
    "Grep": ("M-Grep", "H-Grep", "S-Grep"),
    "Sort": ("M-Sort", "H-Sort", "S-Sort"),
    "Kmeans": ("M-Kmeans", "H-Kmeans", "S-Kmeans"),
    "PageRank": ("M-PageRank", "H-PageRank", "S-PageRank"),
    "Bayes": ("M-Bayes", "H-NaiveBayes"),
}


@dataclass
class StackImpactResult:
    rows: List[list] = field(default_factory=list)
    mpi_avg: Dict[str, float] = field(default_factory=dict)
    others_avg: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc_gap(self) -> float:
        """Relative IPC advantage of the MPI versions (§5.5's 21%)."""
        return self.mpi_avg["ipc"] / self.others_avg["ipc"] - 1.0

    @property
    def l1i_ratio(self) -> float:
        """How many times larger the JVM stacks' L1I MPKI is."""
        return self.others_avg["l1i_mpki"] / max(1e-9, self.mpi_avg["l1i_mpki"])

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-workload numbers + §5.5 summary gaps."""
        from repro.obs.registry import flatten_rows

        metrics = flatten_rows(
            "workload", ["workload"] + list(METRICS), self.rows
        )
        for metric in METRICS:
            metrics[f"mpi_avg.{metric}"] = self.mpi_avg[metric]
            metrics[f"others_avg.{metric}"] = self.others_avg[metric]
        metrics["summary.ipc_gap"] = self.ipc_gap
        metrics["summary.l1i_ratio"] = self.l1i_ratio
        return metrics

    def to_dict(self) -> dict:
        """Machine-readable form (``repro stacks --json`` payload)."""
        return {
            "rows": [list(row) for row in self.rows],
            "mpi_avg": dict(self.mpi_avg),
            "others_avg": dict(self.others_avg),
            "ipc_gap": self.ipc_gap,
            "l1i_ratio": self.l1i_ratio,
        }

    def render(self) -> str:
        table = render_table(
            ["workload", "IPC", "L1I", "L2", "L3"],
            self.rows,
            title="§5.5 — software-stack impact (Xeon E5645)",
        )
        summary = (
            f"\nMPI averages: IPC {self.mpi_avg['ipc']:.2f}, "
            f"L1I {self.mpi_avg['l1i_mpki']:.1f}\n"
            f"Hadoop/Spark averages: IPC {self.others_avg['ipc']:.2f}, "
            f"L1I {self.others_avg['l1i_mpki']:.1f}\n"
            f"IPC gap {100 * self.ipc_gap:.0f}%, "
            f"L1I ratio {self.l1i_ratio:.1f}x"
        )
        return table + summary


METRICS = ("ipc", "l1i_mpki", "l2_mpki", "l3_mpki")


def run(context: ExperimentContext) -> StackImpactResult:
    """Regenerate the §5.5 comparison."""
    result = StackImpactResult()
    mpi_samples: List[Dict[str, float]] = []
    other_samples: List[Dict[str, float]] = []
    for algorithm, workload_ids in ALGORITHM_STACKS.items():
        for workload_id in workload_ids:
            metrics = context.counters(workload_id).metric_dict()
            result.rows.append(
                [workload_id] + [metrics[m] for m in METRICS]
            )
            bucket = mpi_samples if workload_id.startswith("M-") else other_samples
            bucket.append(metrics)
    for metric in METRICS:
        result.mpi_avg[metric] = sum(s[metric] for s in mpi_samples) / len(mpi_samples)
        result.others_avg[metric] = sum(
            s[metric] for s in other_samples
        ) / len(other_samples)
    return result
