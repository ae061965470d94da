"""Table 2 / §3: the WCRT reduction of the 77 workloads to 17.

Runs the full pipeline (characterize all 77 through the shared
:class:`ExperimentContext` → normalise → PCA → K-means with K = 17 →
pick centroid-nearest representatives) and compares the resulting
cluster structure with Table 2: seventeen clusters whose sizes sum to
77, with the paper's representatives (or close stack/operation
relatives) leading the large clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.subsetting import ReductionResult, reduce_workloads
from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.uarch.platforms import XEON_E5645
from repro.workloads import ALL_WORKLOADS, REPRESENTATIVE_WORKLOADS
from repro.workloads.base import WorkloadDefinition

#: The ``(workload, platform)`` characterizations :func:`run` reads, as
#: a counter spec names them for ``--jobs``: the catalog on the Xeon.
cells = [(d.workload_id, XEON_E5645) for d in ALL_WORKLOADS]


@dataclass
class ReductionExperimentResult:
    reduction: ReductionResult = None
    rows: List[list] = field(default_factory=list)
    representative_hits: int = 0

    @property
    def n_clusters(self) -> int:
        return self.reduction.n_clusters

    @property
    def members_total(self) -> int:
        return sum(len(m) for m in self.reduction.clusters.values())

    def fidelity_metrics(self) -> dict:
        """Registry metrics: cluster structure + Table 2 summary."""
        metrics = {
            f"cluster.{representative}.size": float(len(members))
            for representative, members in self.reduction.clusters.items()
        }
        metrics["summary.n_clusters"] = float(self.n_clusters)
        metrics["summary.members_total"] = float(self.members_total)
        metrics["summary.representative_hits"] = float(
            self.representative_hits
        )
        return metrics

    def to_dict(self) -> dict:
        """Machine-readable form (``repro reduce --json`` payload)."""
        return {
            "n_clusters": self.n_clusters,
            "members_total": self.members_total,
            "representative_hits": self.representative_hits,
            "clusters": {
                representative: sorted(members)
                for representative, members in self.reduction.clusters.items()
            },
        }

    def render(self) -> str:
        table = render_table(
            ["representative", "represents", "members"],
            self.rows,
            title="Table 2 — WCRT reduction (77 workloads, K = 17)",
        )
        summary = (
            f"\nclusters: {self.n_clusters}; cluster sizes sum to "
            f"{self.members_total}\n"
            f"{self.representative_hits}/{self.n_clusters} clusters are led "
            f"by a paper representative or contain one"
        )
        return table + summary


def reduce_population(
    context: ExperimentContext,
    population: Sequence[WorkloadDefinition] = ALL_WORKLOADS,
    k: int = 17,
) -> ReductionResult:
    """Reduce a population on its 45-metric Xeon characterizations.

    Every row is ``context.counters(d).metric_vector()``, so the
    reduction shares the context's cache and seed with every figure,
    and a custom definition rides alongside the catalog's.
    """
    return reduce_workloads(
        [d.workload_id for d in population],
        np.vstack([context.counters(d).metric_vector() for d in population]),
        k=k,
        seed=context.seed,
    )


def run(context: ExperimentContext, k: int = 17) -> ReductionExperimentResult:
    """Run the reduction on the full 77-workload catalog."""
    context.fill([(d, XEON_E5645) for d in ALL_WORKLOADS])
    reduction = reduce_population(context, ALL_WORKLOADS, k=k)

    result = ReductionExperimentResult(reduction=reduction)
    paper_ids = {d.workload_id for d in REPRESENTATIVE_WORKLOADS}
    for representative in reduction.representatives:
        members = reduction.clusters[representative]
        result.rows.append(
            [
                representative,
                len(members),
                ", ".join(m for m in members if m != representative)[:72],
            ]
        )
        if representative in paper_ids or any(m in paper_ids for m in members):
            result.representative_hits += 1
    return result
