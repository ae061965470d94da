"""Workload subsetting: the 77 → 17 reduction.

Pipeline per §3: metric matrix → Gaussian normalisation → PCA →
K-means → choose, per cluster, the member closest to the centroid as
the representative.  The representative "represents" every member of
its cluster (the parenthesised counts in Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.kmeans import KMeansModel, choose_k_bic, fit_kmeans
from repro.core.normalize import NormalizationModel, gaussian_normalize
from repro.core.pca import PcaModel, fit_pca


@dataclass
class ReductionResult:
    """Outcome of a WCRT reduction.

    Attributes:
        names: Workload names, in input order.
        representatives: One workload name per cluster (centroid-nearest).
        clusters: Mapping representative -> member names (including the
            representative itself); cluster size is the "represents"
            count of Table 2.
        labels: Cluster index per workload.
        kmeans / pca / normalization: The fitted stage models.
    """

    names: List[str]
    representatives: List[str]
    clusters: Dict[str, List[str]] = field(default_factory=dict)
    labels: np.ndarray = None
    kmeans: KMeansModel = None
    pca: PcaModel = None
    normalization: NormalizationModel = None

    @property
    def n_clusters(self) -> int:
        return len(self.representatives)

    def represents(self, representative: str) -> int:
        """Cluster size for a representative (Table 2's parentheses)."""
        return len(self.clusters[representative])

    def cluster_of(self, name: str) -> str:
        """The representative whose cluster contains ``name``."""
        for representative, members in self.clusters.items():
            if name in members:
                return representative
        raise KeyError(name)


def reduce_workloads(
    names: Sequence[str],
    metric_matrix: np.ndarray,
    k: Optional[int] = 17,
    variance_to_keep: float = 0.90,
    seed: int = 0,
) -> ReductionResult:
    """Run the full WCRT reduction.

    Args:
        names: Workload identifiers, one per matrix row.
        metric_matrix: (workloads x 45) raw metric values.
        k: Number of clusters; None selects K by BIC (the paper's
            companion methodology), 17 reproduces the paper's result.
        variance_to_keep: PCA cumulative-variance threshold.
        seed: RNG seed for k-means restarts.
    """
    matrix = np.asarray(metric_matrix, dtype=float)
    names = list(names)
    if matrix.shape[0] != len(names):
        raise ValueError("one name per matrix row required")
    if len(set(names)) != len(names):
        raise ValueError("workload names must be unique")

    normalized, normalization = gaussian_normalize(matrix)
    pca = fit_pca(normalized, variance_to_keep=variance_to_keep)
    projected = pca.transform(normalized)

    if k is None:
        k = choose_k_bic(projected, seed=seed)
    kmeans = fit_kmeans(projected, k, seed=seed)

    representatives: List[str] = []
    clusters: Dict[str, List[str]] = {}
    for cluster in range(kmeans.k):
        member_indices = np.where(kmeans.labels == cluster)[0]
        if len(member_indices) == 0:
            continue
        distances = (
            (projected[member_indices] - kmeans.centroids[cluster]) ** 2
        ).sum(axis=1)
        representative_index = member_indices[distances.argmin()]
        representative = names[representative_index]
        representatives.append(representative)
        clusters[representative] = [names[i] for i in member_indices]

    # Order clusters by descending size, as Table 2 lists them.
    representatives.sort(key=lambda name: -len(clusters[name]))

    return ReductionResult(
        names=names,
        representatives=representatives,
        clusters=clusters,
        labels=kmeans.labels,
        kmeans=kmeans,
        pca=pca,
        normalization=normalization,
    )

