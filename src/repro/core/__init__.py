"""WCRT — the Workload Characterization and Reduction Tool (§2.2, §3).

The paper's primary contribution: the 45-metric characterization of
every workload (gathered through
:class:`repro.experiments.ExperimentContext`) is normalised to a
Gaussian distribution, reduced in dimensionality with principal
component analysis and clustered with K-means, and one representative
workload is selected per cluster — reducing BigDataBench's 77
workloads to 17
(:func:`repro.experiments.table2_reduction.reduce_population`).
"""

from repro.core.normalize import gaussian_normalize, NormalizationModel
from repro.core.pca import PcaModel, fit_pca
from repro.core.kmeans import KMeansModel, fit_kmeans, choose_k_bic
from repro.core.subsetting import ReductionResult, reduce_workloads
from repro.core.independent import (
    INDEPENDENT_METRIC_NAMES,
    adjusted_rand_index,
    independent_matrix,
    independent_vector,
    reduce_workloads_independent,
)

__all__ = [
    "gaussian_normalize",
    "NormalizationModel",
    "PcaModel",
    "fit_pca",
    "KMeansModel",
    "fit_kmeans",
    "choose_k_bic",
    "ReductionResult",
    "reduce_workloads",
    "INDEPENDENT_METRIC_NAMES",
    "adjusted_rand_index",
    "independent_matrix",
    "independent_vector",
    "reduce_workloads_independent",
]
