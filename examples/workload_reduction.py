"""The paper's headline experiment: reduce 77 workloads to 17 (§3, Table 2).

Characterizes every workload in the BigDataBench catalog through one
shared experiment context (the cache every figure reads), normalises
the 45-metric matrix to a Gaussian distribution, reduces
dimensionality with PCA, clusters with K-means (K = 17) and selects
one centroid-nearest representative per cluster.

    python examples/workload_reduction.py [--quick]

``--quick`` clusters a 30-workload subset (about a quarter of the full
run time) so the pipeline can be explored interactively.
"""

import sys
import time

import numpy as np

from repro.core import render_pca_scatter
from repro.experiments import ExperimentContext
from repro.experiments.table2_reduction import reduce_population
from repro.workloads import ALL_WORKLOADS


def main() -> None:
    quick = "--quick" in sys.argv
    population = ALL_WORKLOADS[:30] if quick else ALL_WORKLOADS
    k = 8 if quick else 17

    print(f"characterizing {len(population)} workloads ...")
    start = time.time()
    context = ExperimentContext(scale=0.4, seed=0)
    result = reduce_population(context, population, k=k)
    elapsed = time.time() - start

    print(f"\n{result.n_clusters} clusters in {elapsed:.0f}s "
          f"(paper: 77 workloads -> 17 representatives)\n")
    for representative in result.representatives:
        members = result.clusters[representative]
        others = ", ".join(m for m in members if m != representative)
        print(f"  {representative:26s} represents {len(members):2d}"
              f"{':  ' + others if others else ''}")

    print("\nPCA retained "
          f"{result.pca.n_components} components explaining "
          f"{100 * result.pca.explained_variance_ratio.sum():.0f}% of variance\n")
    # Cached: re-reading the rows costs nothing.
    matrix = np.vstack(
        [context.counters(d).metric_vector() for d in population]
    )
    print(render_pca_scatter(result, matrix))


if __name__ == "__main__":
    main()
