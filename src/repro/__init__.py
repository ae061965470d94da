"""repro — reproduction of "Characterization and Architectural
Implications of Big Data Workloads" (Wang, Zhan, Jia, Han; ISPASS 2016).

Top-level convenience re-exports; the subpackages hold the substance:

- :mod:`repro.core` — WCRT's normalise → PCA → K-means reduction (the
  paper's contribution); :mod:`repro.experiments` feeds it the
  characterizations
- :mod:`repro.workloads` — the BigDataBench workload catalog
- :mod:`repro.stacks` — Hadoop/Spark/MPI/SQL/HBase engines
- :mod:`repro.uarch` — the simulated PMU and MARSSx86-style sweeps
- :mod:`repro.cluster` — the discrete-event testbed
- :mod:`repro.datagen` — the BDGS-style data generators
- :mod:`repro.comparison` — SPEC/PARSEC/HPCC/CloudSuite/TPC-C
- :mod:`repro.experiments` — one module per paper table/figure
"""

__version__ = "1.0.0"

from repro.uarch import ATOM_D510, XEON_E5645, characterize
from repro.workloads import (
    ALL_WORKLOADS,
    MPI_WORKLOADS,
    REPRESENTATIVE_WORKLOADS,
    workload,
)

__all__ = [
    "__version__",
    "ATOM_D510",
    "XEON_E5645",
    "characterize",
    "ALL_WORKLOADS",
    "MPI_WORKLOADS",
    "REPRESENTATIVE_WORKLOADS",
    "workload",
]
