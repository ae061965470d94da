"""repro — reproduction of "Characterization and Architectural
Implications of Big Data Workloads" (Wang, Zhan, Jia, Han; ISPASS 2016).

Top-level convenience re-exports, each imported on first use
(:mod:`repro._lazy`); the subpackages hold the substance:

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

from repro._lazy import lazy_exports

#: re-exported name -> the module that defines it, imported on first use.
_EXPORTS = {
    "ATOM_D510": "repro.uarch.platforms",
    "XEON_E5645": "repro.uarch.platforms",
    "characterize": "repro.uarch.counters",
    "ALL_WORKLOADS": "repro.workloads.registry",
    "MPI_WORKLOADS": "repro.workloads.registry",
    "REPRESENTATIVE_WORKLOADS": "repro.workloads.registry",
    "workload": "repro.workloads.registry",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
