"""Comparison benchmark suites (§4.3 of the paper).

SPECINT / SPECFP (desktop), PARSEC (CMP), HPCC (HPC), CloudSuite
(scale-out services) and TPC-C (OLTP) as comparison points in the same
45-metric space.  Each suite member executes a genuine miniature kernel
(compression, linear algebra, stencils, transaction processing, ...)
through the same metering machinery as the big data workloads, with a
thin native runtime model instead of a big-data software stack.
"""

from repro.comparison.base import NativeBenchmark
from repro.comparison.spec import SPECINT, SPECFP
from repro.comparison.parsec import PARSEC
from repro.comparison.hpcc import HPCC
from repro.comparison.cloudsuite import CLOUDSUITE
from repro.comparison.tpcc import TPCC

#: All comparison suites keyed by the paper's names.
SUITES = {
    "SPECINT": SPECINT,
    "SPECFP": SPECFP,
    "PARSEC": PARSEC,
    "HPCC": HPCC,
    "CloudSuite": CLOUDSUITE,
    "TPC-C": TPCC,
}

__all__ = [
    "NativeBenchmark",
    "SPECINT",
    "SPECFP",
    "PARSEC",
    "HPCC",
    "CLOUDSUITE",
    "TPCC",
    "SUITES",
]
