"""Machine configurations used in the paper (Tables 3 and 4).

Two platforms are modelled:

- **Intel Xeon E5645** (Table 3) — the paper's main testbed: 6 cores at
  2.40 GHz, 32 KB L1I + 32 KB L1D per core, 256 KB L2 per core, 12 MB
  shared L3; out-of-order; hybrid branch prediction with loop counter,
  indirect predictor and an 8192-entry BTB (Table 4).
- **Intel Atom D510** (Table 4) — the low-power comparison point for the
  branch study: in-order, two-level adaptive predictor with a global
  history table, no indirect predictor, 128-entry BTB, 15-cycle
  misprediction penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.uarch.branch import HybridPredictor, Predictor, SimplePredictor
from repro.uarch.cache import CacheConfig, CacheHierarchy
from repro.uarch.tlb import TlbConfig


@dataclass(frozen=True)
class MemoryLatencies:
    """Load-to-use latencies beyond L1, in core cycles."""

    l2_hit: float
    l3_hit: float
    memory: float

    def __post_init__(self) -> None:
        if not 0 < self.l2_hit <= self.l3_hit <= self.memory:
            raise ValueError("latencies must be positive and increasing")


@dataclass(frozen=True)
class Platform:
    """A complete machine model.

    Attributes:
        name: Marketing name.
        frequency_ghz: Core clock.
        cores: Core count.
        issue_width: Sustainable retire width (instructions/cycle).
        out_of_order: Whether the core reorders around stalls.
        l1i / l1d / l2 / l3: Cache geometries (``l3`` may be None).
        itlb / dtlb: TLB geometries.
        predictor_factory: Builds a fresh branch predictor.
        branch_penalty: Pipeline-flush cost of a misprediction (cycles).
        latencies: Memory hierarchy latencies.
        tlb_penalty: Page-walk cost on a TLB miss (cycles).
        stall_hiding: Fraction of (l2, l3, memory) data-stall cycles the
            core overlaps with useful work; an out-of-order window hides
            much of the L2/L3 latency, an in-order core almost none.
        peak_gflops: Theoretical FP throughput (the §5.1 implication about
            wasted floating-point capacity).
    """

    name: str
    frequency_ghz: float
    cores: int
    issue_width: int
    out_of_order: bool
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l3: Optional[CacheConfig]
    itlb: TlbConfig
    dtlb: TlbConfig
    predictor_factory: Callable[[], Predictor] = field(repr=False)
    branch_penalty: float = 12.0
    latencies: MemoryLatencies = MemoryLatencies(10.0, 38.0, 190.0)
    tlb_penalty: float = 30.0
    stall_hiding: tuple = (0.85, 0.65, 0.40)
    peak_gflops: float = 57.6

    def make_hierarchy(self) -> CacheHierarchy:
        """A fresh cache hierarchy for one characterization run."""
        return CacheHierarchy(self.l1i, self.l1d, self.l2, self.l3)

    def make_predictor(self) -> Predictor:
        """A fresh branch predictor for one characterization run."""
        return self.predictor_factory()


#: The paper's main testbed (Table 3), micro-architectural details from
#: Table 4 and the Nehalem/Westmere documentation.
XEON_E5645 = Platform(
    name="Intel Xeon E5645",
    frequency_ghz=2.40,
    cores=6,
    issue_width=4,
    out_of_order=True,
    l1i=CacheConfig("L1I", 32 * 1024, ways=4),
    l1d=CacheConfig("L1D", 32 * 1024, ways=8),
    l2=CacheConfig("L2", 256 * 1024, ways=8),
    l3=CacheConfig("L3", 12 * 1024 * 1024, ways=16),
    itlb=TlbConfig("ITLB", entries=512, ways=4),
    dtlb=TlbConfig("DTLB", entries=512, ways=4),
    predictor_factory=HybridPredictor,
    branch_penalty=12.0,  # Table 4: 11-13 cycles
    latencies=MemoryLatencies(l2_hit=10.0, l3_hit=38.0, memory=190.0),
    tlb_penalty=30.0,
    stall_hiding=(0.85, 0.65, 0.40),
    peak_gflops=57.6,  # quoted in §5.1 implications
)

#: The low-power comparison platform of the branch-prediction study.
ATOM_D510 = Platform(
    name="Intel Atom D510",
    frequency_ghz=1.66,
    cores=2,
    issue_width=2,
    out_of_order=False,
    l1i=CacheConfig("L1I", 32 * 1024, ways=8),
    l1d=CacheConfig("L1D", 24 * 1024, ways=6),
    l2=CacheConfig("L2", 512 * 1024, ways=8),
    l3=None,
    itlb=TlbConfig("ITLB", entries=32, ways=4),
    dtlb=TlbConfig("DTLB", entries=64, ways=4),
    predictor_factory=SimplePredictor,
    branch_penalty=15.0,  # Table 4
    latencies=MemoryLatencies(l2_hit=15.0, l3_hit=16.0, memory=140.0),
    tlb_penalty=30.0,
    stall_hiding=(0.15, 0.10, 0.05),
    peak_gflops=6.6,
)
