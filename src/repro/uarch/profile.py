"""Behaviour profiles: the contract between workloads and the simulators.

A :class:`BehaviorProfile` is what a workload execution (a real algorithm
run inside a software-stack engine) distils into: an instruction mix, a
code footprint, a data working-set model, and a branch-behaviour model.
The :mod:`repro.uarch.trace` generators turn a profile into concrete
instruction-fetch, data-access and branch streams, and the cache / TLB /
branch-predictor simulators measure miss behaviour from those streams.

This mirrors the paper's methodology: the hardware PMU observes streams
produced by real software; here the streams are synthesised from
mechanistic models of the same software, and the "PMU" is a simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.uarch.isa import InstructionMix, IntBreakdown

#: Cache line size used throughout (matches the paper's MARSSx86 config).
LINE_BYTES = 64

#: Page size used for TLB simulation.
PAGE_BYTES = 4096


@dataclass(frozen=True)
class CodeRegion:
    """A contiguous chunk of executed code.

    Workload kernels contribute a small, hot region; software stacks
    contribute large, cooler regions (the framework long-tail that gives
    Hadoop/Spark their ~1 MB instruction footprints in §5.4).

    Attributes:
        name: Human-readable label ("kernel-loop", "hadoop-framework", ...).
        size_bytes: Static code size of the region.
        weight: Relative share of dynamic instruction fetches drawn from
            this region (normalised across the footprint's regions).
        sequentiality: Mean number of consecutive cache lines fetched per
            visit — the basic-block run length in lines.  Tight loops have
            small regions visited with high weight; framework code has long
            call chains wandering across a large region.
    """

    name: str
    size_bytes: int
    weight: float
    sequentiality: float = 4.0

    def __post_init__(self) -> None:
        if self.size_bytes < LINE_BYTES:
            raise ValueError("code region must be at least one cache line")
        if self.weight < 0:
            raise ValueError("region weight must be non-negative")
        if self.sequentiality < 1.0:
            raise ValueError("sequentiality must be >= 1 line")

    @property
    def lines(self) -> int:
        """Region size in cache lines."""
        return max(1, self.size_bytes // LINE_BYTES)


@dataclass
class CodeFootprint:
    """The set of code regions a workload's dynamic execution touches."""

    regions: List[CodeRegion] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("code footprint needs at least one region")
        if sum(r.weight for r in self.regions) <= 0:
            raise ValueError("total region weight must be positive")

    @property
    def total_bytes(self) -> int:
        """Total static code size — the paper's 'instruction footprint'."""
        return sum(r.size_bytes for r in self.regions)

    def normalized_weights(self) -> List[float]:
        """Region fetch weights normalised to sum to 1."""
        total = sum(r.weight for r in self.regions)
        return [r.weight / total for r in self.regions]


@dataclass(frozen=True)
class DataFootprint:
    """Working-set model of a workload's data references.

    Data accesses are modelled as a mixture of three regions:

    - a *hot* region: stack slots, loop-local variables and hot object
      fields — a few KB that absorb the large majority of loads/stores
      and essentially always hit the L1D;
    - a *state* region: resident structures (hash tables, centroid arrays,
      shuffle/sort buffers, memstores) accessed with a skewed
      distribution; its size relative to L2/L3 determines mid-level
      behaviour;
    - a *stream* region: input/output records flowing through the
      workload (compulsory misses; each line is touched, reused a few
      times while the record is parsed, and abandoned).

    Attributes:
        stream_bytes: Bytes of streaming data flowing through a sampled
            execution window.
        state_bytes: Size of the resident state region.
        hot_bytes: Size of the hot stack/locals region.
        hot_fraction: Fraction of data references hitting the hot region.
        state_fraction: Fraction hitting the state region (the remainder,
            ``1 - hot_fraction - state_fraction``, walks the stream).
        stream_reuse: Mean number of near-in-time re-references to each
            streamed cache line after its first touch.
        state_zipf: Skew parameter of the Zipf-like distribution over state
            lines (0 = uniform; ~1 = heavily skewed towards hot lines).
    """

    stream_bytes: int
    state_bytes: int
    state_fraction: float
    hot_bytes: int = 16 * 1024
    hot_fraction: float = 0.82
    stream_reuse: float = 2.0
    state_zipf: float = 0.6

    def __post_init__(self) -> None:
        if self.stream_bytes < 0 or self.state_bytes < 0 or self.hot_bytes < 0:
            raise ValueError("footprint sizes must be non-negative")
        if self.stream_bytes == 0 and self.state_bytes == 0 and self.hot_bytes == 0:
            raise ValueError("data footprint cannot be entirely empty")
        if not 0.0 <= self.state_fraction <= 1.0:
            raise ValueError("state_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_fraction + self.state_fraction > 1.0 + 1e-9:
            raise ValueError("hot_fraction + state_fraction must not exceed 1")
        if self.stream_reuse < 0:
            raise ValueError("stream_reuse must be non-negative")
        if self.state_zipf < 0:
            raise ValueError("state_zipf must be non-negative")

    @property
    def stream_fraction(self) -> float:
        """Fraction of data references that walk the stream region."""
        return max(0.0, 1.0 - self.hot_fraction - self.state_fraction)

    @property
    def total_bytes(self) -> int:
        """Total data footprint in bytes."""
        return self.stream_bytes + self.state_bytes + self.hot_bytes


@dataclass(frozen=True)
class BranchProfile:
    """Statistical model of a workload's branch behaviour.

    Dynamic branches are drawn from a population of static branch sites of
    three kinds:

    - *loop* branches: back-edges taken ``loop_trip - 1`` times out of
      ``loop_trip`` (very predictable for a loop-aware predictor such as
      the Xeon E5645's, per Table 4);
    - *patterned* branches: short repeating taken/not-taken patterns
      (capturable by two-level history predictors);
    - *data-dependent* branches: outcome is Bernoulli(``taken_prob``),
      essentially unpredictable beyond its bias — the dominant kind in big
      data kernels full of compare-and-branch record processing.

    Attributes:
        loop_fraction: Share of dynamic branches that are loop back-edges.
        pattern_fraction: Share following short repeating patterns.
        data_dependent_fraction: Share that are data-dependent.
        taken_prob: Taken probability of data-dependent branches.
        loop_trip: Mean loop trip count.
        pattern_period: Period of patterned branches.
        indirect_fraction: Share of dynamic branches that are indirect
            jumps/calls (virtual dispatch — large for JVM-hosted stacks).
        indirect_targets: Mean number of distinct targets per indirect site.
        static_sites: Number of distinct static branch sites (pressure on
            BTB and pattern tables; scales with code footprint).
    """

    loop_fraction: float
    pattern_fraction: float
    data_dependent_fraction: float
    taken_prob: float = 0.5
    loop_trip: int = 16
    pattern_period: int = 4
    indirect_fraction: float = 0.02
    indirect_targets: int = 4
    static_sites: int = 512

    def __post_init__(self) -> None:
        total = (
            self.loop_fraction + self.pattern_fraction + self.data_dependent_fraction
        )
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(
                f"branch kind fractions must sum to 1, got {total!r}"
            )
        if not 0.0 <= self.taken_prob <= 1.0:
            raise ValueError("taken_prob must be in [0, 1]")
        if self.loop_trip < 2:
            raise ValueError("loop_trip must be >= 2")
        if self.pattern_period < 2:
            raise ValueError("pattern_period must be >= 2")
        if not 0.0 <= self.indirect_fraction <= 1.0:
            raise ValueError("indirect_fraction must be in [0, 1]")
        if self.indirect_targets < 1:
            raise ValueError("indirect_targets must be >= 1")
        if self.static_sites < 1:
            raise ValueError("static_sites must be >= 1")


@dataclass
class BehaviorProfile:
    """Everything the uarch simulators need to characterize a workload.

    Produced by :mod:`repro.stacks` engines from real kernel executions;
    consumed by :func:`repro.uarch.counters.characterize`.

    Attributes:
        name: Workload identifier (e.g. ``"S-WordCount"``).
        mix: Dynamic instruction mix (Figure 1).
        int_breakdown: What the integer instructions do (Figure 2).
        code: Instruction footprint model (§5.4 locality study).
        data: Data working-set model.
        branches: Branch behaviour model.
        ilp: Mean exploitable instruction-level parallelism — the number of
            independent instructions the out-of-order core can overlap per
            cycle before dependency chains bind it.
        instructions: Total dynamic instructions of the (scaled) run.
        fp_ops: Dynamic floating-point operations (for operation intensity
            and the GFLOPS discussion in §5.1's implications).
        bytes_processed: Input bytes consumed (for operation intensity).
        threads: Worker threads/tasks per node (parallelism metrics).
        offcore_write_share: Fraction of off-core traffic that is writes
            (dirty evictions / shuffle spills).
        snoop_hitm_rate: Fraction of snoop responses that hit modified
            lines in a sibling core's cache (cross-core sharing).
    """

    name: str
    mix: InstructionMix
    int_breakdown: IntBreakdown
    code: CodeFootprint
    data: DataFootprint
    branches: BranchProfile
    ilp: float
    instructions: float
    fp_ops: float = 0.0
    bytes_processed: float = 1.0
    threads: int = 1
    offcore_write_share: float = 0.3
    snoop_hitm_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.ilp <= 0:
            raise ValueError("ilp must be positive")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.bytes_processed <= 0:
            raise ValueError("bytes_processed must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0.0 <= self.offcore_write_share <= 1.0:
            raise ValueError("offcore_write_share must be in [0, 1]")
        if not 0.0 <= self.snoop_hitm_rate <= 1.0:
            raise ValueError("snoop_hitm_rate must be in [0, 1]")
