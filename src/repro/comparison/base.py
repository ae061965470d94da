"""Shared machinery for the comparison suites.

A :class:`NativeBenchmark` wraps a real miniature kernel (a callable
that does the computation and meters it) together with the behaviour
parameters a natively compiled benchmark exhibits — small instruction
footprints, no middleware dispatch, loop-dominated branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.stacks.base import Meter
from repro.uarch.isa import IntBreakdown
from repro.uarch.profile import (
    BehaviorProfile,
    BranchProfile,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
)


@dataclass
class NativeBenchmark:
    """One comparison-suite member.

    Attributes:
        name: Benchmark name (e.g. ``"mcf"``).
        kernel: ``kernel(meter, scale) -> object``; does the real work.
        code_kb: Hot code size.
        library_kb: Total library/runtime code size.
        library_weight: Fraction of fetches from library code.
        library_warm_kb: Portion of the library that stays L2-resident
            (per-request hot paths); the rest is the cold tail.
        library_warm_share: Share of library fetches hitting the warm
            portion.
        ilp: Exploitable instruction-level parallelism.
        branches: Branch behaviour.
        data: Data working-set model.
        int_breakdown: Figure-2 style integer breakdown.
        threads: Concurrency (PARSEC/CloudSuite are multi-threaded).
    """

    name: str
    kernel: Callable[[Meter, float], object]
    code_kb: float = 20.0
    library_kb: float = 64.0
    library_weight: float = 0.03
    library_warm_kb: float = 0.0
    library_warm_share: float = 0.75
    ilp: float = 1.6
    branches: BranchProfile = field(
        default_factory=lambda: BranchProfile(
            loop_fraction=0.60,
            pattern_fraction=0.15,
            data_dependent_fraction=0.25,
            taken_prob=0.05,
            loop_trip=48,
            indirect_fraction=0.005,
            indirect_targets=2,
            static_sites=256,
        )
    )
    data: DataFootprint = field(
        default_factory=lambda: DataFootprint(
            stream_bytes=8 * 1024 * 1024,
            state_bytes=1024 * 1024,
            state_fraction=0.03,
            hot_bytes=16 * 1024,
            hot_fraction=0.95,
            stream_reuse=3.0,
            state_zipf=0.6,
        )
    )
    int_breakdown: IntBreakdown = field(
        default_factory=lambda: IntBreakdown(int_addr=0.55, fp_addr=0.12, other=0.33)
    )
    threads: int = 1

    def profile(self, scale: float = 1.0) -> BehaviorProfile:
        """Execute the kernel and build the behaviour profile."""
        meter = Meter()
        self.kernel(meter, scale)
        mix = meter.kernel_mix()
        if mix.total <= 0:
            raise ValueError(f"{self.name}: kernel metered no work")
        if meter.bytes_in <= 0:
            meter.record_in(1024)
        regions = [
            CodeRegion(
                "kernel", int(self.code_kb * 1024),
                weight=1.0 - self.library_weight, sequentiality=9.0,
            ),
        ]
        warm_kb = min(self.library_warm_kb, self.library_kb)
        cold_kb = self.library_kb - warm_kb
        if warm_kb > 0 and cold_kb > 0:
            regions.append(
                CodeRegion(
                    "library-warm", int(warm_kb * 1024),
                    weight=self.library_weight * self.library_warm_share,
                    sequentiality=5.0,
                )
            )
            regions.append(
                CodeRegion(
                    "library-cold", int(cold_kb * 1024),
                    weight=self.library_weight * (1.0 - self.library_warm_share),
                    sequentiality=4.0,
                )
            )
        else:
            regions.append(
                CodeRegion(
                    "library", int(self.library_kb * 1024),
                    weight=self.library_weight, sequentiality=5.0,
                )
            )
        return BehaviorProfile(
            name=self.name,
            mix=mix,
            int_breakdown=self.int_breakdown,
            code=CodeFootprint(regions=regions),
            data=self.data,
            branches=self.branches,
            ilp=self.ilp,
            instructions=mix.total,
            fp_ops=meter.fp_ops,
            bytes_processed=max(1, meter.bytes_in),
            threads=self.threads,
        )

