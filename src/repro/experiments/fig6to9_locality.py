"""Figures 6-9: miss ratio versus cache capacity (the §5.4 MARSSx86 study).

The paper's simulator configuration: Atom-like in-order single core,
8-way L1 with 64-byte lines, L1 size swept from 16 KB to 8192 KB;
Hadoop workloads sampled in five segments (Map 0-1%, Map 50-51%,
Map 99-100%, Reduce 0-1%, Reduce 99-100%) and compared against PARSEC
(simsmall) and, for Figure 9, the MPI versions.  Here each Hadoop run
is swept once per phase (see :func:`run`).

Expected shapes:

- Figure 6 (instruction): Hadoop's curve sits far above PARSEC's and
  flattens only around 1024 KB; PARSEC flattens by 128 KB.
- Figure 7 (data): the curves are close beyond 64 KB.
- Figure 8 (unified): the curves converge beyond 1024 KB.
- Figure 9: the MPI versions match PARSEC, far below Hadoop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.comparison import PARSEC
from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_series
from repro.uarch.simulator import DEFAULT_SIZES_KB, CacheSweepSimulator, SweepResult

#: The Hadoop workloads of the §5.4 case study.
HADOOP_WORKLOADS = ("H-WordCount", "H-Grep", "H-Sort", "H-NaiveBayes", "H-Index")

#: The MPI versions added for Figure 9.
MPI_WORKLOADS_F9 = ("M-WordCount", "M-Grep", "M-Sort", "M-Bayes")


@dataclass
class LocalityResult:
    """All four figures' curves."""

    sizes_kb: List[int]
    instruction: Dict[str, List[float]]  # Figure 6 (+ MPI for Figure 9)
    data: Dict[str, List[float]]         # Figure 7
    unified: Dict[str, List[float]]      # Figure 8
    knees_kb: Dict[str, int]

    def fidelity_metrics(self) -> dict:
        """Registry metrics: the footprint knees + each curve's floor."""
        metrics = {
            f"knee_kb.{label}": float(knee)
            for label, knee in self.knees_kb.items()
        }
        for kind, curves in (
            ("instruction", self.instruction),
            ("data", self.data),
            ("unified", self.unified),
        ):
            for label, ratios in curves.items():
                metrics[f"floor.{kind}.{label}"] = min(ratios)
                metrics[f"start.{kind}.{label}"] = ratios[0]
        return metrics

    def render(self) -> str:
        parts = [
            render_series("KB", self.sizes_kb,
                          {k: v for k, v in self.instruction.items()
                           if k != "MPI-workloads"},
                          title="Figure 6 — instruction cache miss ratio vs size"),
            render_series("KB", self.sizes_kb, self.data,
                          title="\nFigure 7 — data cache miss ratio vs size"),
            render_series("KB", self.sizes_kb, self.unified,
                          title="\nFigure 8 — unified miss ratio vs size"),
            render_series("KB", self.sizes_kb, self.instruction,
                          title="\nFigure 9 — instruction miss ratio incl. MPI"),
            f"\nfootprint knees (curve within 10% of its floor): {self.knees_kb}",
        ]
        return "\n".join(parts)


def run(context: ExperimentContext, trace_refs: int = 40_000) -> LocalityResult:
    """Regenerate Figures 6-9.

    Each Hadoop run's map and reduce profiles are swept once each and
    combined by :meth:`CacheSweepSimulator.weighted_curve`, weighted by
    the phases' instruction counts.  The paper's five points (three in
    Map, two in Reduce, each weighted by its share of its phase) give
    the same mean, because the engine is stationary within a phase: the
    points of one phase would sweep the same profile.
    """
    simulator = CacheSweepSimulator(trace_refs=trace_refs)

    hadoop_results = [
        context.result(workload_id) for workload_id in HADOOP_WORKLOADS
    ]
    parsec_profiles = [bench.profile(scale=context.scale) for bench in PARSEC[:6]]
    mpi_profiles = [
        context.result(workload_id).profile for workload_id in MPI_WORKLOADS_F9
    ]

    def one_curve(profile, kind: str) -> SweepResult:
        if kind == "instruction":
            return simulator.instruction_curve(profile.name, profile.code)
        if kind == "data":
            return simulator.data_curve(profile.name, profile.data)
        return simulator.unified_curve(profile.name, profile.code, profile.data)

    def curves(profiles, kind: str) -> List[SweepResult]:
        return [one_curve(profile, kind) for profile in profiles]

    def hadoop_curves(kind: str) -> List[SweepResult]:
        """One phase-weighted curve per Hadoop workload."""
        return [
            CacheSweepSimulator.weighted_curve(result.name, [
                (one_curve(profile, kind), weight)
                for profile, weight in result.segments
            ])
            for result in hadoop_results
        ]

    instruction = {}
    data = {}
    unified = {}
    knees = {}
    for label, curve_sets in (
        ("Hadoop-workloads",
         {kind: hadoop_curves(kind) for kind in ("instruction", "data", "unified")}),
        ("PARSEC-workloads",
         {kind: curves(parsec_profiles, kind)
          for kind in ("instruction", "data", "unified")}),
    ):
        icurve = CacheSweepSimulator.average_curves(
            label, curve_sets["instruction"])
        dcurve = CacheSweepSimulator.average_curves(label, curve_sets["data"])
        ucurve = CacheSweepSimulator.average_curves(
            label, curve_sets["unified"])
        instruction[label] = icurve.miss_ratios
        data[label] = dcurve.miss_ratios
        unified[label] = ucurve.miss_ratios
        knee = icurve.knee_kb()
        knees[label] = knee if knee is not None else -1

    mpi_curve = CacheSweepSimulator.average_curves(
        "MPI-workloads", curves(mpi_profiles, "instruction")
    )
    instruction["MPI-workloads"] = mpi_curve.miss_ratios
    knee = mpi_curve.knee_kb()
    knees["MPI-workloads"] = knee if knee is not None else -1

    return LocalityResult(
        sizes_kb=list(DEFAULT_SIZES_KB),
        instruction=instruction,
        data=data,
        unified=unified,
        knees_kb=knees,
    )
