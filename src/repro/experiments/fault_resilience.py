"""Fault resilience of the software stacks: Hadoop vs Spark vs MPI.

The same WordCount, the same 5-node cluster, the same seeded fault plan
(one node crash mid-job) — three stacks.  Hadoop and Spark detect the
loss via heartbeat timeout, re-execute the dead node's tasks on the
survivors (with speculative duplicates chasing fault-induced
stragglers) and finish with an inflated makespan and some wasted work;
MPI has no task-level recovery and aborts the whole job.  This is the
operational face of the paper's deep-vs-thin stack contrast: the layers
that cost Hadoop and Spark an order of magnitude in L1I MPKI (§5.5) are
also the layers that let them survive the fault.

Each stack's fault run is driven by the *same* plan (crash time drawn
once from the seed, relative to the shortest fault-free makespan) and
the same seed always reproduces identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.cluster import Cluster, SystemMetrics
from repro.cluster.faults import FaultPlan
from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table
from repro.stacks.scheduler import JobFailedError, policy_for
from repro.workloads.kernels import (
    hadoop_wordcount,
    mpi_wordcount,
    spark_wordcount,
)

#: (stack name, WordCount runner) — the §4.1 trio.
STACKS: List[tuple] = [
    ("Hadoop", hadoop_wordcount),
    ("Spark", spark_wordcount),
    ("MPI", mpi_wordcount),
]

#: Recovery-policy time constants are written for jobs lasting minutes;
#: scaled-down runs last milliseconds, so each stack's policy clock is
#: shrunk to baseline_makespan / POLICY_TIME_UNIT (i.e. a 30 s
#: heartbeat timeout becomes 30% of the job).
POLICY_TIME_UNIT = 100.0


@dataclass
class StackResilience:
    """Outcome of one stack's run under the shared fault plan."""

    stack: str
    baseline: SystemMetrics
    outcome: str  # "recovered" | "job failed"
    faulty: Optional[SystemMetrics] = None
    failure: str = ""

    @property
    def makespan_inflation(self) -> float:
        if self.faulty is None:
            return float("inf")
        return self.faulty.makespan_inflation


@dataclass
class FaultResilienceResult:
    plan: FaultPlan = None
    seed: int = 0
    results: List[StackResilience] = field(default_factory=list)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-stack outcome and recovery accounting."""
        metrics = {}
        for entry in self.results:
            prefix = f"stack.{entry.stack}"
            metrics[f"{prefix}.recovered"] = float(
                entry.outcome == "recovered"
            )
            metrics[f"{prefix}.baseline.elapsed"] = entry.baseline.elapsed
            if entry.faulty is not None:
                for name, value in entry.faulty.to_dict().items():
                    metrics[f"{prefix}.faulty.{name}"] = float(value)
        return metrics

    def to_dict(self) -> dict:
        """Machine-readable form (``repro faults --json``)."""
        return {
            "seed": self.seed,
            "stacks": [
                {
                    "stack": entry.stack,
                    "outcome": entry.outcome,
                    "failure": entry.failure,
                    "baseline": entry.baseline.to_dict(),
                    "faulty": (
                        entry.faulty.to_dict()
                        if entry.faulty is not None
                        else None
                    ),
                }
                for entry in self.results
            ],
        }

    def render(self) -> str:
        rows = []
        for entry in self.results:
            if entry.faulty is not None:
                metrics = entry.faulty
                rows.append(
                    [
                        entry.stack,
                        entry.outcome,
                        entry.baseline.elapsed,
                        metrics.elapsed,
                        metrics.makespan_inflation,
                        metrics.tasks_retried,
                        f"{metrics.speculative_wins}/{metrics.speculative_launches}",
                        metrics.wasted_work_ratio,
                    ]
                )
            else:
                rows.append(
                    [
                        entry.stack,
                        entry.outcome,
                        entry.baseline.elapsed,
                        "-", "-", "-", "-", "-",
                    ]
                )
        table = render_table(
            [
                "stack", "outcome", "fault-free (s)", "faulty (s)",
                "inflation", "retried", "spec wins", "wasted",
            ],
            rows,
            title=(
                f"Fault resilience — WordCount under a seeded node crash "
                f"(seed {self.seed})"
            ),
        )
        survivors = [e.stack for e in self.results if e.outcome == "recovered"]
        casualties = [e.stack for e in self.results if e.outcome != "recovered"]
        summary = (
            f"\n{', '.join(survivors)} re-execute lost tasks and finish; "
            f"{', '.join(casualties) or 'nobody'} aborts the job — the "
            f"flip side of the thin-stack efficiency of §5.5."
        )
        return table + summary


def _run_stack(
    runner: Callable,
    scale: float,
    seed: int,
    faults: Optional[FaultPlan] = None,
    policy=None,
) -> SystemMetrics:
    result = runner(
        scale, cluster=Cluster(), seed=seed, faults=faults, recovery=policy
    )
    return result.system


def run(context: ExperimentContext) -> FaultResilienceResult:
    """Run the three stacks fault-free, then under one shared fault plan."""
    result = FaultResilienceResult(seed=context.seed)
    baselines = {
        stack: _run_stack(runner, context.scale, context.seed)
        for stack, runner in STACKS
    }
    # One crash, timed against the shortest fault-free makespan so it
    # lands while *every* stack still has work in flight.
    horizon = min(metrics.elapsed for metrics in baselines.values())
    plan = FaultPlan.seeded(7 + context.seed, horizon=horizon)
    result.plan = plan
    for stack, runner in STACKS:
        baseline = baselines[stack]
        policy = policy_for(stack).scaled(baseline.elapsed / POLICY_TIME_UNIT)
        try:
            faulty = _run_stack(
                runner, context.scale, context.seed, faults=plan, policy=policy
            )
            faulty.makespan_inflation = faulty.elapsed / baseline.elapsed
            result.results.append(
                StackResilience(
                    stack=stack,
                    baseline=baseline,
                    outcome="recovered",
                    faulty=faulty,
                )
            )
        except JobFailedError as failure:
            result.results.append(
                StackResilience(
                    stack=stack,
                    baseline=baseline,
                    outcome="job failed",
                    failure=str(failure),
                )
            )
    return result
