"""Run workloads on the simulated cluster and classify their behaviour.

This is the §3.2 pipeline: execute a workload with the discrete-event
cluster attached, read off CPU utilisation / I/O-wait / weighted disk
I/O time / bandwidths, apply the paper's classification rules, and
derive the data-behaviour buckets from the metered volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, SystemMetrics
from repro.workloads.base import (
    DataBehavior,
    SystemBehavior,
    WorkloadDefinition,
    classify_system_behavior,
)


@dataclass
class SystemCharacterization:
    """The complete §3.2 characterization of one workload run."""

    workload_id: str
    metrics: SystemMetrics
    system_behavior: SystemBehavior
    data_behavior: DataBehavior
    expected_system_behavior: SystemBehavior

    @property
    def matches_expected(self) -> bool:
        """Whether the measured class equals Table 2's column."""
        return self.system_behavior is self.expected_system_behavior


def characterize_system(
    definition: WorkloadDefinition,
    scale: float = 1.0,
    n_nodes: int = 5,
    seed: int = 0,
) -> SystemCharacterization:
    """Execute ``definition`` on a fresh cluster and classify it."""
    cluster = Cluster(n_nodes=n_nodes)
    result = definition.runner(scale=scale, cluster=cluster, seed=seed)
    metrics = result.system
    behavior = classify_system_behavior(
        metrics.cpu_utilization,
        metrics.io_wait_ratio,
        metrics.weighted_io_time_ratio,
    )
    return SystemCharacterization(
        workload_id=definition.workload_id,
        metrics=metrics,
        system_behavior=behavior,
        data_behavior=DataBehavior.from_meter(result.meter),
        expected_system_behavior=definition.expected_system_behavior,
    )
