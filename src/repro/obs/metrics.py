"""Gauges and the per-node utilization timeline.

:class:`ClusterTelemetry` samples every node's cumulative CPU / disk /
network accounting on the *simulated* clock, building the
:class:`UtilizationTimeline` that :meth:`repro.cluster.cluster.Cluster.metrics`
aggregates its scalar totals from.  The final timeline sample reads
exactly the accounting fields the scalar path used to read, so totals
stay bit-identical whether or not telemetry is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class NodeSample:
    """Cumulative per-node accounting at one simulated instant.

    All fields are running totals since cluster construction (the same
    monotone counters the scalar metrics path reads), so any window's
    activity is the difference of two samples.
    """

    time: float
    node: str
    cpu_seconds: float
    disk_busy_seconds: float
    disk_weighted_seconds: float
    disk_bytes: int
    net_bytes: int


@dataclass(frozen=True)
class TimelineTotals:
    """Cluster-wide cumulative totals read off the timeline's end."""

    cpu_seconds: float
    disk_busy_seconds: float
    disk_weighted_seconds: float
    disk_bytes: int
    net_bytes: int


class UtilizationTimeline:
    """Per-node cumulative samples ordered by simulated time."""

    def __init__(self):
        self.samples: List[NodeSample] = []

    def append(self, sample: NodeSample) -> None:
        self.samples.append(sample)

    def node_series(self, node: str) -> List[NodeSample]:
        return [s for s in self.samples if s.node == node]

    def utilization_series(
        self, node: str, cores: int = 1
    ) -> List[tuple]:
        """Windowed ``(time, cpu_util, disk_util)`` rates for one node.

        Each point covers the window ending at its timestamp; the rates
        are the deltas of the cumulative counters over the window.
        """
        series = []
        previous: Optional[NodeSample] = None
        for sample in self.node_series(node):
            if previous is not None:
                window = sample.time - previous.time
                if window > 0:
                    cpu = (
                        (sample.cpu_seconds - previous.cpu_seconds)
                        / window / max(1, cores)
                    )
                    disk = (
                        sample.disk_busy_seconds - previous.disk_busy_seconds
                    ) / window
                    series.append((sample.time, cpu, disk))
            previous = sample
        return series

    def final_totals(self, node_order: List[str]) -> TimelineTotals:
        """Cluster totals from each node's last sample.

        Sums run in ``node_order`` so the floating-point result is
        bit-identical to summing the live node counters directly.
        """
        last: Dict[str, NodeSample] = {}
        for sample in self.samples:
            last[sample.node] = sample
        missing = [n for n in node_order if n not in last]
        if missing:
            raise ValueError(f"timeline has no samples for nodes {missing}")
        finals = [last[name] for name in node_order]
        return TimelineTotals(
            cpu_seconds=sum(s.cpu_seconds for s in finals),
            disk_busy_seconds=sum(s.disk_busy_seconds for s in finals),
            disk_weighted_seconds=sum(s.disk_weighted_seconds for s in finals),
            disk_bytes=sum(s.disk_bytes for s in finals),
            net_bytes=sum(s.net_bytes for s in finals),
        )

    def __len__(self) -> int:
        return len(self.samples)


class ClusterTelemetry:
    """Samples a cluster's nodes into a timeline and the tracer.

    Created by :meth:`repro.cluster.cluster.Cluster.attach_telemetry`;
    the scheduler drives :meth:`sample` periodically (and at wave
    boundaries), and :meth:`finalize` takes the closing sample that
    :meth:`~repro.cluster.cluster.Cluster.metrics` aggregates.
    """

    def __init__(self, cluster, tracer):
        self.cluster = cluster
        self.tracer = tracer
        self.timeline = UtilizationTimeline()
        self._previous: Dict[str, NodeSample] = {}

    def sample(self) -> None:
        """Record one cumulative sample per node, plus windowed gauges."""
        sim = self.cluster.sim
        now = sim.now
        for node in self.cluster.nodes:
            current = NodeSample(
                time=now,
                node=node.name,
                cpu_seconds=node.cpu_time,
                disk_busy_seconds=node.disk.peek_busy_time(),
                disk_weighted_seconds=node.disk.peek_weighted_io_time(),
                disk_bytes=node.disk.total_bytes,
                net_bytes=node.nic.total_bytes,
            )
            self.timeline.append(current)
            previous = self._previous.get(node.name)
            if previous is not None and self.tracer is not None:
                window = now - previous.time
                if window > 0:
                    self.tracer.sample(
                        f"{node.name} utilization",
                        track=node.name,
                        time=now,
                        cpu=(current.cpu_seconds - previous.cpu_seconds)
                        / window / node.spec.cores,
                        disk=(
                            current.disk_busy_seconds
                            - previous.disk_busy_seconds
                        ) / window,
                        disk_mbps=(current.disk_bytes - previous.disk_bytes)
                        / window / 1e6,
                        net_mbps=(current.net_bytes - previous.net_bytes)
                        / window / 1e6,
                    )
            self._previous[node.name] = current

    def finalize(self) -> TimelineTotals:
        """Take a closing sample (if time advanced) and return totals."""
        now = self.cluster.sim.now
        if not self.timeline.samples or self.timeline.samples[-1].time != now:
            self.sample()
        return self.timeline.final_totals(
            [node.name for node in self.cluster.nodes]
        )
