"""A cluster node: cores, one disk, one NIC (Table 3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.disk import Disk
from repro.cluster.events import Event, Interrupted, Resource, Simulation
from repro.cluster.network import Nic


@dataclass(frozen=True)
class NodeSpec:
    """Hardware of one node, defaulting to the paper's testbed (Table 3):
    one Xeon E5645 (6 cores @ 2.40 GHz), 32 GB memory, 8 TB of disk.

    Only what a replay runs on is modelled: the cores, and the disk and
    NIC bandwidths.
    """

    cores: int = 6
    disk_bandwidth_mbps: float = 120.0
    nic_gbps: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


class Node:
    """One shared-nothing node executing task processes."""

    def __init__(self, sim: Simulation, name: str, spec: NodeSpec = NodeSpec()):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.cores = Resource(sim, capacity=spec.cores, name=f"{name}-cores")
        self.disk = Disk(
            sim, name=f"{name}-disk", bandwidth_mbps=spec.disk_bandwidth_mbps
        )
        self.nic = Nic(sim, name=name, bandwidth_gbps=spec.nic_gbps)
        # Core-seconds computed: the CPU term of the §3.2.1 duty cycle.
        self.cpu_time = 0.0

    def compute(self, seconds: float) -> Event:
        """Process event for ``seconds`` of single-core computation."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")

        def run():
            grant = self.cores.request()
            try:
                yield grant
            except Interrupted:
                # Never got (or just got) the core; withdraw cleanly.
                self.cores.cancel(grant)
                raise
            tracer = self.sim.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "compute", "cpu", track=f"{self.name}.cpu", seconds=seconds
                )
            started = self.sim.now
            try:
                yield self.sim.timeout(seconds)
                self.cpu_time += seconds
            except Interrupted as exc:
                # Credit the cycles actually burned before the kill.
                self.cpu_time += self.sim.now - started
                if span is not None:
                    span.args["interrupted"] = str(exc.cause)
                raise
            finally:
                if span is not None:
                    tracer.end(span)
                self.cores.release()

        return self.sim.process(run())

    def blocking_read(self, nbytes: int, sequential: bool = True) -> Event:
        """Disk read during which the issuing task is I/O-blocked."""
        return self._blocking_io("read", self.disk.read, nbytes, sequential)

    def blocking_write(self, nbytes: int, sequential: bool = True) -> Event:
        """Disk write during which the issuing task is I/O-blocked."""
        return self._blocking_io("write", self.disk.write, nbytes, sequential)

    def _blocking_io(self, kind: str, transfer, nbytes: int,
                     sequential: bool) -> Event:
        def run():
            tracer = self.sim.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    kind, "io", track=f"{self.name}.io", bytes=nbytes
                )
            try:
                yield transfer(nbytes, sequential=sequential)
            finally:
                if span is not None:
                    tracer.end(span)

        return self.sim.process(run())
