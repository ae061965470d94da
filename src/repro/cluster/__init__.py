"""Discrete-event cluster substrate.

Stands in for the paper's 5-node Xeon E5645 testbed: nodes with cores,
disks and NICs execute workload tasks as coroutine processes, and the
resource models account CPU utilization, I/O-wait, weighted disk I/O
time and I/O bandwidth — the inputs to the paper's §3.2.1 system-
behaviour classification.
"""

from repro.cluster.events import (
    Interrupted,
    Process,
    Resource,
    Simulation,
    Timeout,
)
from repro.cluster.disk import Disk
from repro.cluster.network import Nic, Network
from repro.cluster.node import Node, NodeSpec
from repro.cluster.cluster import Cluster
from repro.cluster.faults import (
    DiskDegrade,
    FaultInjector,
    FaultPlan,
    NetworkPartition,
    NodeCrash,
)

__all__ = [
    "Simulation",
    "Process",
    "Timeout",
    "Resource",
    "Interrupted",
    "Disk",
    "Nic",
    "Network",
    "Node",
    "NodeSpec",
    "Cluster",
    "FaultPlan",
    "FaultInjector",
    "NodeCrash",
    "DiskDegrade",
    "NetworkPartition",
]
