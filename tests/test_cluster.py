"""Tests for disks, NICs, nodes and the cluster."""

import pytest

from repro.cluster import (
    Cluster,
    Nic,
    Node,
    NodeSpec,
    Simulation,
)
from repro.cluster.disk import Disk


class TestDisk:
    def test_transfer_time(self):
        sim = Simulation()
        disk = Disk(sim, bandwidth_mbps=100.0, seek_ms=0.0)
        done = []

        def reader():
            yield disk.read(100 * 1_000_000)
            done.append(sim.now)

        sim.process(reader())
        sim.run()
        assert done[0] == pytest.approx(1.0)

    def test_seek_added_for_random_io(self):
        sim = Simulation()
        disk = Disk(sim, bandwidth_mbps=100.0, seek_ms=10.0)
        times = []

        def io(sequential):
            yield disk.read(1_000_000, sequential=sequential)
            times.append(sim.now)

        sim.process(io(True))
        sim.run()
        sequential_time = times[-1]
        sim2 = Simulation()
        disk2 = Disk(sim2, bandwidth_mbps=100.0, seek_ms=10.0)
        times2 = []

        def io2():
            yield disk2.read(1_000_000, sequential=False)
            times2.append(sim2.now)

        sim2.process(io2())
        sim2.run()
        assert times2[-1] > sequential_time

    def test_weighted_io_time(self):
        sim = Simulation()
        disk = Disk(sim, bandwidth_mbps=100.0, seek_ms=0.0)

        def two_readers():
            a = disk.read(100 * 1_000_000)
            b = disk.read(100 * 1_000_000)
            yield sim.all_of([a, b])

        sim.process(two_readers())
        sim.run()
        # Two requests overlap in the queue: weighted time > wall time.
        assert disk.weighted_io_time() > 2.0 - 1e-9
        assert disk.bytes_read == 200 * 1_000_000

    def test_byte_accounting(self):
        sim = Simulation()
        disk = Disk(sim)

        def writer():
            yield disk.write(1234)

        sim.process(writer())
        sim.run()
        assert disk.bytes_written == 1234


class TestNic:
    def test_bandwidth(self):
        sim = Simulation()
        nic = Nic(sim, "n0", bandwidth_gbps=1.0)
        done = []

        def sender():
            yield nic.send(125_000_000)  # 1 Gbit
            done.append(sim.now)

        sim.process(sender())
        sim.run()
        assert done[0] == pytest.approx(1.0)

    def test_local_transfer_skips_the_nics(self):
        cluster = Cluster(n_nodes=3)
        first, second = cluster.node(0), cluster.node(1)

        def shuffle():
            yield cluster.network.transfer(first.name, first.name, 1000)
            yield cluster.network.transfer(first.name, second.name, 500)

        cluster.sim.process(shuffle())
        cluster.sim.run()
        assert first.nic.bytes_sent == 500
        assert second.nic.bytes_received == 500
        assert first.nic.bytes_received == second.nic.bytes_sent == 0
        assert cluster.node(2).nic.total_bytes == 0


class TestNode:
    def test_compute_uses_cores(self):
        sim = Simulation()
        node = Node(sim, "n", NodeSpec(cores=2))
        done = []

        def task():
            yield node.compute(1.0)
            done.append(sim.now)

        for _ in range(4):
            sim.process(task())
        sim.run()
        # 4 single-core seconds on 2 cores -> finishes at t=2.
        assert max(done) == pytest.approx(2.0)
        assert node.cpu_time == pytest.approx(4.0)

    def test_io_wait_accounting(self):
        sim = Simulation()
        node = Node(sim, "n", NodeSpec(cores=1, disk_bandwidth_mbps=100.0))

        def task():
            yield node.blocking_read(100 * 1_000_000)

        sim.process(task())
        sim.run()
        # The disk's service time is the I/O-wait term Cluster.metrics
        # reads: 100 MB at 100 MB/s.
        assert node.disk.busy_time() == pytest.approx(1.0)
        assert node.disk.bytes_read == 100 * 1_000_000


class TestCluster:
    def test_default_is_five_nodes(self):
        assert len(Cluster()) == 5

    def test_metrics_empty_at_start(self):
        cluster = Cluster()
        metrics = cluster.metrics()
        assert metrics.cpu_utilization == 0.0

    def test_node_wraps(self):
        cluster = Cluster(n_nodes=3)
        assert cluster.node(4) is cluster.node(1)
