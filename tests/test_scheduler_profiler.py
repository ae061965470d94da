"""Tests for the task scheduler and the WCRT metric schema."""

import pytest

from repro.cluster import Cluster
from repro.stacks.scheduler import TaskDescriptor, run_waves
from repro.uarch.counters import METRIC_NAMES


class TestTaskDescriptor:
    def test_rejects_negative_cpu(self):
        with pytest.raises(ValueError):
            TaskDescriptor(cpu_instructions=-1)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            TaskDescriptor(cpu_instructions=1, read_bytes=-5)


class TestRunWaves:
    def test_single_wave_metrics(self):
        cluster = Cluster(n_nodes=2)
        wave = [
            TaskDescriptor(
                cpu_instructions=1e9, read_bytes=10_000_000, preferred_node=i
            )
            for i in range(4)
        ]
        metrics = run_waves(cluster, [wave], instruction_rate=2.5e9)
        assert metrics.elapsed > 0
        assert 0.0 <= metrics.cpu_utilization <= 1.0
        assert metrics.disk_bandwidth_mbps > 0

    def test_barrier_between_waves(self):
        cluster = Cluster(n_nodes=1)
        first = [TaskDescriptor(cpu_instructions=2.5e9)]  # 1 s of compute
        second = [TaskDescriptor(cpu_instructions=2.5e9)]
        run_waves(cluster, [first, second], instruction_rate=2.5e9)
        # Two sequential 1 s tasks on one core: at least 2 s elapsed.
        assert cluster.sim.now >= 2.0 - 1e-9

    def test_round_robin_placement(self):
        cluster = Cluster(n_nodes=3)
        wave = [TaskDescriptor(cpu_instructions=2.5e8) for _ in range(3)]
        run_waves(cluster, [wave], instruction_rate=2.5e9)
        busy_nodes = [n for n in cluster.nodes if n.cpu_time > 0]
        assert len(busy_nodes) == 3

    def test_network_traffic(self):
        cluster = Cluster(n_nodes=2)
        wave = [TaskDescriptor(cpu_instructions=1e6, net_bytes=5_000_000)]
        metrics = run_waves(cluster, [wave], instruction_rate=2.5e9)
        assert metrics.network_bandwidth_mbps > 0

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            run_waves(Cluster(n_nodes=1), [[]], instruction_rate=0)

    def test_random_writes_slower_than_sequential(self):
        sequential_cluster = Cluster(n_nodes=1)
        random_cluster = Cluster(n_nodes=1)
        descriptor = dict(cpu_instructions=1e6, write_bytes=4_000_000)
        run_waves(
            sequential_cluster,
            [[TaskDescriptor(**descriptor, random_writes=False)]],
            instruction_rate=2.5e9,
        )
        run_waves(
            random_cluster,
            [[TaskDescriptor(**descriptor, random_writes=True)]],
            instruction_rate=2.5e9,
        )
        assert random_cluster.sim.now > sequential_cluster.sim.now


class TestProfilerOnRealWorkloads:
    def test_all_metric_names_covered(self):
        assert len(METRIC_NAMES) == 45
