"""Whole-catalog integration: every registry entry executes and profiles.

This is the slowest test module (it runs all 77 catalog workloads plus
the six MPI versions at a small scale) and is the safety net for the
Table 2 reduction experiment: a workload that crashes or produces a
degenerate profile would poison the clustering.
"""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.uarch.isa import InstructionClass
from repro.workloads import ALL_WORKLOADS, MPI_WORKLOADS

SCALE = 0.2


@pytest.fixture(scope="module")
def all_results():
    results = {}
    for definition in ALL_WORKLOADS + MPI_WORKLOADS:
        results[definition.workload_id] = definition.runner(scale=SCALE)
    return results


class TestEveryWorkloadRuns:
    def test_all_83_execute(self, all_results):
        assert len(all_results) == 83

    def test_profiles_are_sane(self, all_results):
        for workload_id, result in all_results.items():
            profile = result.profile
            assert profile.instructions > 0, workload_id
            assert profile.mix.total > 0, workload_id
            ratios = profile.mix.ratios()
            assert math.isclose(sum(ratios.values()), 1.0, abs_tol=1e-6), workload_id
            assert profile.code.total_bytes > 0, workload_id
            assert profile.ilp > 0, workload_id

    def test_names_propagate(self, all_results):
        for workload_id, result in all_results.items():
            assert result.name == workload_id
            assert result.profile.name == workload_id

    def test_meters_account_input(self, all_results):
        for workload_id, result in all_results.items():
            assert result.meter.bytes_in > 0, workload_id
            assert result.meter.records_in > 0, workload_id

    def test_jvm_stacks_have_bigger_footprints(self, all_results):
        mpi_footprints = [
            all_results[d.workload_id].profile.code.total_bytes
            for d in MPI_WORKLOADS
        ]
        jvm_footprints = [
            all_results[d.workload_id].profile.code.total_bytes
            for d in ALL_WORKLOADS
            if d.stack in ("Hadoop", "Spark", "Hive", "Shark", "HBase")
        ]
        assert max(mpi_footprints) < min(jvm_footprints) * 1.01

    def test_branch_ratios_in_band(self, all_results):
        """Figure 1's premise: every big data workload is branch-heavy."""
        for definition in ALL_WORKLOADS:
            result = all_results[definition.workload_id]
            branch = result.profile.mix.ratio(InstructionClass.BRANCH)
            # K-means' FP-dense inner loops sit at the low edge.
            assert 0.08 < branch < 0.30, definition.workload_id

    def test_variants_differ_from_bases(self, all_results):
        """Configuration variants are not byte-identical to their base
        (different seeds/scales really change the metered execution)."""
        pairs = [
            ("S-WordCount", "S-WordCount-v2"),
            ("H-Read", "H-Read-large"),
            ("I-SelectQuery", "I-SelectQuery-wide"),
        ]
        for base_id, variant_id in pairs:
            base = all_results[base_id]
            variant = all_results[variant_id]
            assert (
                base.profile.instructions != variant.profile.instructions
            ), (base_id, variant_id)


@pytest.mark.parametrize(
    "definition", ALL_WORKLOADS, ids=lambda d: d.workload_id
)
def test_cluster_replay_keeps_the_profile(definition):
    """Every catalog workload replays on a cluster it is handed, and the
    replay leaves the characterization untouched."""
    result = definition.runner(scale=0.05, cluster=Cluster())
    assert result.system is not None
    assert result.system.elapsed > 0
    assert result.profile == definition.runner(scale=0.05).profile
