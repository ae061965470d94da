"""The tutorial's running example must actually work as documented."""

import pytest

from repro.cluster import Cluster
from repro.experiments import ExperimentContext
from repro.experiments.table2_reduction import reduce_population
from repro.stacks.base import KernelTraits, WorkloadResult
from repro.stacks.spark import Spark
from repro.uarch import XEON_E5645, characterize
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import (
    ApplicationCategory,
    DataBehavior,
    SystemBehavior,
    WorkloadDefinition,
    classify_system_behavior,
)
from repro.workloads.kernels import wiki_documents

DISTINCT_KERNEL = KernelTraits(
    code_kb=12.0,
    ilp=2.2,
    loop_fraction=0.35,
    pattern_fraction=0.10,
    data_dependent_fraction=0.55,
    taken_prob=0.05,
    loop_trip=40,
    state_zipf=0.85,
)


def spark_distinct(scale=1.0, cluster=None, seed=0) -> WorkloadResult:
    spark = Spark()
    docs = spark.parallelize(wiki_documents(scale, seed))

    def to_words(doc):
        return [(word, None) for word in doc.split()]

    def meter_doc(doc, meter):
        words = doc.count(" ") + 1
        meter.ops(str_byte=len(doc), hash=words, compare=words)

    distinct = docs.flat_map(to_words, meter_doc).reduce_by_key(lambda a, b: a)
    count = len(distinct.collect())
    return spark.finish(
        name="S-Distinct",
        output=count,
        kernel=DISTINCT_KERNEL,
        state_bytes=96 * count,
        state_fraction=0.03,
        cluster=cluster,
    )


class TestTutorialWorkload:
    def test_distinct_count_is_correct(self):
        docs = wiki_documents(0.25, seed=0)
        expected = len({word for doc in docs for word in doc.split()})
        assert spark_distinct(scale=0.25).output == expected

    def test_characterizes(self):
        result = spark_distinct(scale=0.25)
        counters = characterize(result.profile, XEON_E5645)
        assert 0 < counters.ipc < 4
        assert counters.l1i_mpki > 1  # JVM stack footprint is visible

    def test_classifies(self):
        cluster = Cluster(n_nodes=5)
        result = spark_distinct(scale=0.25, cluster=cluster)
        behavior = classify_system_behavior(
            result.system.cpu_utilization,
            result.system.io_wait_ratio,
            result.system.weighted_io_time_ratio,
        )
        assert behavior in SystemBehavior
        assert "Output" in DataBehavior.from_meter(result.meter).describe()

    @pytest.mark.slow
    def test_lands_in_a_spark_text_cluster(self):
        mine = WorkloadDefinition(
            workload_id="S-Distinct",
            description="Spark distinct count over Wikipedia",
            stack="Spark",
            dataset="wikipedia",
            category=ApplicationCategory.DATA_ANALYSIS,
            expected_system_behavior=SystemBehavior.IO_INTENSIVE,
            runner=spark_distinct,
        )
        # A focused population keeps this affordable: the Spark text
        # workloads plus contrasting stacks.
        ids = {
            "S-WordCount", "S-Index", "S-Grep", "H-WordCount", "H-Grep",
            "M-WordCount", "H-Read", "I-SelectQuery", "S-Kmeans",
        }
        population = [d for d in ALL_WORKLOADS if d.workload_id in ids]
        from repro.workloads import MPI_WORKLOADS

        population += [d for d in MPI_WORKLOADS if d.workload_id == "M-WordCount"]
        reduction = reduce_population(
            ExperimentContext(scale=0.3, seed=0), population + [mine], k=5
        )
        home = reduction.cluster_of("S-Distinct")
        members = reduction.clusters[home]
        # It must cluster with the Spark text-processing family, not
        # with the service or MPI workloads.
        assert any(m.startswith("S-") for m in members if m != "S-Distinct")
        assert "H-Read" not in members
