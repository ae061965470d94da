"""Functional tests for the software-stack engines."""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.stacks import (
    HBase,
    Hadoop,
    MapReduceJob,
    Meter,
    MpiRuntime,
    Spark,
)
from repro.stacks.base import (
    HADOOP_TRAITS,
    MPI_TRAITS,
    SPARK_TRAITS,
    KernelTraits,
    build_profile,
)
from repro.stacks.sql import HiveEngine, ImpalaEngine, Query, SharkEngine


class TestMeter:
    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            Meter().ops(teleport=1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Meter().ops(compare=-1)

    def test_kernel_mix_expansion(self):
        meter = Meter()
        meter.ops(compare=10)
        mix = meter.kernel_mix()
        # compare = load + int + branch
        assert mix.total == pytest.approx(30.0)

    def test_merge(self):
        a, b = Meter(), Meter()
        a.ops(hash=3)
        b.ops(hash=4)
        b.record_in(100, records=2)
        a.merge(b)
        assert a.op_counts["hash"] == 7
        assert a.records_in == 2
        assert a.bytes_in == 100

    def test_int_breakdown_sums_to_one(self):
        meter = Meter()
        meter.ops(array_access=5, fp_op=3, int_op=2)
        breakdown = meter.kernel_int_breakdown()
        total = breakdown.int_addr + breakdown.fp_addr + breakdown.other
        assert total == pytest.approx(1.0)


class TestStackTraits:
    def test_framework_components_split(self):
        meter = Meter()
        meter.record_in(1000, records=10)
        meter.record_shuffle(500, records=5)
        dispatch, streaming = HADOOP_TRAITS.framework_components(meter)
        # Hadoop's shuffle is streaming-type.
        assert streaming > 1000 * HADOOP_TRAITS.per_byte - 1
        assert dispatch == pytest.approx(10 * HADOOP_TRAITS.dispatch_in)

    def test_spark_shuffle_is_dispatch(self):
        meter = Meter()
        meter.record_shuffle(1000, records=10)
        dispatch, _streaming = SPARK_TRAITS.framework_components(meter)
        assert dispatch >= 1000 * SPARK_TRAITS.shuffle_per_byte

    def test_mpi_is_thin(self):
        meter = Meter()
        meter.record_in(1000, records=10)
        assert MPI_TRAITS.framework_instructions(meter) < (
            HADOOP_TRAITS.framework_instructions(meter) / 5
        )


class TestHadoopEngine:
    def wordcount_job(self):
        def mapper(record, emit, meter):
            words = record.split()
            meter.ops(str_byte=len(record), hash=len(words))
            for word in words:
                emit(word, 1)

        def reducer(key, values, emit, meter):
            meter.ops(int_op=len(values))
            emit(key, sum(values))

        return MapReduceJob(
            name="wc", mapper=mapper, reducer=reducer, combiner=reducer,
            kernel=KernelTraits(), state_bytes=1024 * 1024,
        )

    def test_wordcount_matches_reference(self):
        records = ["a b a", "b c", "a"]
        result = Hadoop().run(self.wordcount_job(), records)
        counted = dict(result.output)
        assert counted == {"a": 3, "b": 2, "c": 1}

    def test_shuffle_sorted_within_partition(self):
        def mapper(record, emit, meter):
            emit(record, 1)

        job = MapReduceJob(name="sort", mapper=mapper, n_reduces=1)
        result = Hadoop().run(job, ["d", "b", "a", "c"])
        keys = [k for k, _ in result.output]
        assert keys == sorted(keys)

    def test_meter_accounts_dataflow(self):
        records = ["hello world"] * 4
        result = Hadoop().run(self.wordcount_job(), records)
        assert result.meter.records_in == 4
        assert result.meter.bytes_in == sum(len(r) for r in records)
        assert result.meter.records_shuffled > 0
        assert result.meter.records_out > 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            Hadoop().run(self.wordcount_job(), [])

    def test_cluster_execution_produces_metrics(self):
        cluster = Cluster(n_nodes=5)
        result = Hadoop().run(
            self.wordcount_job(), ["a b c"] * 20, cluster=cluster
        )
        assert result.system is not None
        assert result.elapsed > 0
        assert 0.0 <= result.system.cpu_utilization <= 1.0


class TestSparkEngine:
    def test_lazy_then_collect(self):
        spark = Spark()
        rdd = spark.parallelize([1, 2, 3, 4])
        doubled = rdd.map(lambda x: 2 * x)
        assert sorted(doubled.collect()) == [2, 4, 6, 8]

    def test_filter(self):
        spark = Spark()
        rdd = spark.parallelize(list(range(10)))
        assert sorted(rdd.filter(lambda x: x % 2 == 0).collect()) == [0, 2, 4, 6, 8]

    def test_flat_map_and_reduce_by_key(self):
        spark = Spark()
        rdd = spark.parallelize(["a b a", "b"])
        counts = dict(
            rdd.flat_map(lambda doc: [(w, 1) for w in doc.split()])
            .reduce_by_key(lambda x, y: x + y)
            .collect()
        )
        assert counts == {"a": 2, "b": 2}

    def test_sort_by(self):
        spark = Spark()
        out = spark.parallelize([3, 1, 2]).sort_by(lambda x: x).collect()
        assert out == [1, 2, 3]

    def test_group_by_key(self):
        spark = Spark()
        grouped = dict(
            spark.parallelize([("k", 1), ("k", 2), ("j", 3)])
            .group_by_key()
            .collect()
        )
        assert sorted(grouped["k"]) == [1, 2]

    def test_count(self):
        spark = Spark()
        assert spark.parallelize([1] * 7).count() == 7

    def test_reduce(self):
        spark = Spark()
        assert spark.parallelize([1, 2, 3]).reduce(lambda a, b: a + b) == 6

    def test_cache_avoids_recount_of_source(self):
        spark = Spark()
        rdd = spark.parallelize(list(range(50))).cache()
        rdd.count()
        first_stages = len(spark._stage_stats)
        rdd.count()
        assert len(spark._stage_stats) >= first_stages  # still evaluates ops

    def test_empty_parallelize_rejected(self):
        with pytest.raises(ValueError):
            Spark().parallelize([])


class TestMpiRuntime:
    def test_allreduce(self):
        def program(rank, comm, data, meter):
            total = yield comm.allreduce(rank + 1, lambda a, b: a + b)
            return total

        runtime = MpiRuntime(n_ranks=4)
        result = runtime.run(
            "t", program, [[1]] * 4, KernelTraits(), state_bytes=1024,
        )
        assert result.output == [10, 10, 10, 10]

    def test_alltoall(self):
        def program(rank, comm, data, meter):
            received = yield comm.alltoall(
                [f"{rank}->{dest}" for dest in range(comm.size)]
            )
            return received

        runtime = MpiRuntime(n_ranks=3)
        result = runtime.run(
            "t", program, [[1]] * 3, KernelTraits(), state_bytes=1024,
        )
        assert result.output[1] == ["0->1", "1->1", "2->1"]

    def test_gather(self):
        def program(rank, comm, data, meter):
            everyone = yield comm.gather(rank)
            return sum(everyone)

        runtime = MpiRuntime(n_ranks=3)
        result = runtime.run(
            "t", program, [[1]] * 3, KernelTraits(), state_bytes=1024,
        )
        assert result.output == [3, 3, 3]

    def test_collective_mismatch_detected(self):
        def program(rank, comm, data, meter):
            if rank == 0:
                yield comm.gather(1)
            else:
                yield comm.allreduce(1, lambda a, b: a + b)

        runtime = MpiRuntime(n_ranks=2)
        with pytest.raises(RuntimeError):
            runtime.run("t", program, [[1]] * 2, KernelTraits(), state_bytes=1024)

    def test_meter_records_shuffle(self):
        def program(rank, comm, data, meter):
            meter.ops(int_op=10)
            yield comm.gather([1] * 50)
            return None

        runtime = MpiRuntime(n_ranks=2)
        result = runtime.run(
            "t", program, [[1]] * 2, KernelTraits(), state_bytes=1024,
        )
        assert result.meter.bytes_shuffled > 0


class TestHBase:
    def test_put_get(self):
        store = HBase()
        meter = Meter()
        store.put(5, "v5", meter)
        assert store.get(5, meter) == "v5"

    def test_get_after_flush(self):
        store = HBase(memstore_limit=4)
        meter = Meter()
        for key in range(10):
            store.put(key, f"v{key}", meter)
        store.flush()
        assert store.n_sstables >= 2
        assert store.get(3, meter) == "v3"

    def test_missing_key(self):
        store = HBase()
        store.load([(1, "a")])
        assert store.get(99, Meter()) is None

    def test_newest_version_wins(self):
        store = HBase(memstore_limit=2)
        meter = Meter()
        store.put(1, "old", meter)
        store.put(2, "x", meter)  # triggers flush of old
        store.put(1, "new", meter)
        store.flush()
        assert store.get(1, meter) == "new"

    def test_read_workload_profile(self):
        store = HBase()
        store.load([(k, f"v{k}") for k in range(100)])
        result = store.run_read_workload("H-Read-test", [1, 2, 3, 1])
        assert result.output == 4
        assert result.profile.instructions > 0


class TestSqlEngines:
    def tables(self):
        return {
            "t": [
                {"id": 1, "v": 5.0, "k": "a"},
                {"id": 2, "v": 15.0, "k": "b"},
                {"id": 3, "v": 25.0, "k": "a"},
            ],
            "other": [{"id": 2, "w": 1.0}],
        }

    def test_filter_project(self):
        query = Query("t").filter(lambda r: r["v"] > 10).project(("id",))
        result = ImpalaEngine().execute("q", query, self.tables())
        assert result.output == [{"id": 2}, {"id": 3}]

    def test_order_by(self):
        query = Query("t").order_by("v", descending=True)
        result = HiveEngine().execute("q", query, self.tables())
        assert [r["id"] for r in result.output] == [3, 2, 1]

    def test_difference(self):
        query = Query("t").difference("other", "id")
        result = SharkEngine().execute("q", query, self.tables())
        assert sorted(r["id"] for r in result.output) == [1, 3]

    def test_join(self):
        query = Query("t").join("other", "id", "id")
        result = HiveEngine().execute("q", query, self.tables())
        assert len(result.output) == 1
        assert result.output[0]["w"] == 1.0

    def test_group_by_aggregates(self):
        query = Query("t").group_by(
            ("k",), {"total": ("sum", "v"), "n": ("count", "id"),
                     "mean": ("avg", "v")}
        )
        result = ImpalaEngine().execute("q", query, self.tables())
        by_key = {r["k"]: r for r in result.output}
        assert by_key["a"]["total"] == pytest.approx(30.0)
        assert by_key["a"]["n"] == 2
        assert by_key["a"]["mean"] == pytest.approx(15.0)

    def test_limit(self):
        query = Query("t").limit(2)
        result = SharkEngine().execute("q", query, self.tables())
        assert len(result.output) == 2

    def test_engines_agree(self):
        query_builder = lambda: Query("t").filter(lambda r: r["v"] > 4).order_by("id")
        results = [
            engine().execute("q", query_builder(), self.tables()).output
            for engine in (HiveEngine, SharkEngine, ImpalaEngine)
        ]
        assert results[0] == results[1] == results[2]

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            HiveEngine().execute("q", Query("missing"), self.tables())

    def test_wide_operator_shuffles(self):
        query = Query("t").order_by("v")
        result = HiveEngine().execute("q", query, self.tables())
        assert result.meter.bytes_shuffled > 0


class TestBuildProfile:
    def test_pure_dispatch_meter_gets_default_kernel(self):
        meter = Meter()
        meter.record_in(100, records=1)
        from repro.uarch.profile import DataFootprint

        profile = build_profile(
            "x", meter, HADOOP_TRAITS, KernelTraits(),
            DataFootprint(
                stream_bytes=1024, state_bytes=1024, state_fraction=0.1,
            ),
        )
        assert profile.instructions > 0

    def test_framework_share_shapes_footprint(self):
        heavy, light = Meter(), Meter()
        for meter in (heavy, light):
            meter.ops(compare=1000, hash=1000)
        heavy.record_in(100_000, records=1000)   # heavy dispatch
        light.record_in(100, records=1)
        from repro.uarch.profile import DataFootprint

        data = DataFootprint(
            stream_bytes=1024 * 1024, state_bytes=1024 * 1024,
            state_fraction=0.05,
        )
        heavy_profile = build_profile("h", heavy, HADOOP_TRAITS, KernelTraits(), data)
        light_profile = build_profile("l", light, HADOOP_TRAITS, KernelTraits(), data)
        heavy_fw = sum(
            r.weight for r in heavy_profile.code.regions if "framework" in r.name
        )
        light_fw = sum(
            r.weight for r in light_profile.code.regions if "framework" in r.name
        )
        assert heavy_fw > light_fw


class TestHBaseCompaction:
    def test_compaction_bounds_sstable_count(self):
        from repro.stacks import HBase
        from repro.stacks.base import Meter

        store = HBase(memstore_limit=8)
        meter = Meter()
        for key in range(200):
            store.put(key, f"v{key}", meter)
        store.flush()
        assert store.n_sstables < HBase.COMPACTION_THRESHOLD + 1

    def test_compaction_preserves_newest_values(self):
        from repro.stacks import HBase
        from repro.stacks.base import Meter

        store = HBase(memstore_limit=4)
        meter = Meter()
        for round_ in range(6):
            for key in range(8):
                store.put(key, f"round{round_}-{key}", meter)
        store.flush()
        store.compact()
        for key in range(8):
            assert store.get(key, meter) == f"round5-{key}"


class TestClusterSimulationPaths:
    """Every engine's discrete-event path produces sane system metrics."""

    def _check(self, result):
        assert result.system is not None
        assert result.elapsed > 0
        m = result.system
        assert 0.0 <= m.cpu_utilization <= 1.0
        assert 0.0 <= m.io_wait_ratio <= 1.0
        assert abs(m.cpu_utilization + m.io_wait_ratio - 1.0) < 1e-6 or (
            m.cpu_utilization == 0.0 and m.io_wait_ratio == 0.0
        )

    def test_spark_cluster_path(self):
        from repro.workloads.kernels import spark_grep

        self._check(spark_grep(scale=0.2, cluster=Cluster()))

    def test_mpi_cluster_path(self):
        from repro.workloads.kernels import mpi_wordcount

        self._check(mpi_wordcount(scale=0.2, cluster=Cluster()))

    def test_sql_cluster_path(self):
        from repro.workloads.relational import impala_orderby

        self._check(impala_orderby(scale=0.2, cluster=Cluster()))

    def test_hbase_cluster_path(self):
        from repro.workloads.service import hbase_read

        self._check(hbase_read(scale=0.2, cluster=Cluster()))


class TestHadoopSpill:
    def make_job(self, buffer_bytes):
        def mapper(record, emit, meter):
            emit(record, "x" * 64)

        return MapReduceJob(
            name="spill", mapper=mapper, sort_buffer_bytes=buffer_bytes,
            n_maps=2, n_reduces=1,
        )

    def test_small_output_fits_buffer(self):
        cluster = Cluster(n_nodes=2)
        Hadoop().run(self.make_job(64 * 1024 * 1024), ["a"] * 50, cluster=cluster)
        written_small = sum(n.disk.bytes_written for n in cluster.nodes)

        cluster2 = Cluster(n_nodes=2)
        Hadoop().run(self.make_job(128), ["a"] * 50, cluster=cluster2)
        written_spilling = sum(n.disk.bytes_written for n in cluster2.nodes)
        # A tiny sort buffer forces merge rewrites: ~2x map-side writes.
        assert written_spilling > 1.3 * written_small
