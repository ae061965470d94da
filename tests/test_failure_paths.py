"""Failure-injection and error-path tests across the substrates."""

import pytest

from repro.cluster import Cluster, FaultPlan, Simulation
from repro.cluster.events import Resource
from repro.stacks import Hadoop, JobFailedError, MapReduceJob, MpiRuntime, Spark
from repro.stacks.scheduler import HADOOP_POLICY, MPI_POLICY, policy_for
from repro.stacks.base import KernelTraits, Meter
from repro.stacks.sql import HiveEngine, Query
from repro.uarch.profile import (
    BranchProfile,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
)


class TestEngineFailures:
    def test_mapper_exception_propagates_with_context(self):
        def broken_mapper(record, emit, meter):
            raise RuntimeError("mapper exploded")

        job = MapReduceJob(name="broken", mapper=broken_mapper)
        with pytest.raises(RuntimeError, match="mapper exploded"):
            Hadoop().run(job, ["a", "b"])

    def test_reducer_exception_propagates(self):
        def mapper(record, emit, meter):
            emit(record, 1)

        def broken_reducer(key, values, emit, meter):
            raise ValueError("reducer exploded")

        job = MapReduceJob(name="broken", mapper=mapper, reducer=broken_reducer)
        with pytest.raises(ValueError, match="reducer exploded"):
            Hadoop().run(job, ["a"])

    def test_spark_transform_exception_propagates(self):
        spark = Spark()
        rdd = spark.parallelize([1, 2, 3]).map(lambda x: 1 / (x - 2))
        with pytest.raises(ZeroDivisionError):
            rdd.collect()

    def test_mpi_rank_exception_propagates(self):
        def program(rank, comm, data, meter):
            if rank == 1:
                raise RuntimeError("rank 1 died")
            yield comm.gather(rank)

        runtime = MpiRuntime(n_ranks=3)
        with pytest.raises(RuntimeError, match="rank 1 died"):
            runtime.run("t", program, [[1]] * 3, KernelTraits(),
                        state_bytes=1024)

    def test_sql_bad_aggregate_function(self):
        query = Query("t").group_by(("k",), {"x": ("median", "v")})
        with pytest.raises(ValueError, match="unknown aggregate"):
            HiveEngine().execute(
                "q", query, {"t": [{"k": 1, "v": 2.0}]}
            )

    def test_sql_missing_column_raises_keyerror(self):
        query = Query("t").project(("missing",))
        with pytest.raises(KeyError):
            HiveEngine().execute("q", query, {"t": [{"k": 1}]})


class TestClusterFailures:
    def test_resource_double_release_detected(self):
        sim = Simulation()
        resource = Resource(sim, capacity=2)

        def task():
            grant = resource.request()
            yield grant
            resource.release()
            resource.release()  # bug: releasing twice

        sim.process(task())
        with pytest.raises(RuntimeError, match="release without request"):
            sim.run()


class TestSchedulerFailurePaths:
    """Engine-level behaviour under injected node loss."""

    def _wordcount_job(self):
        def mapper(record, emit, meter):
            for word in record.split():
                emit(word, 1)

        def reducer(key, values, emit, meter):
            emit(key, sum(values))

        return MapReduceJob(name="wc", mapper=mapper, reducer=reducer)

    DOCS = ["alpha beta gamma delta"] * 120

    def test_hadoop_retries_through_engine(self):
        job = self._wordcount_job()
        base = Hadoop().run(job, self.DOCS, cluster=Cluster())
        plan = FaultPlan.single_crash(node=1, at=0.4 * base.system.elapsed)
        policy = HADOOP_POLICY.scaled(base.system.elapsed / 100.0)
        faulty = Hadoop().run(
            job, self.DOCS, cluster=Cluster(), faults=plan, recovery=policy
        )
        # Same functional answer, recovered execution.
        assert sorted(faulty.output) == sorted(base.output)
        assert faulty.system.tasks_retried > 0
        assert faulty.system.elapsed > base.system.elapsed

    def test_hadoop_retry_is_deterministic_for_one_seed(self):
        job = self._wordcount_job()
        base = Hadoop().run(job, self.DOCS, cluster=Cluster())
        plan = FaultPlan.seeded(3, horizon=base.system.elapsed)
        policy = HADOOP_POLICY.scaled(base.system.elapsed / 100.0)
        runs = [
            Hadoop().run(
                job, self.DOCS, cluster=Cluster(),
                faults=plan, recovery=policy,
            ).system
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_mpi_engine_aborts_on_node_loss(self):
        def program(rank, comm, data, meter):
            total = yield comm.allreduce(len(data), lambda a, b: a + b)
            return total

        from repro.stacks.base import KernelTraits

        runtime = MpiRuntime(n_ranks=5)
        partitions = [[1] * 2000] * 5
        base = runtime.run("m", program, partitions, KernelTraits(),
                           cluster=Cluster())
        plan = FaultPlan.single_crash(node=1, at=0.4 * base.system.elapsed)
        with pytest.raises(JobFailedError, match="aborts the whole job"):
            runtime.run(
                "m", program, partitions, KernelTraits(), cluster=Cluster(),
                faults=plan,
                recovery=MPI_POLICY.scaled(base.system.elapsed / 100.0),
            )

    def test_default_policies_differ_by_stack(self):
        assert policy_for("MPI").abort_on_node_loss
        assert not policy_for("Hadoop").abort_on_node_loss
        assert not policy_for("Spark").abort_on_node_loss


class TestProfileValidation:
    def test_empty_code_footprint_rejected(self):
        with pytest.raises(ValueError):
            CodeFootprint(regions=[])

    def test_zero_weight_footprint_rejected(self):
        with pytest.raises(ValueError):
            CodeFootprint(
                regions=[CodeRegion("r", 1024, weight=0.0)]
            )

    def test_tiny_region_rejected(self):
        with pytest.raises(ValueError):
            CodeRegion("r", 16, weight=1.0)

    def test_branch_fractions_must_sum(self):
        with pytest.raises(ValueError):
            BranchProfile(
                loop_fraction=0.5, pattern_fraction=0.5,
                data_dependent_fraction=0.5,
            )

    def test_data_fractions_bounded(self):
        with pytest.raises(ValueError):
            DataFootprint(
                stream_bytes=1024, state_bytes=1024,
                state_fraction=0.6, hot_fraction=0.6,
            )

    def test_meter_shuffle_negative_bytes(self):
        meter = Meter()
        meter.record_shuffle(10)
        assert meter.bytes_shuffled == 10
