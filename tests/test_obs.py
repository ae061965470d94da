"""Observability tests: spans, telemetry, exporters.

The pinned guarantees:

- With no tracer the scheduler's metrics are bit-identical to pre-obs
  results (full ``SystemMetrics`` equality against the plain wave loop).
- With a tracer attached, the metrics *totals* are still bit-identical —
  the timeline aggregation reads the same accounting fields in the same
  order — and every scheduled task attempt has a span.
- Exported Chrome trace events carry the trace_event schema, and span
  nesting is sound (child within parent interval, monotone sim time).
"""

import dataclasses
import json

import pytest

from repro.cluster import Cluster
from repro.cluster.events import Simulation
from repro.cluster.faults import FaultPlan, NodeCrash
from repro.errors import TraceMergeError
from repro.obs import (
    ClusterTelemetry,
    Tracer,
    render_trace_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import trace_problems
from repro.obs.tracer import Span
from repro.stacks.scheduler import (
    HADOOP_POLICY,
    TaskDescriptor,
    run_waves,
)

RATE = 1e9


def spans_by_id(tracer):
    return {s.args["span_id"]: s for s in tracer.of_kind("span")}


def small_waves():
    wave_one = [
        TaskDescriptor(
            cpu_instructions=1.2e9,
            read_bytes=120_000_000 + i,
            write_bytes=30_000_000,
            net_bytes=4_000_000,
        )
        for i in range(6)
    ]
    wave_two = [
        TaskDescriptor(
            cpu_instructions=6e8,
            read_bytes=20_000_000,
            write_bytes=8_000_000,
            preferred_node=i,
        )
        for i in range(5)
    ]
    return [wave_one, wave_two]


class TestTracerCore:
    def test_span_ids_dense_and_parented(self):
        tracer = Tracer()
        parent = tracer.begin("job", "job")
        child = tracer.begin("map", "stage", parent=parent)
        assert child.args["parent_id"] == parent.args["span_id"]
        assert spans_by_id(tracer) == {0: parent, 1: child}

    def test_end_twice_raises(self):
        tracer = Tracer()
        span = tracer.begin("x", "task")
        tracer.end(span)
        with pytest.raises(RuntimeError):
            tracer.end(span)

    def test_bad_sample_interval(self):
        with pytest.raises(ValueError):
            Tracer(sample_interval=0.0)
        with pytest.raises(ValueError):
            Tracer(sample_interval=-1.0)

    def test_clock_binding(self):
        tracer = Tracer()
        assert tracer.now == 0.0
        sim = Simulation(tracer=tracer)
        sim.timeout(2.5)
        sim.run()
        assert tracer.now == 2.5
        span = tracer.begin("late", "task")
        assert span.t0 == 2.5 and span.clock == "sim"


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer(sample_interval=0.01)
        cluster = Cluster(sim=Simulation(tracer=tracer))
        metrics = run_waves(
            cluster, small_waves(), RATE,
            job_name="wordcount", wave_names=["map", "reduce"],
        )
        return tracer, metrics

    def test_every_attempt_has_a_span(self, traced):
        tracer, _ = traced
        n_tasks = sum(len(w) for w in small_waves())
        assert len(tracer.spans_of("task")) == n_tasks
        assert len(tracer.spans_of("attempt")) == n_tasks

    def test_structural_spans(self, traced):
        tracer, _ = traced
        jobs = tracer.spans_of("job")
        stages = tracer.spans_of("stage")
        waves = tracer.spans_of("wave")
        assert [j.name for j in jobs] == ["wordcount"]
        assert [s.name for s in stages] == ["map", "reduce"]
        assert len(waves) == 2
        by_id = spans_by_id(tracer)
        for stage in stages:
            assert stage.args["parent_id"] == jobs[0].args["span_id"]
        for wave in waves:
            assert by_id[wave.args["parent_id"]].cat == "stage"

    def test_no_open_spans_after_run(self, traced):
        tracer, _ = traced
        assert [s for s in tracer.of_kind("span") if s.t1 is None] == []

    def test_nesting_invariants(self, traced):
        """Child spans lie within their parent's interval; time is
        monotone (begin order follows simulated time)."""
        tracer, _ = traced
        eps = 1e-9
        by_id = spans_by_id(tracer)
        for span in by_id.values():
            assert span.t1 is not None
            assert span.t1 >= span.t0
            if "parent_id" in span.args:
                parent = by_id[span.args["parent_id"]]
                assert parent.t0 - eps <= span.t0
                assert span.t1 <= parent.t1 + eps
        starts = [s.t0 for s in tracer.of_kind("span")]
        assert starts == sorted(starts)

    def test_attempts_attributed_to_nodes(self, traced):
        tracer, _ = traced
        node_names = {f"node{i}" for i in range(5)}
        for attempt in tracer.spans_of("attempt"):
            assert attempt.track in node_names
            assert attempt.args["node"] == attempt.track
            assert attempt.args["outcome"] == "ok"

    def test_counter_samples_cover_all_nodes(self, traced):
        tracer, _ = traced
        samples = tracer.of_kind("counter")
        assert {s.track for s in samples} == {f"node{i}" for i in range(5)}
        for sample in samples:
            assert set(sample.args) == {"cpu", "disk", "disk_mbps", "net_mbps"}
            assert sample.args["cpu"] >= 0.0

    def test_metrics_carry_timeline(self, traced):
        _, metrics = traced
        assert metrics.timeline is not None
        assert len(metrics.timeline) > 0
        series = metrics.timeline.utilization_series("node0", cores=6)
        assert series, "periodic sampling should yield windowed points"
        for _, cpu, disk in series:
            assert cpu >= 0.0 and disk >= 0.0


class TestBitIdentity:
    """Tracer-off runs match pre-obs output; tracer-on totals match too."""

    def run_plain(self, faults=None, policy=None):
        cluster = Cluster()
        return run_waves(
            cluster, small_waves(), RATE, faults=faults, policy=policy
        )

    def test_tracer_off_is_bit_identical(self):
        baseline = self.run_plain()
        again = self.run_plain()
        assert baseline == again  # full dataclass equality: every float

    def test_traced_totals_bit_identical_to_untraced(self):
        untraced = self.run_plain()
        tracer = Tracer(sample_interval=0.005)
        cluster = Cluster(sim=Simulation(tracer=tracer))
        traced = run_waves(cluster, small_waves(), RATE)
        # timeline is excluded from ==, so this compares all the floats.
        assert traced == untraced

    def test_traced_totals_bit_identical_under_faults(self):
        plan = FaultPlan(faults=(NodeCrash(node=1, at=0.02),))
        untraced = self.run_plain(
            faults=plan, policy=HADOOP_POLICY.scaled(0.001)
        )
        tracer = Tracer()
        cluster = Cluster(sim=Simulation(tracer=tracer))
        traced = run_waves(
            cluster, small_waves(), RATE,
            faults=FaultPlan(faults=(NodeCrash(node=1, at=0.02),)),
            policy=HADOOP_POLICY.scaled(0.001),
        )
        assert traced == untraced

    def test_timeline_equality_ignored_but_repr_hidden(self):
        tracer = Tracer()
        cluster = Cluster(sim=Simulation(tracer=tracer))
        metrics = run_waves(cluster, small_waves(), RATE)
        assert "timeline" not in repr(metrics)
        clone = dataclasses.replace(metrics, timeline=None)
        assert clone == metrics


class TestFaultAnnotations:
    def test_retry_and_fault_instants(self):
        plan = FaultPlan(faults=(NodeCrash(node=1, at=0.02),))
        tracer = Tracer()
        cluster = Cluster(sim=Simulation(tracer=tracer))
        metrics = run_waves(
            cluster, small_waves(), RATE,
            faults=plan, policy=HADOOP_POLICY.scaled(0.001),
        )
        names = {i.name for i in tracer.of_kind("instant")}
        assert "node down" in names
        if metrics.tasks_retried:
            assert "retry scheduled" in names
        interrupted = [
            s for s in tracer.spans_of("attempt")
            if s.args.get("outcome") == "interrupted"
        ]
        assert interrupted, "the crash should interrupt at least one attempt"


class TestChromeExport:
    @pytest.fixture(scope="class")
    def trace(self):
        tracer = Tracer(sample_interval=0.01)
        cluster = Cluster(sim=Simulation(tracer=tracer))
        run_waves(cluster, small_waves(), RATE, job_name="export-job")
        return tracer, to_chrome_trace(tracer.records)

    def test_event_schema(self, trace):
        tracer, chrome = trace
        events = chrome["traceEvents"]
        assert events, "trace must not be empty"
        assert trace_problems(chrome) == []
        assert chrome["otherData"]["clock"] == "sim"
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ph"] in ("X", "i", "C", "M")
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
            if event["ph"] == "C":
                assert all(
                    isinstance(v, (int, float))
                    for v in event["args"].values()
                )

    def test_span_and_sample_counts(self, trace):
        tracer, chrome = trace
        events = chrome["traceEvents"]
        assert len([e for e in events if e["ph"] == "X"]) == len(
            tracer.of_kind("span"))
        assert len([e for e in events if e["ph"] == "C"]) == len(
            tracer.of_kind("counter"))

    def test_thread_metadata_names_tracks(self, trace):
        tracer, chrome = trace
        events = chrome["traceEvents"]
        named = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "scheduler" in named
        assert {s.track for s in tracer.records} <= named

    def test_json_round_trip(self, trace, tmp_path):
        tracer, _ = trace
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer.records, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == written

    def test_summary_renders(self, trace):
        tracer, _ = trace
        text = render_trace_summary(tracer.records)
        assert "Span summary" in text
        assert "export-job" in text

    def test_refuses_two_clock_domains(self, trace):
        tracer, _ = trace
        host = Span("span", "worker-1-0", "worker-1-0", "cell-a", "cell",
                    1.7e9, 1.7e9 + 1.0, clock="host")
        with pytest.raises(TraceMergeError):
            to_chrome_trace(tracer.records + [host])


class TestTelemetry:
    def test_final_totals_match_live_counters(self):
        tracer = Tracer()
        cluster = Cluster(sim=Simulation(tracer=tracer))
        telemetry = cluster.attach_telemetry()
        assert isinstance(telemetry, ClusterTelemetry)
        assert cluster.attach_telemetry() is telemetry  # idempotent
        run_waves(cluster, small_waves(), RATE)
        totals = telemetry.finalize()
        assert totals.cpu_seconds == sum(n.cpu_time for n in cluster.nodes)
        assert totals.disk_bytes == sum(
            n.disk.total_bytes for n in cluster.nodes
        )
        assert totals.net_bytes == sum(
            n.nic.total_bytes for n in cluster.nodes
        )

    def test_final_totals_requires_all_nodes(self):
        from repro.obs.metrics import NodeSample, UtilizationTimeline

        timeline = UtilizationTimeline()
        timeline.append(
            NodeSample(
                time=1.0, node="node0", cpu_seconds=1.0,
                io_block_seconds=0.0, disk_busy_seconds=0.0,
                disk_weighted_seconds=0.0, disk_bytes=0, net_bytes=0,
            )
        )
        with pytest.raises(ValueError):
            timeline.final_totals(["node0", "node1"])
