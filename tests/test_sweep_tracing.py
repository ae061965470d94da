"""Cross-process sweep tracing: span files, merge, flows, bit-identity.

Covers the observability tentpole's first leg: workers and the
supervisor write per-process ``*.spans.jsonl`` files which merge into
one Chrome/Perfetto trace with per-worker lanes, and a killed attempt
links to its retry on another worker via a flow event.  The standing
invariant from the executor PRs — observed runs are bit-identical to
unobserved ones — is asserted directly.
"""

import json
import os

import pytest

from repro.errors import TraceMergeError
from repro.exec import (
    SpanWriter,
    SweepTracer,
    merge_results,
    merge_sweep_trace,
    worker_lane,
)
from repro.exec.tracing import parse_span, read_spans
from repro.obs import to_chrome_trace
from repro.obs.export import trace_problems

from tests.test_exec_supervisor import fast_executor, make_cells


def run_traced(tmp_path, cells, jobs, **overrides):
    trace_dir = tmp_path / f"trace-j{jobs}"
    tracer = SweepTracer(str(trace_dir))
    executor = fast_executor(jobs, tracer=tracer, **overrides)
    outcome = executor.run(cells)
    tracer.close()
    return outcome, str(trace_dir)


class TestSpanWriter:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "w.spans.jsonl"
        writer = SpanWriter(str(path))
        writer.span("lane-a", "cell-1", "cell", 10.0, 12.5, cell_id="cell-1")
        writer.instant("lane-a", "retry", "retry", 13.0, attempt=2)
        writer.close()
        records, damage = read_spans(str(tmp_path))
        assert damage == []
        assert [r.kind for r in records] == ["span", "instant"]
        span = records[0]
        assert span.lane == span.track == "lane-a"
        assert span.t0 == 10.0 and span.t1 == 12.5
        assert span.args["cell_id"] == "cell-1"
        assert records[1].t0 == records[1].t1 == 13.0
        assert {r.clock for r in records} == {"host"}

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "w.spans.jsonl"
        writer = SpanWriter(str(path))
        writer.span("lane-a", "ok", "cell", 1.0, 2.0)
        writer.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "span", "truncated')
        records, damage = read_spans(str(tmp_path))
        assert len(records) == 1
        assert damage == [(str(path), "1 unparseable line(s)")]

    def test_worker_lane_embeds_pid(self):
        assert worker_lane(4242, 1) == "worker-4242-1"


class TestTracedSweep:
    def test_parallel_sweep_writes_worker_span_files(self, tmp_path):
        cells = make_cells("ok_cell", count=4)
        outcome, trace_dir = run_traced(tmp_path, cells, jobs=2)
        assert outcome.complete
        files = sorted(os.listdir(trace_dir))
        assert any(f.startswith("supervisor-") for f in files)
        assert sum(f.startswith("worker-") for f in files) >= 2
        records, _ = read_spans(trace_dir)
        cats = {r.cat for r in records}
        assert {"sweep", "boot", "queue", "cell"} <= cats
        cell_spans = [r for r in records if r.cat == "cell"]
        assert {s.args["cell_id"] for s in cell_spans} == {
            c.cell_id for c in cells
        }

    def test_serial_sweep_traces_on_supervisor_lane(self, tmp_path):
        cells = make_cells("ok_cell", count=2)
        outcome, trace_dir = run_traced(tmp_path, cells, jobs=1)
        assert outcome.complete
        records, _ = read_spans(trace_dir)
        lanes = {r.lane for r in records}
        assert len(lanes) == 1 and next(iter(lanes)).startswith("supervisor-")

    def test_traced_run_bit_identical_to_untraced(self, tmp_path):
        cells = make_cells("ok_cell", count=4)
        plain = fast_executor(2).run(cells)
        traced, _ = run_traced(tmp_path, cells, jobs=2)

        def key(outcome):
            merged = merge_results(cells, outcome.results)
            return json.dumps(merged, sort_keys=True)

        assert key(plain) == key(traced)

    def test_sigkill_retry_links_across_worker_lanes(self, tmp_path):
        cells = make_cells("sigkill_once_cell", count=2, tmp_path=tmp_path)
        outcome, trace_dir = run_traced(tmp_path, cells, jobs=2)
        assert outcome.complete
        records, _ = read_spans(trace_dir)
        killed = [
            r for r in records
            if r.cat == "cell" and r.args.get("status") == "killed"
        ]
        assert killed, "supervisor should write the killed attempt's span"
        trace = to_chrome_trace(records)
        flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
        assert trace["otherData"]["flow_links"] >= 1
        assert flows, "a retried cell must produce a flow link"
        # At least one flow crosses lanes: the killed attempt's lane
        # (dead worker) differs from the retry's (replacement worker).
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], {})[event["ph"]] = event["pid"]
        assert any(
            ends.get("s") != ends.get("f")
            for ends in by_id.values()
            if {"s", "f"} <= set(ends)
        )


class TestChromeExport:
    def test_merged_trace_structural_schema(self, tmp_path):
        cells = make_cells("flaky_cell", count=3, tmp_path=tmp_path)
        _, trace_dir = run_traced(tmp_path, cells, jobs=2)
        out_path = tmp_path / "trace.json"
        n_events, n_flows = merge_sweep_trace(trace_dir, str(out_path))
        with open(out_path) as handle:
            trace = json.load(handle)  # valid JSON end to end
        events = trace["traceEvents"]
        assert len(events) == n_events
        assert trace["otherData"]["flow_links"] == n_flows
        assert trace_problems(trace) == []
        assert trace["otherData"]["clock"] == "host"
        assert trace["otherData"]["damage"] == []

        meta = [e for e in events if e["ph"] == "M"]
        body = [e for e in events if e["ph"] != "M"]
        # Metadata first, then the body sorted by timestamp.
        assert events[: len(meta)] == meta
        stamps = [e["ts"] for e in body]
        assert stamps == sorted(stamps)
        assert body and min(stamps) == 0.0  # rebased to first event

        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # Every flow id has both ends.
        by_id = {}
        for event in body:
            if event["ph"] in ("s", "f"):
                by_id.setdefault(event["id"], set()).add(event["ph"])
        for ends in by_id.values():
            assert ends == {"s", "f"}
        # One Chrome pid per lane, supervisor lane first.
        names = [
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        ]
        assert names[0].startswith("supervisor-")
        assert len(names) == trace["otherData"]["lanes"]

    def test_lane_metadata_uses_embedded_os_pid(self):
        records = [parse_span({
            "kind": "span", "lane": "worker-777-0", "pid": 1,
            "name": "q", "cat": "queue", "t0": 0.0, "t1": 1.0,
            "args": {"cell_id": "c"},
        })]
        trace = to_chrome_trace(records)
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "process_name"
        ]
        assert names == ["worker-777-0 (os pid 777)"]

    def test_merge_into_missing_dir_raises(self, tmp_path):
        assert read_spans(str(tmp_path / "absent")) == ([], [])
        with pytest.raises(TraceMergeError):
            merge_sweep_trace(str(tmp_path / "absent"), str(tmp_path / "t"))


class TestTraceTelemetry:
    def test_span_writer_counts_writes(self, tmp_path):
        writer = SpanWriter(str(tmp_path / "t" / "w.spans.jsonl"))
        writer.span("lane", "cell", "exec", 0.0, 1.0)
        writer.instant("lane", "mark", "exec", 0.5)
        writer.close()
        telemetry = writer.telemetry()
        assert telemetry["trace_writes"] == 2.0
        assert telemetry["trace_writer_errors"] == 0.0

    def test_dead_sink_counts_drops_and_warns_once(self, tmp_path, capsys):
        target = tmp_path / "w.spans.jsonl"
        target.mkdir()
        writer = SpanWriter(str(target))
        writer.span("lane", "a", "exec", 0.0, 1.0)
        writer.span("lane", "b", "exec", 1.0, 2.0)
        writer.close()
        telemetry = writer.telemetry()
        assert telemetry["trace_writer_errors"] == 1.0
        assert telemetry["trace_dropped_events"] == 2.0
        assert capsys.readouterr().err.count("can no longer write") == 1

    def test_tracer_telemetry_passes_through(self, tmp_path):
        tracer = SweepTracer(str(tmp_path / "trace"))
        tracer.span("merge", "exec", 0.0, 1.0)
        tracer.close()
        assert tracer.telemetry()["trace_writes"] == 1.0


class TestMergeDurability:
    def test_merge_leaves_no_tmp_litter(self, tmp_path):
        cells = make_cells("ok_cell", count=2)
        trace_dir = str(tmp_path / "trace")
        tracer = SweepTracer(trace_dir)
        fast_executor(2, tracer=tracer).run(cells)
        tracer.close()
        out = str(tmp_path / "trace.json")
        merge_sweep_trace(trace_dir, out)
        assert json.load(open(out))["traceEvents"]
        litter = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert litter == []
