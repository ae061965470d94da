"""The observatory: read-only aggregation and the golden-determinism bar.

The fixture tree below is deliberately damaged — a corrupt record, a
leaked tmp file, a torn journal tail, a torn span line — because the
hard guarantees are about damage: the aggregator must skip-and-report
(never crash, never rename), and two renders of the same directory
must be byte-identical, including across interpreter hash seeds.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.exec import SweepTracer, merge_sweep_trace
from repro.exec.tracing import parse_span
from repro.obs import build_model, render_site, to_chrome_trace
from repro.obs.dashboard import PAGES
from repro.obs.export import group_lanes

from tests.test_exec_supervisor import fast_executor, make_cells


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def record_dict(experiment, kind, run_id, created_at, *, metrics=None,
                timings=None, series=None):
    return {
        "schema_version": 1,
        "run_id": run_id,
        "experiment": experiment,
        "kind": kind,
        "created_at": created_at,
        "provenance": {
            "git_sha": "fixture",
            "seed": 0,
            "scale": 0.25,
            "platforms": ["Xeon E5645"],
            "python": "3.11.0",
            "config_hash": "cafecafecafe",
        },
        "metrics": metrics or {},
        "series": series or {},
        "timings": timings or {},
    }


def build_fixture(root):
    """One runs directory exercising every observatory panel.

    No ``sweep.lock`` files: stale-lock findings depend on pid
    liveness, which would break cross-process byte-identity.
    """
    runs = os.path.join(root, "runs")
    os.makedirs(runs, exist_ok=True)

    for index, (created, ratio) in enumerate(
        [("2026-01-01T00:00:00Z", 3.1), ("2026-01-02T00:00:00Z", 3.4)]
    ):
        write(
            os.path.join(runs, f"fig4-fixture-{index}.json"),
            json.dumps(record_dict(
                "fig4", "figure", f"fig4-fixture-{index}", created,
                metrics={"mpki.S-WordCount.l1d": ratio,
                         "mpki.S-WordCount.l2": ratio / 2},
            ), indent=2, sort_keys=True) + "\n",
        )
    write(
        os.path.join(runs, "bench-fixture-0.json"),
        json.dumps(record_dict(
            "bench.uarch.trace-gen", "bench", "bench-fixture-0",
            "2026-01-03T00:00:00Z",
            metrics={"trace.fetch_lines": 40000.0},
            timings={
                "bench.schema": 1.0, "bench.reps": 3.0,
                "bench.median_s": 0.01, "bench.mad_s": 0.001,
                "bench.ci_lo_s": 0.009, "bench.ci_hi_s": 0.011,
                "bench.mean_s": 0.01, "bench.min_s": 0.009,
                "bench.max_s": 0.011,
            },
            series={"bench": {"schema_version": 1,
                              "target": "uarch.trace-gen",
                              "target_kind": "micro", "reps": 3,
                              "warmup": 1}},
        ), indent=2, sort_keys=True) + "\n",
    )
    write(
        os.path.join(runs, "profile-fixture-0.json"),
        json.dumps(record_dict(
            "profile", "profile", "profile-fixture-0",
            "2026-01-04T00:00:00Z",
            timings={
                "hostprof.total_s": 2.0,
                "hostprof.attributed_fraction": 0.9,
                "hostprof.self_s.repro.uarch.trace:generate_fetch_trace":
                    0.8,
                "hostprof.self_s.repro.uarch.cache:CacheLevel.access": 0.6,
            },
        ), indent=2, sort_keys=True) + "\n",
    )
    write(
        os.path.join(runs, "exec-fixture-0.json"),
        json.dumps(record_dict(
            "fig4", "figure", "exec-fixture-0", "2026-01-05T00:00:00Z",
            metrics={"mpki.S-WordCount.l1d": 3.2,
                     "mpki.S-WordCount.l2": 1.6},
            timings={"exec.stream_writes": 12.0,
                     "exec.stream_dropped_events": 2.0,
                     "exec.trace_writer_errors": 1.0},
        ), indent=2, sort_keys=True) + "\n",
    )

    # Damage tier: a corrupt record and a leaked atomic-write tmp.
    write(os.path.join(runs, "torn-record.json"), "{ nope")
    write(os.path.join(runs, "leaked.json.tmp.999"), "{}")

    # One sweep with progress, a torn journal tail and a span file.
    sweep = os.path.join(runs, "sweeps", "golden")
    write(os.path.join(sweep, "manifest.json"), json.dumps({
        "version": 1, "sweep": "golden", "config_hash": "cafe",
        "seed": 0, "config": {"verb": "fig4", "scale": 0.25},
        "n_cells": 3,
    }, indent=2, sort_keys=True) + "\n")
    write(os.path.join(sweep, "journal.jsonl"), "\n".join([
        json.dumps({"cell_id": "cellA", "status": "ok", "metrics": {},
                    "provenance_hash": "", "attempts": 1,
                    "seconds": 0.5, "worker": 0}),
        json.dumps({"cell_id": "cellB", "status": "quarantined",
                    "metrics": {}, "provenance_hash": "", "attempts": 3,
                    "seconds": 0.9, "worker": 1}),
        '{"cell_id": "cellC", "status"',  # torn tail (crash mid-append)
    ]) + "\n")
    write(os.path.join(sweep, "snapshot.json"), json.dumps({
        "version": 1,
        "cells": {"cellA": {"cell_id": "cellA", "status": "ok",
                            "metrics": {}, "provenance_hash": "",
                            "attempts": 1, "seconds": 0.5, "worker": 0}},
    }, indent=2, sort_keys=True) + "\n")
    write(os.path.join(sweep, "progress.jsonl"), "\n".join([
        json.dumps({"v": 1, "sweep": "golden", "t": 100.0,
                    "event": "sweep-started", "total": 3}),
        json.dumps({"v": 1, "sweep": "golden", "t": 101.0,
                    "event": "cell-finished", "done": 1, "total": 3,
                    "cells_per_s": 1.0, "eta_s": 2.0}),
        json.dumps({"v": 1, "sweep": "golden", "t": 102.0,
                    "event": "cell-retried", "cell": "cellB"}),
        json.dumps({"v": 1, "sweep": "golden", "t": 104.0,
                    "event": "sweep-finished", "done": 2, "total": 3}),
    ]) + "\n")
    write(os.path.join(sweep, "trace", "worker-100-0.spans.jsonl"),
          "\n".join([
              json.dumps({"kind": "span", "lane": "worker-100-0",
                          "pid": 100, "name": "cellA", "cat": "cell",
                          "t0": 100.2, "t1": 100.7, "args": {}}),
              json.dumps({"kind": "instant", "lane": "worker-100-0",
                          "pid": 100, "name": "retry", "cat": "retry",
                          "t": 100.8, "args": {}}),
              '{"kind": "span", "lane"',  # torn tail
          ]) + "\n")
    write(os.path.join(sweep, "trace", "supervisor-99.spans.jsonl"),
          json.dumps({"kind": "span", "lane": "supervisor-99", "pid": 99,
                      "name": "sweep", "cat": "queue", "t0": 100.0,
                      "t1": 104.0, "args": {}}) + "\n")
    return runs


def snapshot_tree(root):
    """Every file under root with its exact bytes."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                state[os.path.relpath(path, root)] = handle.read()
    return state


def read_site(out_dir):
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
    }


class TestAggregation:
    def test_model_indexes_every_tier(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        model = build_model(runs)
        assert model.experiments() == [
            "bench.uarch.trace-gen", "fig4", "profile",
        ]
        assert [r.kind for r in model.of_kind("bench")] == ["bench"]
        assert len(model.sweeps) == 1
        sweep = model.sweeps[0]
        assert sweep.n_cells == 3
        assert sweep.done == 1 and sweep.quarantined == 1
        assert sweep.torn_journal_lines == 1
        assert sweep.finished and sweep.retries == 1
        assert sweep.last_throughput == 1.0
        assert list(group_lanes(sweep.spans)) == [
            "supervisor-99", "worker-100-0",
        ]

    def test_damage_is_skipped_and_reported_not_fatal(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        model = build_model(runs)
        skipped_paths = [s.path for s in model.skipped]
        assert any(p.endswith("torn-record.json") for p in skipped_paths)
        kinds = {f["kind"] for f in model.findings}
        assert "corrupt-record" in kinds
        assert "leaked-tmp" in kinds
        assert "torn-journal" in kinds

    def test_aggregation_is_strictly_read_only(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        before = snapshot_tree(runs)
        build_model(runs)
        assert snapshot_tree(runs) == before
        # The corrupt record is still in place, un-quarantined.
        assert os.path.isfile(os.path.join(runs, "torn-record.json"))

    def test_orphaned_sweep_dirs_are_not_sweeps(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        for name in ("old.orphan", "old.orphan.1"):
            write(os.path.join(runs, "sweeps", name, "junk"), "x")
        model = build_model(runs)
        assert [sweep.sweep for sweep in model.sweeps] == ["golden"]
        assert not any(".orphan" in s.path for s in model.skipped)
        assert "orphaned-sweep" not in {f["kind"] for f in model.findings}

    def test_missing_directory_yields_empty_model(self, tmp_path):
        model = build_model(str(tmp_path / "nowhere"), fsck=True)
        assert model.records == [] and model.sweeps == []
        assert model.findings == []


def span_line(lane, name, t0, t1, **extra):
    record = {"kind": "span", "lane": lane, "pid": 1, "name": name,
              "cat": "cell", "t0": t0, "t1": t1, "args": {}}
    record.update(extra)
    return json.dumps(record)


def process_order(trace):
    """Lane names of a Chrome trace, in process (pid) order."""
    names = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
             if e["name"] == "process_name"}
    return [names[pid].split(" (os pid")[0] for pid in sorted(names)]


def dashboard_rows(out_dir):
    """Lane labels of the sweeps page, top to bottom."""
    page = open(os.path.join(out_dir, "sweeps.html"), encoding="utf-8").read()
    return re.findall(r"fill='#334'>([^<]+)</text>", page)


class TestTimelineAdapter:
    def test_rebased_sorted_supervisor_first(self):
        lines = [
            {"kind": "span", "lane": "worker-1-0", "pid": 1, "name": "b",
             "cat": "cell", "t0": 10.5, "t1": 11.0, "args": {}},
            {"kind": "span", "lane": "worker-1-0", "pid": 1, "name": "a",
             "cat": "cell", "t0": 10.5, "t1": 11.0, "args": {}},
            {"kind": "span", "lane": "worker-2-0", "pid": 2, "name": "c",
             "cat": "cell", "t0": 10.2, "t1": 10.4, "args": {}},
            {"kind": "span", "lane": "supervisor-9", "pid": 9,
             "name": "sweep", "cat": "queue", "t0": 10.0, "t1": 12.0,
             "args": {}},
        ]
        assert parse_span({"not": "a span"}) is None
        records = [parse_span(line) for line in lines]
        lanes = group_lanes(records)
        # Supervisor first, then workers by their first event.
        assert list(lanes) == ["supervisor-9", "worker-2-0", "worker-1-0"]
        assert [s.name for s in lanes["worker-1-0"]] == ["b", "a"]
        trace = to_chrome_trace(records)
        assert process_order(trace) == list(lanes)
        spans = {e["name"]: e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert spans["sweep"]["ts"] == 0.0  # rebased to the sweep start

    def test_empty_input(self):
        assert group_lanes([]) == {}
        trace = to_chrome_trace([])
        assert trace["traceEvents"] == []
        assert trace["otherData"]["lanes"] == 0

    @pytest.mark.parametrize("bad_t0", [None, "soon"],
                             ids=["missing", "non-numeric"])
    def test_untimed_span_is_skipped_and_counted(self, tmp_path, bad_t0):
        runs = str(tmp_path / "runs")
        sweep = os.path.join(runs, "sweeps", "untimed")
        span_file = os.path.join(sweep, "trace", "worker-5-0.spans.jsonl")
        bad = json.loads(span_line("worker-5-0", "bad", bad_t0, 1.7e9 + 2))
        if bad_t0 is None:
            del bad["t0"]
        write(span_file, "\n".join([
            span_line("worker-5-0", "good", 1.7e9, 1.7e9 + 1),
            json.dumps(bad),
        ]) + "\n")

        trace_path = os.path.join(sweep, "trace.json")
        merge_sweep_trace(os.path.join(sweep, "trace"), trace_path)
        trace = json.load(open(trace_path))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(e["name"], e["ts"]) for e in spans] == [("good", 0.0)]
        assert len(trace["otherData"]["damage"]) == 1

        model = build_model(runs, fsck=False)
        assert [s.name for s in model.sweeps[0].spans] == ["good"]
        assert [s.path for s in model.skipped
                if "numeric times" in s.reason] == [span_file]

    def test_chrome_process_order_is_dashboard_row_order(self, tmp_path):
        runs = str(tmp_path / "runs")
        sweep = os.path.join(runs, "sweeps", "recorded")
        tracer = SweepTracer(os.path.join(sweep, "trace"))
        outcome = fast_executor(2, tracer=tracer).run(
            make_cells("ok_cell", count=4))
        tracer.close()
        assert outcome.complete
        # A resumed run's worker whose recycled pid sorts first by name
        # but whose lane starts last.
        end = max(s.t1 for s in build_model(runs, fsck=False).sweeps[0].spans)
        write(os.path.join(sweep, "trace", "worker-1-0.spans.jsonl"),
              span_line("worker-1-0", "late", end + 1, end + 2) + "\n")

        merge_sweep_trace(os.path.join(sweep, "trace"),
                          os.path.join(sweep, "trace.json"))
        trace = json.load(open(os.path.join(sweep, "trace.json")))
        out = str(tmp_path / "site")
        render_site(build_model(runs, fsck=False), out)
        rows = dashboard_rows(out)
        assert len(rows) >= 4  # supervisor, two workers, the late lane
        assert rows == process_order(trace)
        assert rows[0].startswith("supervisor-") and rows[-1] == "worker-1-0"


class TestGoldenDeterminism:
    def test_two_renders_are_byte_identical(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        render_site(build_model(runs), out_a)
        render_site(build_model(runs), out_b)
        site_a, site_b = read_site(out_a), read_site(out_b)
        assert sorted(site_a) == sorted(
            name for name, _ in PAGES
        )
        assert site_a == site_b

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        # PYTHONHASHSEED is fixed at interpreter start, so the cross-
        # seed leg of the golden test must run in subprocesses.
        runs = build_fixture(str(tmp_path))
        sites = {}
        for seed in ("1", "731"):
            out = str(tmp_path / f"site-{seed}")
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.dirname(
                os.path.dirname(os.path.abspath(repro.__file__))
            )
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "--runs-dir", runs,
                 "dash", "--out", out],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            sites[seed] = read_site(out)
        assert sites["1"] == sites["731"]

    def test_cli_dash_reports_and_writes_no_record(self, tmp_path, capsys):
        runs = build_fixture(str(tmp_path))
        out = str(tmp_path / "site")
        names_before = sorted(os.listdir(runs))
        assert main(["--runs-dir", runs, "dash", "--out", out]) == 0
        assert sorted(os.listdir(runs)) == names_before
        text = capsys.readouterr().out
        assert "index.html" in text
        assert main([
            "--runs-dir", runs, "dash", "--out", out, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pages"] and payload["skipped_artifacts"] >= 1


class TestRenderedPanels:
    def site(self, tmp_path):
        runs = build_fixture(str(tmp_path))
        out = str(tmp_path / "site")
        render_site(build_model(runs), out)
        return {
            name: open(os.path.join(out, name), encoding="utf-8").read()
            for name in os.listdir(out)
        }

    def test_scorecard_page_scores_anchored_experiments(self, tmp_path):
        pages = self.site(tmp_path)
        assert "fig4" in pages["index.html"]
        assert "scorecard" in pages["index.html"].lower()

    def test_history_page_plots_metric_series(self, tmp_path):
        pages = self.site(tmp_path)
        assert "mpki.S-WordCount.l1d" in pages["history.html"]
        assert "<svg" in pages["history.html"]
        # bench.* experiments chart on the bench page, not here.
        assert "bench.uarch.trace-gen" not in pages["history.html"]

    def test_sweep_page_draws_lanes(self, tmp_path):
        pages = self.site(tmp_path)
        assert "golden" in pages["sweeps.html"]
        assert "supervisor-99" in pages["sweeps.html"]
        assert "worker-100-0" in pages["sweeps.html"]

    def test_profile_page_ranks_hot_functions(self, tmp_path):
        pages = self.site(tmp_path)
        assert "generate_fetch_trace" in pages["profiles.html"]

    def test_bench_page_charts_bench_records(self, tmp_path):
        pages = self.site(tmp_path)
        assert "bench.uarch.trace-gen" in pages["bench.html"]

    def test_health_page_surfaces_every_skip_and_finding(self, tmp_path):
        pages = self.site(tmp_path)
        health = pages["health.html"]
        assert "torn-record.json" in health
        assert "leaked.json.tmp.999" in health
        assert "corrupt-record" in health
        assert "torn-journal" in health
        # Nonzero drop/error counters are part of writer health.
        assert "stream_dropped_events" in health

    def test_history_html_export_uses_the_same_renderer(self, tmp_path):
        from repro.obs import RunRegistry, history

        runs = build_fixture(str(tmp_path))
        page = history(RunRegistry(runs), "fig4").to_html()
        assert "<svg" in page and "mpki.S-WordCount.l1d" in page
