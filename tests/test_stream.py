"""Live progress stream: event schema, renderer, OpenMetrics view.

Exercises the observability tentpole's second leg end to end: a traced
executor run drives a real :class:`ProgressStream` through the
``observer`` hook, and the resulting ``progress.jsonl`` is checked for
the wire-format guarantees METRICS.md documents (schema version stamp,
sweep id, derived throughput/ETA on ``cell-finished``).
"""

import io
import json
import os

from repro.obs import (
    PROGRESS_SCHEMA_VERSION,
    ProgressStream,
    TerminalRenderer,
    read_progress,
    render_openmetrics,
)

from tests.test_exec_supervisor import fast_executor, make_cells


def run_streamed(tmp_path, cells, jobs, **overrides):
    path = str(tmp_path / "progress.jsonl")
    stream = ProgressStream(path, sweep="test-sweep")
    outcome = fast_executor(jobs, observer=stream, **overrides).run(cells)
    stream.close()
    return outcome, read_progress(path)


class TestProgressStream:
    def test_events_carry_schema_version_sweep_and_timestamp(self, tmp_path):
        _, events = run_streamed(tmp_path, make_cells("ok_cell", 2), jobs=2)
        assert events, "a sweep must stream at least start/finish events"
        for event in events:
            assert event["v"] == PROGRESS_SCHEMA_VERSION
            assert event["sweep"] == "test-sweep"
            assert isinstance(event["t"], float)

    def test_lifecycle_event_sequence(self, tmp_path):
        outcome, events = run_streamed(
            tmp_path, make_cells("ok_cell", 3), jobs=2
        )
        assert outcome.complete
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep-started"
        assert kinds[-1] == "sweep-finished"
        assert kinds.count("worker-started") == 2
        assert kinds.count("cell-started") == 3
        assert kinds.count("cell-finished") == 3
        assert events[0]["total"] == 3
        assert events[-1]["done"] == 3

    def test_cell_finished_derives_throughput_and_eta(self, tmp_path):
        _, events = run_streamed(tmp_path, make_cells("ok_cell", 2), jobs=1)
        finished = [e for e in events if e["event"] == "cell-finished"]
        assert len(finished) == 2
        for event in finished:
            assert event["cells_per_s"] > 0
        assert finished[0]["eta_s"] > 0  # one cell still outstanding
        assert finished[-1]["eta_s"] == 0  # sweep drained

    def test_retry_and_quarantine_events(self, tmp_path):
        cells = make_cells(
            "flaky_cell", count=1, tmp_path=tmp_path, fail_times=1
        )
        cells += make_cells("crash_cell", count=1, tmp_path=tmp_path)
        outcome, events = run_streamed(tmp_path, cells, jobs=1)
        kinds = [e["event"] for e in events]
        assert "cell-retried" in kinds
        assert "cell-quarantined" in kinds
        assert outcome.quarantined

    def test_stream_without_path_is_a_no_op_sink(self):
        stream = ProgressStream(None)
        stream({"event": "cell-finished", "done": 1, "total": 2})
        stream.close()  # nothing written anywhere, nothing raised

    def test_read_progress_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text(
            json.dumps({"event": "sweep-started", "total": 1}) + "\n"
            + "{\"event\": \"torn\n"
            + "[1, 2, 3]\n"
            + json.dumps({"no_event_key": True}) + "\n"
        )
        events = read_progress(str(path))
        assert [e["event"] for e in events] == ["sweep-started"]

    def test_read_progress_missing_file_is_empty(self, tmp_path):
        assert read_progress(str(tmp_path / "absent.jsonl")) == []


class TestTerminalRenderer:
    def test_renders_progress_line_in_place(self):
        out = io.StringIO()
        renderer = TerminalRenderer(out)
        renderer.update({"event": "sweep-started", "total": 4})
        renderer.update(
            {
                "event": "cell-finished", "done": 2, "total": 4,
                "cells_per_s": 1.5, "eta_s": 1.3,
            }
        )
        renderer.update({"event": "cell-retried", "cell_id": "c"})
        renderer.update({"event": "sweep-finished", "done": 4, "total": 4})
        text = out.getvalue()
        assert "\r" in text
        assert "sweep 2/4 cells" in text
        assert "1.50 cells/s" in text
        assert "eta 1s" in text
        assert "1 retried" in text
        assert "done" in text
        renderer.close()
        assert out.getvalue().endswith("\n")

    def test_streams_through_renderer(self, tmp_path):
        out = io.StringIO()
        stream = ProgressStream(
            str(tmp_path / "p.jsonl"), renderer=TerminalRenderer(out)
        )
        fast_executor(1, observer=stream).run(make_cells("ok_cell", 2))
        stream.close()
        assert "sweep 2/2 cells" in out.getvalue()


class TestOpenMetrics:
    def test_render_openmetrics_over_sweep_dir(self, tmp_path):
        runs = str(tmp_path / "runs")
        checkpoint_dir = os.path.join(runs, "sweeps", "demo")
        from repro.exec import SweepCheckpoint

        cells = make_cells("ok_cell", 2)
        checkpoint = SweepCheckpoint(runs, "demo")
        checkpoint.initialise(
            config_hash="cafe", seed=0, config={}, n_cells=len(cells)
        )
        stream = ProgressStream(
            os.path.join(checkpoint_dir, "progress.jsonl"), sweep="demo"
        )
        outcome = fast_executor(
            1, observer=stream
        ).run(cells, checkpoint=checkpoint)
        stream.close()
        assert outcome.complete

        text = render_openmetrics(runs)
        assert text.endswith("# EOF\n")
        assert 'repro_sweep_cells{sweep="demo",state="total"} 2' in text
        assert 'repro_sweep_cells{sweep="demo",state="done"} 2' in text
        assert 'repro_sweep_cells_per_second{sweep="demo"}' in text
        # HELP/TYPE framing immediately precedes each family's samples.
        lines = text.splitlines()
        for family in ("repro_sweep_cells", "repro_sweep_cells_per_second"):
            first = min(
                i for i, line in enumerate(lines)
                if line.startswith(family + "{")
            )
            assert lines[first - 1] == f"# TYPE {family} gauge"

    def test_scrape_leaves_a_damaged_runs_dir_untouched(self, tmp_path):
        from repro.exec import SweepCheckpoint
        from repro.exec.cells import CellResult

        runs = str(tmp_path / "runs")
        checkpoint = SweepCheckpoint(runs, "demo", snapshot_every=1)
        checkpoint.initialise(config_hash="cafe", seed=0, config={},
                              n_cells=2)
        checkpoint.record(CellResult(cell_id="c0", status="ok"))
        checkpoint.close()
        with open(checkpoint.snapshot_path, "w", encoding="utf-8") as fh:
            fh.write("{ torn")
        with open(os.path.join(runs, "zz-corrupt.json"), "w") as fh:
            fh.write("{ nope")

        def listing():
            return sorted(
                os.path.join(dirpath, name)
                for dirpath, _, names in os.walk(runs) for name in names
            )

        before = listing()
        text = render_openmetrics(runs)
        assert listing() == before
        # The journal alone still answers the scrape.
        assert 'repro_sweep_cells{sweep="demo",state="done"} 1' in text

    def test_render_openmetrics_empty_dir(self, tmp_path):
        text = render_openmetrics(str(tmp_path / "empty"))
        assert text.endswith("# EOF\n")
        assert "repro_registry_records" in text  # framing always present

    def test_build_info_gauge_carries_schema_versions(self, tmp_path):
        from repro.obs import SCHEMA_VERSION

        text = render_openmetrics(str(tmp_path / "empty"))
        lines = text.splitlines()
        samples = [
            line for line in lines if line.startswith("repro_build_info{")
        ]
        assert len(samples) == 1
        sample = samples[0]
        assert sample.endswith("} 1")
        assert f'record_schema="{SCHEMA_VERSION}"' in sample
        assert f'progress_schema="{PROGRESS_SCHEMA_VERSION}"' in sample
        assert 'git_sha="' in sample
        # Its HELP/TYPE framing precedes the sample.
        index = lines.index(sample)
        assert lines[index - 1] == "# TYPE repro_build_info gauge"
        assert lines[index - 2].startswith("# HELP repro_build_info ")

    def test_every_family_gets_help_and_type_even_when_empty(self, tmp_path):
        # An empty run directory still exposes the full metric schema:
        # scrapers learn every family name from any single scrape.
        text = render_openmetrics(str(tmp_path / "empty"))
        lines = text.splitlines()
        for family in (
            "repro_build_info",
            "repro_registry_records",
            "repro_exec_telemetry",
            "repro_sweep_cells",
            "repro_sweep_cells_per_second",
            "repro_sweep_eta_seconds",
        ):
            assert f"# TYPE {family} gauge" in lines
            assert any(
                line.startswith(f"# HELP {family} ") for line in lines
            ), family

    def test_eof_is_the_final_line(self, tmp_path):
        text = render_openmetrics(str(tmp_path / "empty"))
        assert text.splitlines()[-1] == "# EOF"


class TestStreamTelemetry:
    def test_healthy_stream_counts_writes_no_drops(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        stream = ProgressStream(path, sweep="s")
        stream.emit({"event": "sweep-started", "total": 1})
        stream.emit({"event": "cell-finished", "done": 1, "total": 1})
        stream.close()
        telemetry = stream.telemetry()
        assert telemetry["stream_writes"] == 2.0
        assert telemetry["stream_writer_errors"] == 0.0
        assert telemetry["stream_dropped_events"] == 0.0

    def test_dead_sink_counts_drops_and_warns_once(self, tmp_path, capsys):
        # The stream path is a directory: every append fails.  The
        # sweep must not fail, but every dropped event is counted and
        # the first failure warns on stderr exactly once.
        target = tmp_path / "progress.jsonl"
        target.mkdir()
        stream = ProgressStream(str(target), sweep="s")
        for i in range(3):
            stream.emit({"event": "cell-finished", "done": i, "total": 3})
        stream.close()
        telemetry = stream.telemetry()
        assert telemetry["stream_writer_errors"] == 1.0
        assert telemetry["stream_dropped_events"] == 3.0
        assert capsys.readouterr().err.count("can no longer write") == 1

    def test_pathless_stream_has_no_telemetry(self):
        assert ProgressStream(None).telemetry() == {}
