"""A sweep's progress as its supervisor lane records it; the live line
and the OpenMetrics view that read those records.

The span files are the one record of a sweep's execution.  A traced
executor run is read back with :func:`repro.exec.tracing.read_spans`
and checked for the records METRICS.md documents (the run's start,
one commit per journaled cell, retry and quarantine instants, the
sweep span); the terminal line is fed the same records in-process
through the :class:`~repro.exec.tracing.SweepTracer` listener.
"""

import io
import os

from repro.exec import SweepTracer
from repro.exec.tracing import COMMIT, SWEEP_STARTED, read_spans
from repro.obs import TerminalRenderer, render_openmetrics

from tests.test_exec_supervisor import fast_executor, make_cells


def run_traced(tmp_path, cells, jobs, listener=None):
    tracer = SweepTracer(str(tmp_path / "trace"), listener=listener)
    outcome = fast_executor(jobs, tracer=tracer).run(cells)
    tracer.close()
    records, damage = read_spans(tracer.trace_dir)
    assert damage == []
    return outcome, records, tracer.lane


def by_lane(records, lane):
    return [r for r in records if r.lane == lane]


class TestProgressStream:
    """The progress facts a sweep's supervisor lane carries."""

    def test_records_carry_lane_pid_and_timestamp(self, tmp_path):
        _, records, lane = run_traced(
            tmp_path, make_cells("ok_cell", 2), jobs=2
        )
        supervisor = by_lane(records, lane)
        assert supervisor, "a sweep must record at least start and end"
        assert lane == f"supervisor-{os.getpid()}"
        for record in supervisor:
            assert record.clock == "host"
            assert isinstance(record.t0, float)

    def test_lifecycle_event_sequence(self, tmp_path):
        outcome, records, lane = run_traced(
            tmp_path, make_cells("ok_cell", 3), jobs=2
        )
        assert outcome.complete
        supervisor = sorted(by_lane(records, lane), key=lambda r: r.t0)
        started = supervisor[0]
        assert (started.kind, started.name) == ("instant", SWEEP_STARTED)
        assert started.args == {"total": 3, "todo": 3, "jobs": 2,
                                "from_checkpoint": 0}
        commits = [r for r in supervisor if r.name == COMMIT]
        assert [c.args["done"] for c in commits] == [1, 2, 3]
        assert {c.args["total"] for c in commits} == {3}
        sweep = [r for r in supervisor if r.kind == "span"]
        assert [(s.name, s.cat) for s in sweep] == [("sweep", "sweep")]
        assert sweep[0].t1 >= commits[-1].t0
        # Workers record their own boot and cell spans; the supervisor
        # records each dispatch's queue wait on the worker's lane.
        workers = [r for r in records if r.lane.startswith("worker-")]
        assert sum(1 for r in workers if r.cat == "boot") == 2
        assert sum(1 for r in workers if r.cat == "queue") == 3
        assert sum(1 for r in workers if r.cat == "cell") == 3

    def test_cell_finished_derives_throughput_and_eta(self, tmp_path):
        out = io.StringIO()
        run_traced(tmp_path, make_cells("ok_cell", 2), jobs=1,
                   listener=TerminalRenderer(out).update)
        text = out.getvalue()
        assert "sweep 1/2 cells" in text
        assert "cells/s | eta" in text  # one cell still outstanding
        assert "sweep 2/2 cells" in text
        assert "eta 0s" in text  # sweep drained
        assert text.rstrip().endswith("done")

    def test_retry_and_quarantine_events(self, tmp_path):
        cells = make_cells(
            "flaky_cell", count=1, tmp_path=tmp_path, fail_times=1
        )
        cells += make_cells("crash_cell", count=1, tmp_path=tmp_path)
        outcome, records, lane = run_traced(tmp_path, cells, jobs=1)
        assert outcome.quarantined
        supervisor = by_lane(records, lane)
        retries = [r for r in supervisor if r.cat == "retry"]
        quarantines = [r for r in supervisor if r.cat == "quarantine"]
        assert retries and quarantines
        assert [q.args["cell_id"] for q in quarantines] == [cells[1].cell_id]

    def test_poison_cell_is_quarantined_once(self, tmp_path):
        cells = make_cells("crash_cell", count=1, tmp_path=tmp_path)
        outcome, records, lane = run_traced(tmp_path, cells, jobs=2)
        assert list(outcome.quarantined) == [cells[0].cell_id]
        quarantines = [r for r in records if r.cat == "quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0].lane == lane
        assert quarantines[0].args["poison"] is True
        assert not [r for r in records if r.name == COMMIT]

    def test_killed_worker_is_recorded_once(self, tmp_path):
        cells = make_cells("sigkill_once_cell", count=1, tmp_path=tmp_path)
        outcome, records, lane = run_traced(tmp_path, cells, jobs=2)
        assert outcome.complete
        supervisor_file = os.path.join(str(tmp_path / "trace"),
                                       lane + ".spans.jsonl")
        written = [r for r in records
                   if r.args.get("status") == "killed"]
        assert len(written) == 1
        assert written[0].lane.startswith("worker-")
        with open(supervisor_file, encoding="utf-8") as handle:
            assert handle.read().count('"killed"') == 1
        retries = [r for r in by_lane(records, lane) if r.cat == "retry"]
        assert len(retries) == 1 and retries[0].args["infra"] is True

    def test_failing_listener_never_fails_the_sweep(self, tmp_path, capsys):
        def listener(record):
            raise RuntimeError("cosmetics only")

        outcome, records, lane = run_traced(
            tmp_path, make_cells("ok_cell", 2), jobs=1, listener=listener
        )
        assert outcome.complete
        assert [r.name for r in by_lane(records, lane)
                if r.name == COMMIT] == [COMMIT, COMMIT]
        assert capsys.readouterr().err.count("listener detached") == 1


class TestTerminalRenderer:
    def test_renders_progress_line_in_place(self, tmp_path):
        out = io.StringIO()
        renderer = TerminalRenderer(out)
        tracer = SweepTracer(str(tmp_path / "trace"),
                             listener=renderer.update)
        tracer.instant(SWEEP_STARTED, "sweep", 100.0, total=4, todo=4,
                       jobs=2, from_checkpoint=0)
        tracer.instant(COMMIT, "commit", 101.0, cell_id="a", done=1,
                       total=4)
        tracer.instant("retry", "retry", 101.1, cell_id="c", attempt=1)
        tracer.instant("quarantine", "quarantine", 101.2, cell_id="d")
        tracer.instant(COMMIT, "commit", 100.0 + 4 / 3, cell_id="b",
                       done=2, total=4)
        tracer.span("sweep", "sweep", 100.0, 103.0, cells=4, jobs=2)
        tracer.close()
        text = out.getvalue()
        assert "\r" in text
        assert "sweep 1/4 cells | 1.00 cells/s | eta 3s" in text
        assert ("sweep 2/4 cells | 1 retried | 1 quarantined | "
                "1.50 cells/s | eta 1s") in text
        assert text.rstrip().endswith("done")
        renderer.close()
        assert out.getvalue().endswith("\n")

    def test_streams_through_renderer(self, tmp_path):
        out = io.StringIO()
        run_traced(tmp_path, make_cells("ok_cell", 2), jobs=2,
                   listener=TerminalRenderer(out).update)
        assert "sweep 2/2 cells" in out.getvalue()


class TestOpenMetrics:
    def test_render_openmetrics_over_sweep_dir(self, tmp_path):
        runs = str(tmp_path / "runs")
        from repro.exec import SweepCheckpoint

        cells = make_cells("ok_cell", 2)
        checkpoint = SweepCheckpoint(runs, "demo")
        checkpoint.initialise(
            config_hash="cafe", seed=0, config={}, n_cells=len(cells)
        )
        tracer = SweepTracer(checkpoint.trace_dir)
        outcome = fast_executor(1, tracer=tracer).run(
            cells, checkpoint=checkpoint
        )
        tracer.close()
        assert outcome.complete

        text = render_openmetrics(runs)
        assert text.endswith("# EOF\n")
        assert 'repro_sweep_cells{sweep="demo",state="total"} 2' in text
        assert 'repro_sweep_cells{sweep="demo",state="done"} 2' in text
        assert 'repro_sweep_cells_per_second{sweep="demo"}' in text
        assert 'repro_sweep_eta_seconds{sweep="demo"} 0.0' in text
        # HELP/TYPE framing immediately precedes each family's samples.
        lines = text.splitlines()
        for family in ("repro_sweep_cells", "repro_sweep_cells_per_second",
                       "repro_sweep_eta_seconds"):
            first = min(
                i for i, line in enumerate(lines)
                if line.startswith(family + "{")
            )
            assert lines[first - 1] == f"# TYPE {family} gauge"

    def test_scrape_leaves_a_damaged_runs_dir_untouched(self, tmp_path):
        from repro.exec import SweepCheckpoint
        from repro.exec.cells import CellResult

        runs = str(tmp_path / "runs")
        checkpoint = SweepCheckpoint(runs, "demo")
        checkpoint.initialise(config_hash="cafe", seed=0, config={},
                              n_cells=2)
        checkpoint.record(CellResult(cell_id="c0", status="ok"))
        checkpoint.close()
        with open(checkpoint.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"cell_id": "c1", "st')
        with open(os.path.join(checkpoint.dir, "snapshot.json"), "w",
                  encoding="utf-8") as fh:
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
        # The journal's intact lines answer the scrape.
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
