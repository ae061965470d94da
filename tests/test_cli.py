"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_scale_flag(self):
        args = build_parser().parse_args(["--scale", "0.2", "list"])
        assert args.scale == 0.2

    def test_platform_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "S-WordCount", "--platform", "m1"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "S-WordCount"])
        assert args.command == "trace"
        assert args.out == "trace.json"
        assert args.sample_interval is None

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "S-WordCount", "--out", "t.json", "--sample-interval", "0.05"]
        )
        assert args.out == "t.json"
        assert args.sample_interval == 0.05

    def test_run_seed_flag(self):
        args = build_parser().parse_args(["run", "S-WordCount", "--seed", "9"])
        assert args.seed == 9

    def test_runs_dir_and_no_record(self):
        args = build_parser().parse_args(
            ["--runs-dir", "/tmp/r", "--no-record", "list"]
        )
        assert args.runs_dir == "/tmp/r"
        assert args.no_record

    def test_uniform_json_flags(self):
        for command in (["reduce"], ["stacks"], ["system"]):
            args = build_parser().parse_args(command + ["--json"])
            assert args.json

    def test_report_diff_history_parse(self):
        args = build_parser().parse_args(["report", "--strict"])
        assert args.command == "report" and args.strict
        args = build_parser().parse_args(
            ["diff", "a.json", "fig3~1", "--rel-threshold", "0.1"]
        )
        assert args.run_a == "a.json"
        assert args.run_b == "fig3~1"
        assert args.rel_threshold == 0.1
        args = build_parser().parse_args(
            ["history", "fig3", "--metric", "bigdata.ipc", "--html"]
        )
        assert args.experiment == "fig3"
        assert args.metric == ["bigdata.ipc"]
        assert args.html


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "H-Read" in output
        assert "77 catalog workloads" in output

    def test_run_workload(self, capsys):
        assert main(["--scale", "0.2", "run", "H-Grep"]) == 0
        output = capsys.readouterr().out
        assert "l1i_mpki" in output

    def test_run_on_atom(self, capsys):
        assert main(["--scale", "0.2", "run", "M-Grep", "--platform", "d510"]) == 0
        assert "Atom" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["fig", "12"]) == 2

    def test_unknown_table(self, capsys):
        assert main(["table", "9"]) == 2

    def test_unknown_workload_exits_2_with_typed_error(self, capsys):
        # The repro.errors.UsageError family maps to exit 2, one line,
        # no traceback — uniformly across verbs.
        assert main(["run", "Nope"]) == 2
        err = capsys.readouterr().err
        assert "UnknownWorkloadError" in err
        assert "Nope" in err

    def test_lookup_still_raises_keyerror_for_library_callers(self):
        from repro.workloads import workload

        with pytest.raises(KeyError):
            workload("Nope")

    def test_run_json(self, capsys):
        import json

        assert main(["--scale", "0.2", "run", "H-Grep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "H-Grep"
        assert "l1i_mpki" in payload["metrics"]
        assert payload["seed"] == 0
        assert payload["run_id"].startswith("run.H-Grep-")

    def test_run_writes_record(self, tmp_path, capsys):
        from repro.obs.registry import RunRegistry

        runs = str(tmp_path / "runs")
        assert main(
            ["--scale", "0.2", "--runs-dir", runs, "run", "H-Grep",
             "--seed", "4"]
        ) == 0
        assert "recorded" in capsys.readouterr().out
        record = RunRegistry(runs).latest("run.H-Grep")
        assert record is not None
        assert record.provenance["seed"] == 4
        assert record.kind == "run"
        assert "l1i_mpki" in record.metrics

    def test_system_json_emits_record_schema(self, tmp_path, capsys):
        import json

        runs = str(tmp_path / "runs")
        assert main(
            ["--scale", "0.2", "--runs-dir", runs, "system", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["experiment"] == "system"
        assert "summary.match_ratio" in payload["metrics"]
        assert payload["provenance"]["scale"] == 0.2

    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(
            ["--scale", "0.2", "trace", "S-WordCount",
             "--out", str(out), "--sample-interval", "0.05"]
        ) == 0
        assert "Perfetto" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X", "C"} <= phases


class TestClosedStdout:
    """A reader that closes stdout early gets exit 141, not a traceback."""

    @staticmethod
    def spawn(args, stdout):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        ))
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + args,
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )

    def test_reader_closes_after_one_line(self):
        proc = self.spawn(["list"], subprocess.PIPE)
        assert proc.stdout.readline().startswith("workload")
        proc.stdout.close()
        stderr = proc.stderr.read()
        # Whether the rest of the output fit in the pipe first is a race.
        assert proc.wait(timeout=60) in (0, 141)
        assert "Traceback" not in stderr

    def test_closed_pipe_exits_141_after_saving_the_record(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        runs = str(tmp_path / "runs")
        proc = self.spawn(["--runs-dir", runs, "table", "1"], write_end)
        os.close(write_end)
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == ""
        assert any(name.startswith("table1-") for name in os.listdir(runs))
