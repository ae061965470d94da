"""CLI surface of the parallel sweep executor and typed exit codes."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.obs.registry import RunRegistry


class TestSweepVerb:
    def test_parallel_sweep_matches_serial_bitwise(self, tmp_path):
        runs = str(tmp_path / "runs")
        base = ["--scale", "0.15", "--runs-dir", runs, "sweep",
                "--workloads", "H-Grep"]
        assert main(base + ["--jobs", "1", "--name", "serial"]) == 0
        assert main(base + ["--jobs", "2", "--name", "par"]) == 0
        registry = RunRegistry(runs)
        serial = registry.latest("sweep.serial")
        parallel = registry.latest("sweep.par")
        assert (
            json.dumps(serial.metrics, sort_keys=True)
            == json.dumps(parallel.metrics, sort_keys=True)
        )
        assert parallel.kind == "sweep"
        # Telemetry is quarantined in timings, never in metrics.
        assert parallel.timings["exec.jobs"] == 2.0
        assert not any(k.startswith("exec.") for k in parallel.metrics)

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        base = ["--scale", "0.15", "--runs-dir", runs, "sweep",
                "--workloads", "H-Grep", "--name", "r"]
        assert main(base + ["--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(base + ["--jobs", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint: 1" in out
        assert "cell executions: 0" in out

    def test_checkpoint_laid_out_under_sweeps(self, tmp_path):
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--name", "ck"]) == 0
        sweeps = os.listdir(os.path.join(runs, "sweeps"))
        assert len(sweeps) == 1
        assert sweeps[0].startswith("ck-")
        inside = os.listdir(os.path.join(runs, "sweeps", sweeps[0]))
        assert {"manifest.json", "journal.jsonl", "snapshot.json"} <= set(inside)

    def test_sweep_json_mode(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert any(k.startswith("H-Grep.e5645.") for k in payload["metrics"])


class TestPrimedVerbs:
    def test_locality_primes_no_counter_cells(self, tmp_path):
        # Figs 6-9 read no characterizations, so --jobs has nothing to
        # fan out and no sweep checkpoint is opened.
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.1", "--runs-dir", runs, "fig",
                     "locality", "--jobs", "2"]) == 0
        assert not os.path.exists(os.path.join(runs, "sweeps"))
        assert RunRegistry(runs).latest("fig-locality") is not None


class TestTypedExitCodes:
    def test_unknown_workload_in_sweep(self, capsys):
        assert main(["sweep", "--workloads", "NoSuch"]) == 2
        assert "UnknownWorkloadError" in capsys.readouterr().err

    def test_unknown_platform(self, capsys):
        assert main(["sweep", "--workloads", "H-Grep",
                     "--platforms", "m1"]) == 2
        assert "InvalidParameterError" in capsys.readouterr().err

    def test_invalid_scale(self, capsys):
        assert main(["--scale", "-0.5", "list"]) == 2
        assert "InvalidParameterError" in capsys.readouterr().err

    def test_invalid_seed(self, capsys):
        assert main(["run", "H-Grep", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_invalid_jobs_and_cell_timeout(self, capsys):
        assert main(["sweep", "--workloads", "H-Grep", "--jobs", "0"]) == 2
        assert main(["sweep", "--workloads", "H-Grep",
                     "--cell-timeout", "0"]) == 2

    def test_missing_replay_file(self, capsys):
        assert main(["chaos", "--replay", "/nope/missing.json"]) == 2
        assert "ReplayFileError" in capsys.readouterr().err

    def test_malformed_replay_file(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{ not json")
        assert main(["chaos", "--replay", bad]) == 2
        assert "ReplayFileError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--k", "0"],
        ["reduce", "--k", "78"],
        ["trace", "H-Grep", "--sample-interval", "0"],
        ["trace", "H-Grep", "--sample-interval", "-0.5"],
        ["chaos", "--workloads", "nope"],
        ["chaos", "--stacks", "Nope"],
        ["crashsim", "--max-points", "-1"],
        ["crashsim", "--errno-points", "-1"],
        ["crashsim", "--fsync-lie-points", "-1"],
        ["crashsim", "--max-points", "0", "--errno-points", "0",
         "--fsync-lie-points", "0"],
        ["diff", "a", "b", "--rel-threshold", "-0.1"],
        ["diff", "a", "b", "--abs-threshold", "-1"],
    ])
    def test_bad_value_is_refused_before_any_work(self, argv, tmp_path,
                                                   capsys):
        runs = tmp_path / "runs"
        start = time.perf_counter()
        assert main(["--runs-dir", str(runs)] + argv) == 2
        # Faster than any characterization: the check ran first.
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameterError: ")
        assert err.count("\n") == 1
        assert not runs.exists()
