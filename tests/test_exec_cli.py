"""CLI surface of the parallel sweep executor and typed exit codes."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.exec.checkpoint import SweepDir
from repro.experiments.counter_figures import STACKS
from repro.experiments.runner import ExperimentContext
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
        assert {"manifest.json", "journal.jsonl"} <= set(inside)
        assert "snapshot.json" not in inside

    def test_sweep_json_mode(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert any(k.startswith("H-Grep.e5645.") for k in payload["metrics"])


class TestTamperedCheckpoint:
    def test_resume_refuses_counters_that_miss_their_metrics(self, tmp_path):
        from repro.exec import SweepCheckpoint
        from repro.obs.fsck import fsck_scan
        from repro.uarch.platforms import XEON_E5645

        runs = str(tmp_path / "runs")
        pairs = [("H-Read", XEON_E5645)]

        def prime(resume):
            checkpoint = SweepCheckpoint(runs, "fig5-h-s0")
            checkpoint.initialise(config_hash="h", seed=0,
                                  config={"scale": 0.1}, n_cells=1)
            context = ExperimentContext(scale=0.1)
            context.prime(pairs, jobs=1, checkpoint=checkpoint,
                          resume=resume)
            return context.counters("H-Read", XEON_E5645).itlb_mpki

        serial = prime(resume=False)
        assert fsck_scan(runs).clean
        # Tamper with the adopted sample only: the hash still matches.
        sweep = SweepDir(os.path.join(runs, "sweeps", "fig5-h-s0"))
        with open(sweep.journal_path) as handle:
            entries = [json.loads(line) for line in handle]
        for entry in entries:
            entry["counters"]["itlb_mpki"] = 99.0
        with open(sweep.journal_path, "w") as handle:
            handle.writelines(json.dumps(e) + "\n" for e in entries)

        findings = fsck_scan(runs).errors
        assert [f.kind for f in findings] == ["cell-hash-mismatch"]
        assert prime(resume=True) == serial != 99.0


class TestJournalOnlyCheckpoint:
    SWEEP = ["sweep", "--workloads", "H-Grep,M-Grep", "--name", "j"]

    def sweep(self, runs, *extra):
        return main(["--scale", "0.1", "--runs-dir", runs] + self.SWEEP
                    + list(extra))

    def test_leftover_snapshot_is_never_read_or_touched(self, tmp_path,
                                                        capsys):
        from tests.test_observatory import read_site

        runs = str(tmp_path / "runs")
        assert self.sweep(runs, "--jobs", "1") == 0
        serial = RunRegistry(runs).latest("sweep.j").metrics
        (name,) = os.listdir(os.path.join(runs, "sweeps"))
        sweep = SweepDir(os.path.join(runs, "sweeps", name))
        # An older checkpoint's snapshot: one cell diverges from its
        # journaled version, and a second copy is torn mid-rewrite.
        entries = [json.loads(line) for line in open(sweep.journal_path)]
        entries[0]["metrics"] = {k: v + 1.0
                                 for k, v in entries[0]["metrics"].items()}
        divergent = json.dumps({"version": 1, "cells": {
            entry["cell_id"]: entry for entry in entries
        }})
        snapshot = os.path.join(sweep.dir, "snapshot.json")

        def observe(out):
            assert main(["--runs-dir", runs, "dash", "--out",
                         str(tmp_path / out)]) == 0
            capsys.readouterr()
            assert main(["--runs-dir", runs, "metrics"]) == 0
            scrape = capsys.readouterr().out
            assert main(["--runs-dir", runs, "fsck", "--json"]) == 0
            fsck = json.loads(capsys.readouterr().out)["findings"]
            return read_site(str(tmp_path / out)), scrape, fsck

        for body in (divergent, divergent[: len(divergent) // 2]):
            if os.path.exists(snapshot):
                os.remove(snapshot)
            without = observe("without")
            with open(snapshot, "w") as handle:
                handle.write(body)
            assert observe("with") == without
            assert without[2] == []
            assert self.sweep(runs, "--jobs", "2", "--resume") == 0
            out = capsys.readouterr().out
            assert "resumed from checkpoint: 2" in out
            assert "cell executions: 0" in out
            assert open(snapshot).read() == body
            assert RunRegistry(runs).latest("sweep.j").metrics == serial

    def test_resume_reruns_exactly_the_cell_missing_from_the_journal(
            self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert self.sweep(runs, "--jobs", "1") == 0
        (name,) = os.listdir(os.path.join(runs, "sweeps"))
        sweep = SweepDir(os.path.join(runs, "sweeps", name))
        lines = open(sweep.journal_path).readlines()
        lost = json.loads(lines[0])["cell_id"]
        open(sweep.journal_path, "w").writelines(lines[1:])
        capsys.readouterr()

        assert self.sweep(runs, "--jobs", "2", "--resume") == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint: 1" in out
        assert "cell executions: 1" in out
        journal = [r.cell_id for _, r in sweep.read().journal]
        assert journal == [json.loads(lines[1])["cell_id"], lost]
        assert main(["--runs-dir", runs, "diff", "sweep.j~1", "sweep.j",
                     "--rel-threshold", "0", "--abs-threshold", "0"]) == 0


class TestPrimedVerbs:
    def test_locality_primes_no_counter_cells(self, tmp_path):
        # Figs 6-9 read no characterizations, so --jobs has nothing to
        # fan out and no sweep checkpoint is opened.
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.1", "--runs-dir", runs, "fig",
                     "locality", "--jobs", "2"]) == 0
        assert not os.path.exists(os.path.join(runs, "sweeps"))
        assert RunRegistry(runs).latest("fig-locality") is not None

    def test_stacks_primes_exactly_its_cells(self, tmp_path):
        # `stacks --jobs 2` fans out the §5.5 spec's cells, no more and
        # no fewer, and the primed record equals a serial one.
        par, ser = str(tmp_path / "par"), str(tmp_path / "ser")
        assert main(["--scale", "0.1", "--runs-dir", par, "stacks",
                     "--jobs", "2"]) == 0
        assert main(["--scale", "0.1", "--runs-dir", ser, "stacks",
                     "--jobs", "1"]) == 0
        (sweep,) = os.listdir(os.path.join(par, "sweeps"))
        journal = SweepDir(os.path.join(par, "sweeps", sweep)).read().journal
        expected = ExperimentContext(scale=0.1).counter_cells(STACKS.cells)
        assert sorted(result.cell_id for _, result in journal) == sorted(
            cell.cell_id for cell in expected)
        parallel = RunRegistry(par).latest("stacks")
        serial = RunRegistry(ser).latest("stacks")
        assert parallel.timings["exec.jobs"] == 2.0
        assert parallel.metrics == serial.metrics


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
