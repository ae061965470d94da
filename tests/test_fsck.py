"""``repro fsck``: scan findings, repairs, and CLI exit codes.

Each test builds a *real* runs directory through the production
writers (SweepCheckpoint, RunRegistry), applies one characteristic
piece of crash damage by hand, and checks that the scan names it, the
repair removes it, and a subsequent checkpoint load trusts the result.
"""

import json
import os

import pytest

from repro.cli import main
from repro.exec.cells import SweepCell, run_cell
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.cells import CellResult
from repro.obs.fsck import fsck_repair, fsck_scan

PROBE_FN = "repro.analysis.crashsim.probe_cell"
SCALE = 0.25


def make_runs_dir(tmp_path, sweep="probe-h-s0", n_cells=3):
    """A legitimate runs dir: manifest + journal, real cells."""
    runs = str(tmp_path / "runs")
    checkpoint = SweepCheckpoint(runs, sweep)
    checkpoint.initialise(
        config_hash="h", seed=0,
        config={"scale": SCALE}, n_cells=n_cells,
    )
    for i in range(n_cells):
        cell = SweepCell(workload=f"w{i}", platform="e5645", scale=SCALE,
                         seed=0, fn=PROBE_FN)
        payload = run_cell(cell.to_dict())
        checkpoint.record(CellResult(
            cell_id=cell.cell_id, status="ok",
            metrics=payload["metrics"],
            provenance_hash=payload["provenance_hash"],
        ))
    checkpoint.close()
    return runs, checkpoint


def kinds(result):
    return sorted(f.kind for f in result.findings)


def repair_and_rescan(runs):
    result = fsck_scan(runs)
    fsck_repair(result)
    return fsck_scan(runs)


class TestScan:
    def test_clean_dir_is_clean(self, tmp_path):
        runs, _ = make_runs_dir(tmp_path)
        result = fsck_scan(runs)
        assert result.clean
        assert result.findings == []

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsck_scan(str(tmp_path / "nope"))

    def test_leaked_tmp_and_corrupt_record(self, tmp_path):
        runs, _ = make_runs_dir(tmp_path)
        open(os.path.join(runs, "r.json.tmp.42"), "w").write("{")
        open(os.path.join(runs, "bad.json"), "w").write("{ nope")
        result = fsck_scan(runs)
        assert kinds(result) == ["corrupt-record", "leaked-tmp"]
        assert not result.clean

    def test_torn_journal_tail(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        with open(checkpoint.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"cell_id": "w9@e5645+s0", "sta')
        result = fsck_scan(runs)
        assert "torn-journal" in kinds(result)

    def test_mid_journal_corruption_is_not_torn(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        lines = open(checkpoint.journal_path).read().splitlines()
        lines[0] = lines[0][:10]  # corrupt a *middle* entry
        open(checkpoint.journal_path, "w").write("\n".join(lines) + "\n")
        result = fsck_scan(runs)
        assert "corrupt-journal-entry" in kinds(result)
        assert "torn-journal" not in kinds(result)

    def test_cell_hash_mismatch(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        lines = open(checkpoint.journal_path).read().splitlines()
        entry = json.loads(lines[0])
        entry["metrics"]["value"] = entry["metrics"]["value"] + 99.0
        lines[0] = json.dumps(entry, sort_keys=True,
                              separators=(",", ":"))
        open(checkpoint.journal_path, "w").write("\n".join(lines) + "\n")
        result = fsck_scan(runs)
        assert "cell-hash-mismatch" in kinds(result)

    def test_snapshot_divergence_and_snapshot_only(self, tmp_path):
        # Older checkpoints kept a snapshot of the journal's cells.  One
        # with a divergent cell, a cell the journal lacks, or a torn
        # body is an unread file now, not a finding.
        runs, checkpoint = make_runs_dir(tmp_path)
        entries = [json.loads(line) for line in open(checkpoint.journal_path)]
        entries[0]["attempts"] = 42
        entries.append(dict(entries[1], cell_id="w9@e5645+s0"))
        divergent = json.dumps({"version": 1, "cells": {
            entry["cell_id"]: entry for entry in entries
        }})
        snapshot = os.path.join(checkpoint.dir, "snapshot.json")
        for body in (divergent, divergent[: len(divergent) // 2]):
            open(snapshot, "w").write(body)
            result = fsck_scan(runs)
            assert result.findings == []
            fsck_repair(result)
            assert open(snapshot).read() == body

    def test_stale_vs_live_lock(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        lock = os.path.join(checkpoint.dir, "sweep.lock")
        # pid 1 is alive in any environment: a live (foreign) lock.
        json.dump({"pid": 1}, open(lock, "w"))
        result = fsck_scan(runs)
        assert "live-lock" in kinds(result)
        assert result.clean  # live lock is a note
        # A pid that cannot exist: stale, an error.
        json.dump({"pid": 2 ** 22 + 12345}, open(lock, "w"))
        result = fsck_scan(runs)
        assert "stale-lock" in kinds(result)
        assert not result.clean
        # Our own pid: a dead in-process owner (simulated crash), stale.
        json.dump({"pid": os.getpid()}, open(lock, "w"))
        assert "stale-lock" in kinds(fsck_scan(runs))

    def test_orphaned_sweep_dir(self, tmp_path):
        runs, _ = make_runs_dir(tmp_path)
        orphan = os.path.join(runs, "sweeps", "empty-h-s9")
        os.makedirs(orphan)
        open(os.path.join(orphan, "random.txt"), "w").write("x")
        result = fsck_scan(runs)
        assert "orphaned-sweep" in kinds(result)

    def test_torn_span_is_a_note_and_progress_file_is_ignored(
            self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        # A leftover progress stream of an older run is no artifact.
        progress = os.path.join(checkpoint.dir, "progress.jsonl")
        open(progress, "w").write('{"event": "sweep-started"}\n{"ev')
        trace_dir = os.path.join(checkpoint.dir, "trace")
        os.makedirs(trace_dir)
        span = os.path.join(trace_dir, "supervisor-1.spans.jsonl")
        open(span, "w").write('{"kind": "span"}\n{"ki')
        result = fsck_scan(runs)
        assert not any(f.path == progress for f in result.findings)
        assert "torn-span" in kinds(result)
        assert result.clean  # best-effort tier damage never fails fsck
        # The repair also drops the span line without a lane and times.
        assert "torn-span" not in kinds(repair_and_rescan(runs))
        assert open(span).read() == ""


class TestRepair:
    def test_torn_snapshot_and_torn_journal_same_dir(self, tmp_path):
        # A torn journal beside an older checkpoint's torn snapshot:
        # fsck repairs the journal, leaves the snapshot be, and load()
        # trusts the result.
        runs, checkpoint = make_runs_dir(tmp_path)
        with open(checkpoint.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"cell_id": "w9@e5645+s0", "sta')  # torn append
        snapshot = os.path.join(checkpoint.dir, "snapshot.json")
        open(snapshot, "w").write('{"cells": {"w0@e5645+s0": {"ce')
        result = fsck_scan(runs)
        assert kinds(result) == ["torn-journal"]
        after = repair_and_rescan(runs)
        assert after.findings == []
        assert open(snapshot).read() == '{"cells": {"w0@e5645+s0": {"ce'
        loaded = SweepCheckpoint(runs, checkpoint.sweep).load()
        assert sorted(loaded) == [
            "w0@e5645+s0", "w1@e5645+s0", "w2@e5645+s0"
        ]

    def test_repair_each_error_kind_to_clean(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        # Pile up one of everything.
        open(os.path.join(runs, "r.json.tmp.42"), "w").write("{")
        open(os.path.join(runs, "bad.json"), "w").write("{ nope")
        with open(checkpoint.journal_path, "a", encoding="utf-8") as fh:
            fh.write("{torn")
        lock = os.path.join(checkpoint.dir, "sweep.lock")
        json.dump({"pid": 2 ** 22 + 999}, open(lock, "w"))
        orphan = os.path.join(runs, "sweeps", "empty-h-s9")
        os.makedirs(orphan)
        open(os.path.join(orphan, "junk"), "w").write("x")

        first = fsck_scan(runs)
        assert not first.clean
        fsck_repair(first)
        assert all(f.repaired for f in first.errors)
        after = fsck_scan(runs)
        assert after.clean
        # Evidence is kept, not destroyed.
        assert [f.kind for f in after.notes].count(
            "quarantined-artifact") >= 2

    def test_hash_mismatch_repair_drops_only_bad_cells(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        lines = open(checkpoint.journal_path).read().splitlines()
        entry = json.loads(lines[1])
        entry["metrics"]["value"] = -1.0
        lines[1] = json.dumps(entry, sort_keys=True,
                              separators=(",", ":"))
        open(checkpoint.journal_path, "w").write("\n".join(lines) + "\n")
        after = repair_and_rescan(runs)
        assert after.clean
        loaded = SweepCheckpoint(runs, checkpoint.sweep).load()
        # The tampered cell is gone (it will rerun); the others survive.
        assert sorted(loaded) == ["w0@e5645+s0", "w2@e5645+s0"]

    def test_repair_is_idempotent(self, tmp_path):
        runs, checkpoint = make_runs_dir(tmp_path)
        with open(checkpoint.journal_path, "a", encoding="utf-8") as fh:
            fh.write("{torn")
        assert repair_and_rescan(runs).clean
        assert repair_and_rescan(runs).clean  # second pass: no-op


class TestFsckCli:
    def test_exit_codes_match_diff_conventions(self, tmp_path, monkeypatch,
                                               capsys):
        runs = str(tmp_path / "r")
        monkeypatch.setenv("REPRO_RUNS_DIR", runs)
        assert main(["fsck"]) == 3  # missing dir
        make_runs_dir(tmp_path, sweep="s-h-s0")
        runs_real = str(tmp_path / "runs")
        assert main(["--runs-dir", runs_real, "fsck"]) == 0
        open(os.path.join(runs_real, "bad.json"), "w").write("{")
        assert main(["--runs-dir", runs_real, "fsck"]) == 1
        assert main(["--runs-dir", runs_real, "fsck", "--repair"]) == 0
        assert main(["--runs-dir", runs_real, "fsck"]) == 0
        capsys.readouterr()

    def test_json_payload_shape(self, tmp_path, capsys):
        runs, _ = make_runs_dir(tmp_path)
        open(os.path.join(runs, "bad.json"), "w").write("{")
        assert main(["--runs-dir", runs, "fsck", "--json",
                     "--repair"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False  # the pre-repair scan
        assert payload["post_repair"]["clean"] is True
        assert payload["findings"][0]["kind"] == "corrupt-record"
        assert payload["findings"][0]["repaired"] is True
