"""Crash-safety of sweep checkpoints and the hardened run registry."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.exec.cells import CellResult
from repro.exec.checkpoint import SweepCheckpoint, sweep_dirs, sweep_id
from repro.fsio import write_json_atomic
from repro.obs.registry import RunRegistry, quarantine_corrupt


def result_for(cell_id, value=1.0, status="ok"):
    return CellResult(
        cell_id=cell_id, status=status, metrics={"value": value},
        provenance_hash="deadbeefdeadbeef",
    )


class TestSweepCheckpoint:
    def test_journal_round_trip(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0,
                              config={"k": 1}, n_cells=3)
        for i in range(3):
            checkpoint.record(result_for(f"c{i}", value=float(i)))
        checkpoint.close()

        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert sorted(loaded) == ["c0", "c1", "c2"]
        assert loaded["c1"].metrics["value"] == 1.0
        # The journal is the one record of finished cells.
        assert sorted(os.listdir(checkpoint.dir)) == [
            "journal.jsonl", "manifest.json",
        ]

    def test_torn_journal_tail_is_dropped(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=2)
        checkpoint.record(result_for("c0"))
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "c1", "status": "o')  # crash mid-write
        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert sorted(loaded) == ["c0"]

    def test_non_object_journal_line_is_skipped(self, tmp_path):
        # A line that parses as JSON but not as an object is a bad line,
        # exactly as fsck classifies it; resume must not crash on it.
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=2)
        checkpoint.record(result_for("c0"))
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert sorted(loaded) == ["c0"]

    def test_corrupt_snapshot_falls_back_to_journal(self, tmp_path):
        # An older checkpoint's snapshot is never read, so a corrupt
        # one is neither trusted nor quarantined: the journal answers.
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=1)
        checkpoint.record(result_for("c0"))
        snapshot = os.path.join(checkpoint.dir, "snapshot.json")
        with open(snapshot, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        fresh = SweepCheckpoint(str(tmp_path), "s-h-s0")
        assert sorted(fresh.load()) == ["c0"]
        assert open(snapshot).read() == "{ not json"
        assert not os.path.exists(snapshot + ".corrupt")

    def test_resume_under_different_config_refused(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=1)
        other = SweepCheckpoint(str(tmp_path), "s-h-s0")
        with pytest.raises(CheckpointError):
            other.initialise(config_hash="DIFFERENT", seed=0, config={},
                             n_cells=1)

    def test_later_journal_entry_wins(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=1)
        checkpoint.record(result_for("c0", status="quarantined"))
        checkpoint.record(result_for("c0", value=5.0, status="ok"))
        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert loaded["c0"].status == "ok"
        assert loaded["c0"].metrics["value"] == 5.0

    def test_sweep_id_is_config_and_seed_keyed(self):
        assert sweep_id("sweep", "abc123", 7) == "sweep-abc123-s7"


class TestSweepDirRead:
    def test_read_uses_what_parses_and_reports_the_rest(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=3)
        checkpoint.record(result_for("c0"))
        checkpoint.record(result_for("c1", status="quarantined"))
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"no_cell_id": 1}\n{"cell_id": "c2", "st')
        # Older runs' progress stream and snapshot are not read.
        with open(os.path.join(checkpoint.dir, "progress.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"event": "sweep-started"}\n{"foreign": 1}\n{')
        with open(os.path.join(checkpoint.dir, "snapshot.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"cells": {"c9": {"cell_id": "c9", "st')
        open(checkpoint.trace_path, "w").write("[]")
        before = sorted(os.listdir(checkpoint.dir))

        state = checkpoint.read()
        assert sorted(os.listdir(checkpoint.dir)) == before
        assert state.manifest["n_cells"] == 3
        assert [r.cell_id for _, r in state.journal] == ["c0", "c1"]
        assert state.bad_journal_lines == [3, 4]
        assert not state.torn_journal  # line 3 is a non-cell object
        assert state.results["c1"].status == "quarantined"
        assert sorted(os.path.basename(p) for p, _ in state.damage) == [
            "journal.jsonl", "journal.jsonl", "trace.json",
        ]

    def test_load_reads_the_journal_alone(self, tmp_path, monkeypatch):
        import repro.exec.checkpoint as checkpoint_module
        import repro.exec.tracing as tracing

        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=2)
        checkpoint.record(result_for("c0"))
        checkpoint.record(result_for("c1", value=2.0))
        checkpoint.close()
        clean = {cell_id: result.to_dict() for cell_id, result
                 in SweepCheckpoint(str(tmp_path), "s-h-s0").load().items()}
        # Damaged span files, an unreadable one and a torn merged trace.
        os.makedirs(os.path.join(checkpoint.trace_dir, "w1.spans.jsonl"))
        with open(os.path.join(checkpoint.trace_dir, "w0.spans.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"name": "cell", "ts": 1}\n[1]\n{"name": "ce')
        open(checkpoint.trace_path, "w").write('{"traceEvents": [')

        def refuse(*args, **kwargs):
            raise AssertionError("load() parsed more than the journal")

        monkeypatch.setattr(tracing, "read_spans", refuse)
        monkeypatch.setattr(checkpoint_module, "_read_object", refuse)
        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert {cell_id: result.to_dict()
                for cell_id, result in loaded.items()} == clean

    def test_sweep_dirs_skip_orphans_and_files(self, tmp_path):
        root = tmp_path / "sweeps"
        for name in ("b", "a", "a.orphan", "a.orphan.1"):
            (root / name).mkdir(parents=True)
        (root / "stray.txt").write_text("x")
        assert [s.name for s in sweep_dirs(str(tmp_path))] == ["a", "b"]
        assert sweep_dirs(str(tmp_path / "absent")) == []


class TestAtomicWrites:
    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"a": 1})
        write_json_atomic(path, {"a": 2})
        assert json.load(open(path)) == {"a": 2}
        assert os.listdir(tmp_path) == ["x.json"]

    def test_quarantine_corrupt_moves_aside(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        open(path, "w").write("{ nope")
        moved = quarantine_corrupt(path)
        assert moved.endswith(".corrupt")
        assert not os.path.exists(path)
        assert "quarantined" in capsys.readouterr().err


class TestRegistryHardening:
    def test_corrupt_record_quarantined_not_fatal(self, tmp_path, capsys):
        registry = RunRegistry(str(tmp_path))
        from repro.obs.registry import RunRecord, build_provenance

        record = RunRecord(
            experiment="fig3", kind="experiment",
            metrics={"m": 1.0},
            provenance=build_provenance(
                experiment="fig3", seed=0, scale=0.3, platforms=["X"]
            ),
        )
        registry.save(record)
        # A truncated record (pre-atomic writer killed mid-write).
        bad = os.path.join(str(tmp_path), "zz-truncated.json")
        open(bad, "w").write('{"schema_version": 1, "experiment": "fi')

        records = registry.records()
        assert [r.experiment for r in records] == ["fig3"]
        assert not os.path.exists(bad)
        assert os.path.exists(bad + ".corrupt")
        assert "quarantined" in capsys.readouterr().err
        # The quarantined file is not rescanned next time.
        assert len(registry.records()) == 1

    def test_save_is_atomic_no_partials_visible(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        from repro.obs.registry import RunRecord, build_provenance

        record = RunRecord(
            experiment="fig3", kind="experiment", metrics={"m": 1.0},
            provenance=build_provenance(
                experiment="fig3", seed=0, scale=0.3, platforms=["X"]
            ),
        )
        path = registry.save(record)
        assert os.path.basename(path) in os.listdir(tmp_path)
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]


class TestDoubleTornRecovery:
    def test_torn_snapshot_and_torn_journal_together(self, tmp_path):
        # An older checkpoint's snapshot, torn mid-rewrite, beside a
        # journal torn mid-append: load() reconstructs every intact
        # cell from the journal and never opens or moves the snapshot.
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=4)
        for i in range(4):
            checkpoint.record(result_for(f"c{i}", value=float(i)))
        checkpoint.close()

        snapshot = os.path.join(checkpoint.dir, "snapshot.json")
        torn = json.dumps({"cells": {"c9": result_for("c9").to_dict()}})
        open(snapshot, "w").write(torn[: len(torn) // 2])
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "c4", "status": "o')  # torn append

        loaded = SweepCheckpoint(str(tmp_path), "s-h-s0").load()
        assert sorted(loaded) == ["c0", "c1", "c2", "c3"]
        assert loaded["c3"].metrics["value"] == 3.0
        assert open(snapshot).read() == torn[: len(torn) // 2]

    def test_resume_appends_cleanly_after_torn_tail(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=3)
        checkpoint.record(result_for("c0"))
        checkpoint.close()
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "c1", "st')  # crash mid-append

        resumed = SweepCheckpoint(str(tmp_path), "s-h-s0")
        assert sorted(resumed.load()) == ["c0"]
        resumed.record(result_for("c2"))  # JournalWriter isolates the tear
        resumed.close()
        assert sorted(SweepCheckpoint(str(tmp_path), "s-h-s0").load()) == [
            "c0", "c2"
        ]


class TestSweepLock:
    def lock_at(self, tmp_path):
        from repro.exec import SweepLock
        return SweepLock(str(tmp_path / "sweeps" / "s" / "sweep.lock"))

    def test_acquire_writes_pid_release_removes(self, tmp_path):
        lock = self.lock_at(tmp_path)
        lock.acquire()
        body = json.load(open(lock.path))
        assert body["pid"] == os.getpid()
        lock.release()
        assert not os.path.exists(lock.path)

    def test_own_pid_lock_is_broken(self, tmp_path):
        # A previous in-process owner crashed without releasing (the
        # simulated-crash path): a process cannot race itself.
        first = self.lock_at(tmp_path)
        first.acquire()  # left held deliberately
        second = self.lock_at(tmp_path)
        second.acquire()
        second.release()

    def test_dead_pid_lock_is_broken(self, tmp_path):
        lock = self.lock_at(tmp_path)
        os.makedirs(os.path.dirname(lock.path))
        json.dump({"pid": 2 ** 22 + 4321}, open(lock.path, "w"))
        lock.acquire()
        assert json.load(open(lock.path))["pid"] == os.getpid()
        lock.release()

    def test_torn_lock_body_is_broken(self, tmp_path):
        lock = self.lock_at(tmp_path)
        os.makedirs(os.path.dirname(lock.path))
        open(lock.path, "w").write('{"pi')  # torn by a crash
        lock.acquire()
        lock.release()

    def test_live_foreign_pid_refused(self, tmp_path):
        from repro.errors import SweepLockError
        lock = self.lock_at(tmp_path)
        os.makedirs(os.path.dirname(lock.path))
        json.dump({"pid": 1}, open(lock.path, "w"))  # init is always alive
        with pytest.raises(SweepLockError):
            lock.acquire()
        assert json.load(open(lock.path))["pid"] == 1  # left untouched

    def test_two_resumes_cannot_interleave(self, tmp_path):
        # Executor-level guarantee: a checkpoint whose lock is held by
        # a live foreign process refuses to run rather than interleave
        # journal appends with the other resume.
        from repro.errors import SweepLockError
        from repro.exec import SweepExecutor
        from tests.test_exec_supervisor import make_cells

        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=1)
        json.dump({"pid": 1}, open(checkpoint.lock.path, "w"))
        cells = make_cells("ok_cell", count=1)
        with pytest.raises(SweepLockError):
            SweepExecutor(jobs=1).run(cells, checkpoint=checkpoint)
        # The journal was never opened, let alone appended to.
        assert not os.path.exists(checkpoint.journal_path)

    def test_lock_released_even_when_run_fails(self, tmp_path):
        from repro.exec import SweepExecutor
        from tests.test_exec_supervisor import make_cells

        checkpoint = SweepCheckpoint(str(tmp_path), "s-h-s0")
        checkpoint.initialise(config_hash="h", seed=0, config={}, n_cells=1)
        cells = make_cells("ok_cell", count=1)
        SweepExecutor(jobs=1).run(cells, checkpoint=checkpoint)
        assert not os.path.exists(checkpoint.lock.path)
