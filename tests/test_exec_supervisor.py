"""Failure-path coverage for the supervised sweep executor.

Exercises every resilience mechanism with deliberately misbehaving
cells (``tests.test_exec_cells``): worker SIGKILL mid-cell, cell timeout,
frozen-worker stall detection, poison-cell quarantine, degradation to
serial, and checkpoint resume with byte-identical merges.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import CellIntegrityError, ExecError
from repro.exec import (
    SweepCell,
    SweepCheckpoint,
    SweepExecutor,
    merge_results,
)
from repro.exec.pool import HEARTBEAT_INTERVAL


def make_cells(fn, count=3, tmp_path=None, **extra):
    if tmp_path is not None:
        extra["dir"] = str(tmp_path)
    return [
        SweepCell(
            workload=f"w{i}", platform="e5645", scale=0.1, seed=i,
            fn=f"tests.test_exec_cells.{fn}",
            extra=tuple(sorted(extra.items())),
        )
        for i in range(count)
    ]


def attempts_of(tmp_path, cell):
    name = cell.cell_id.replace("/", "_").replace("@", "_")
    path = os.path.join(str(tmp_path), f"{name}.attempts")
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return int(handle.read())


def fast_executor(jobs, **overrides):
    options = dict(
        cell_timeout=30.0,
        backoff_base=0.01,
        backoff_cap=0.05,
        heartbeat_interval=0.1,
        stall_timeout=1.0,
    )
    options.update(overrides)
    return SweepExecutor(jobs=jobs, **options)


class TestHappyPath:
    def test_parallel_merge_matches_serial_bitwise(self, tmp_path):
        cells = make_cells("ok_cell", count=6, tmp_path=tmp_path / "a")
        os.makedirs(tmp_path / "a")
        serial = SweepExecutor(jobs=1).run(cells)
        parallel = fast_executor(3).run(cells)
        merged_serial = merge_results(cells, serial.results)
        merged_parallel = merge_results(cells, parallel.results)
        assert (
            json.dumps(merged_serial, sort_keys=True)
            == json.dumps(merged_parallel, sort_keys=True)
        )
        assert parallel.complete
        assert parallel.telemetry["cells_ok"] == 6

    def test_merge_requires_every_cell(self):
        cells = make_cells("ok_cell", count=2)
        outcome = SweepExecutor(jobs=1).run(cells[:1])
        with pytest.raises(ExecError):
            merge_results(cells, outcome.results)


class TestRetryAndQuarantine:
    def test_flaky_cell_retried_then_succeeds(self, tmp_path):
        cells = make_cells("flaky_cell", count=1, tmp_path=tmp_path,
                           fail_times=2)
        outcome = fast_executor(2).run(cells)
        assert outcome.complete
        result = outcome.results[cells[0].cell_id]
        assert result.attempts == 3
        assert outcome.telemetry["cells_retried"] == 2
        assert attempts_of(tmp_path, cells[0]) == 3

    def test_poison_cell_quarantined_after_k_identical_failures(
            self, tmp_path):
        poisoned = make_cells("crash_cell", count=1, tmp_path=tmp_path)
        healthy = make_cells("ok_cell", count=2, tmp_path=tmp_path)
        cells = poisoned + healthy
        outcome = fast_executor(2, poison_k=3, max_attempts=10).run(cells)
        assert not outcome.complete
        tombstone = outcome.quarantined[poisoned[0].cell_id]
        assert tombstone.status == "quarantined"
        assert tombstone.attempts == 3  # K identical failures, not 10
        assert len(set(tombstone.failures)) == 1
        assert "deterministic boom" in tombstone.failures[0]
        # The healthy cells finished despite the poison cell.
        for cell in healthy:
            assert cell.cell_id in outcome.results
        assert outcome.telemetry["cells_quarantined"] == 1

    def test_attempt_budget_quarantines_diverse_failures(self, tmp_path):
        cells = make_cells("flaky_cell", count=1, tmp_path=tmp_path,
                           fail_times=50)
        outcome = fast_executor(2, poison_k=99, max_attempts=4).run(cells)
        tombstone = outcome.quarantined[cells[0].cell_id]
        assert tombstone.attempts == 4

    def test_serial_mode_applies_same_policy(self, tmp_path):
        cells = make_cells("crash_cell", count=1, tmp_path=tmp_path)
        outcome = fast_executor(1, poison_k=3).run(cells)
        assert cells[0].cell_id in outcome.quarantined
        assert attempts_of(tmp_path, cells[0]) == 3


class TestWorkerFailures:
    def test_sigkill_mid_cell_restarts_worker_and_retries(self, tmp_path):
        cells = make_cells("sigkill_once_cell", count=2, tmp_path=tmp_path)
        outcome = fast_executor(2).run(cells)
        assert outcome.complete
        assert outcome.telemetry["worker_crashes"] >= 2
        assert outcome.telemetry["worker_restarts"] >= 2
        for cell in cells:
            assert outcome.results[cell.cell_id].metrics["value"] == 7.0

    def test_cell_timeout_sigkills_and_retries(self, tmp_path):
        cells = make_cells("hang_once_cell", count=1, tmp_path=tmp_path)
        outcome = fast_executor(2, cell_timeout=1.0).run(cells)
        assert outcome.complete
        assert outcome.telemetry["timeouts"] >= 1
        assert outcome.results[cells[0].cell_id].metrics["value"] == 5.0

    def test_frozen_worker_detected_by_missing_heartbeats(self, tmp_path):
        cells = make_cells("freeze_once_cell", count=1, tmp_path=tmp_path)
        # Generous cell timeout: only stall detection can catch this.
        # Ample attempts: on a loaded machine a fresh worker can be
        # starved past the stall window and killed again (an infra
        # failure, so it retries rather than poisoning the cell).
        outcome = fast_executor(2, cell_timeout=120.0, stall_timeout=0.8,
                                max_attempts=10).run(cells)
        assert outcome.complete
        assert outcome.telemetry["stalls"] >= 1
        assert outcome.results[cells[0].cell_id].metrics["value"] == 9.0

    def test_degrades_to_serial_when_workers_keep_dying(self, tmp_path):
        cells = make_cells("kill_worker_cell", count=3, tmp_path=tmp_path,
                           main_pid=os.getpid())
        outcome = fast_executor(2, degrade_after=2, max_attempts=50,
                                poison_k=99).run(cells)
        assert outcome.complete
        assert outcome.telemetry["degraded_serial"] == 1.0
        for cell in cells:
            assert outcome.results[cell.cell_id].metrics["value"] == 3.0


class TestCheckpointResume:
    def test_resume_after_interruption_is_byte_identical(self, tmp_path):
        state = tmp_path / "state"
        os.makedirs(state)
        cells = make_cells("ok_cell", count=6, tmp_path=state)

        # Uninterrupted serial reference.
        reference = merge_results(
            cells, SweepExecutor(jobs=1).run(cells).results
        )

        # "Crash" partway: only half the cells got journaled, and the
        # journal has a torn final line from the dying supervisor.
        checkpoint = SweepCheckpoint(str(tmp_path / "runs"), "t-abc-s0")
        checkpoint.initialise(config_hash="abc", seed=0, config={},
                              n_cells=len(cells))
        fast_executor(2).run(cells[:3], checkpoint=checkpoint)
        with open(checkpoint.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "w9@e5645+s9", "status"')  # torn

        # Resume with the full matrix: only the incomplete cells run.
        resumed_checkpoint = SweepCheckpoint(
            str(tmp_path / "runs"), "t-abc-s0"
        )
        outcome = fast_executor(2).run(
            cells, checkpoint=resumed_checkpoint, resume=True
        )
        assert outcome.telemetry["cells_from_checkpoint"] == 3
        assert outcome.telemetry["cells_run"] == 3
        for cell in cells[:3]:  # not re-executed after resume
            assert attempts_of(state, cell) == 2  # serial ref + first run
        merged = merge_results(cells, outcome.results)
        assert (
            json.dumps(merged, sort_keys=True)
            == json.dumps(reference, sort_keys=True)
        )

    def test_quarantined_cells_rerun_on_resume(self, tmp_path):
        state = tmp_path / "state"
        os.makedirs(state)
        cells = make_cells("flaky_cell", count=1, tmp_path=state,
                           fail_times=2)
        runs = str(tmp_path / "runs")
        checkpoint = SweepCheckpoint(runs, "q-abc-s0")
        checkpoint.initialise(config_hash="abc", seed=0, config={},
                              n_cells=1)
        first = fast_executor(1, max_attempts=2, poison_k=99).run(
            cells, checkpoint=checkpoint
        )
        assert cells[0].cell_id in first.quarantined

        second = fast_executor(1, max_attempts=2, poison_k=99).run(
            cells, checkpoint=SweepCheckpoint(runs, "q-abc-s0"), resume=True
        )
        assert second.complete  # third attempt overall succeeds
        assert second.results[cells[0].cell_id].metrics["value"] == 42.0

    def test_resume_ignores_a_leftover_progress_file(self, tmp_path):
        runs = str(tmp_path / "runs")
        cells = make_cells("ok_cell", count=2)
        checkpoint = SweepCheckpoint(runs, "left-abc-s0")
        checkpoint.initialise(config_hash="abc", seed=0, config={},
                              n_cells=2)
        SweepExecutor(jobs=1).run(cells, checkpoint=checkpoint)
        # Older runs streamed progress to this file; nothing reads it.
        with open(os.path.join(checkpoint.dir, "progress.jsonl"), "w") as fh:
            fh.write('{"event": "cell-finished", "done": 9}\n{"ev')
        resumed = SweepExecutor(jobs=1).run(
            cells, checkpoint=SweepCheckpoint(runs, "left-abc-s0"),
            resume=True,
        )
        assert resumed.telemetry["cells_from_checkpoint"] == 2.0
        assert resumed.telemetry["cells_run"] == 0.0


class TestMergeIntegrity:
    def test_tampered_metrics_fail_provenance_validation(self, tmp_path):
        state = tmp_path / "state"
        os.makedirs(state)
        cells = make_cells("ok_cell", count=1, tmp_path=state)
        outcome = SweepExecutor(jobs=1).run(cells)
        result = outcome.results[cells[0].cell_id]
        result.metrics["value"] += 1.0  # bit flip
        with pytest.raises(CellIntegrityError):
            merge_results(cells, outcome.results)

    def test_foreign_cell_result_rejected(self, tmp_path):
        state = tmp_path / "state"
        os.makedirs(state)
        cells = make_cells("ok_cell", count=2, tmp_path=state)
        outcome = SweepExecutor(jobs=1).run(cells)
        # Swap two results: each hash binds to the wrong spec now.
        a, b = cells[0].cell_id, cells[1].cell_id
        outcome.results[a], outcome.results[b] = (
            outcome.results[b], outcome.results[a],
        )
        outcome.results[a].cell_id = a
        outcome.results[b].cell_id = b
        with pytest.raises(CellIntegrityError):
            merge_results(cells, outcome.results)


def _process_table():
    """pid -> (state, ppid) for every process, read from /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        table[int(entry)] = (fields[0], int(fields[1]))
    return table


def _running(pids):
    table = _process_table()
    return [pid for pid in pids if table.get(pid, ("X",))[0] not in "ZX"]


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads the process table from /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_supervisor_is_sigkilled(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        supervisor = subprocess.Popen(
            [sys.executable, "-m", "repro", "--scale", "0.2",
             "--runs-dir", str(tmp_path), "sweep",
             "--workloads", "H-Grep,S-WordCount,M-Grep",
             "--jobs", "2", "--name", "orphans"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            give_up = time.monotonic() + 60
            workers = []
            while len(workers) < 2 and time.monotonic() < give_up:
                time.sleep(0.05)
                workers = [pid for pid, (_, ppid) in _process_table().items()
                           if ppid == supervisor.pid]
            assert len(workers) >= 2, "the sweep never forked its workers"
        finally:
            supervisor.kill()
            supervisor.wait()
        bound = time.monotonic() + 4 * HEARTBEAT_INTERVAL + 3.0
        while _running(workers) and time.monotonic() < bound:
            time.sleep(0.05)
        survivors = _running(workers)
        for pid in survivors:
            os.kill(pid, 9)
        assert survivors == [], "workers outlived their supervisor"
