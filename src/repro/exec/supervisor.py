"""The supervised process-pool executor for sweep cells.

:class:`SweepExecutor` runs a list of independent seeded cells across N
forked workers and is robust by construction:

- **timeouts** — every in-flight cell has a wall-clock deadline; past
  it the worker is SIGKILLed (no grace: cells are side-effect free and
  deterministic, rerunning is always safe);
- **hang detection** — workers heartbeat while a cell runs; a busy
  worker that stops beating (SIGSTOPped, deadlocked outside the
  interpreter, or silently dead) is killed well before the deadline;
- **retry with capped exponential backoff** — a failed, timed-out or
  orphaned cell is requeued after ``base * 2**(attempt-1)`` seconds,
  capped, so a transiently sick machine is not hammered;
- **poison-cell quarantine** — a cell that fails the same way K times
  in a row is deterministically broken, not unlucky: it is quarantined
  (journaled with its failure signatures) and the sweep continues, so
  one bad cell cannot starve the fleet;
- **graceful degradation** — if workers keep dying (a fork-hostile
  environment, OOM kills), the pool is torn down and the remaining
  cells run serially in-process, which cannot lose work to IPC;
- **checkpointing** — every finished cell is durably journaled before
  it is counted, so a SIGKILL of the whole sweep loses only in-flight
  cells and ``--resume`` restarts exactly the incomplete ones, plus
  any journaled cell that fails :func:`~repro.exec.cells.cell_intact`.

Determinism: cells are seeded and side-effect free, so the merged
result of any schedule — serial, parallel, crashed-and-resumed — is
bit-identical; :mod:`repro.exec.merge` enforces it via provenance
hashes.

Observability (default off, strictly passive): ``tracer``, a
:class:`repro.exec.tracing.SweepTracer`, is the one record of a
sweep's execution.  The supervisor records each moment once: queue-wait
spans and *killed* attempts on worker lanes (a SIGKILLed worker cannot
write its own final span), and on its own lane the run's start, one
commit instant per journaled cell, retry/quarantine/degraded-serial
instants and the whole-sweep span.  Workers record their boot and run
spans themselves.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence

from repro.exec.cells import CellResult, SweepCell, cell_intact, run_cell
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.pool import (
    HEARTBEAT_INTERVAL,
    WorkerHandle,
    spawn_worker,
)
from repro.exec.tracing import COMMIT, SWEEP_STARTED

#: Default per-cell wall-clock timeout (seconds).
DEFAULT_CELL_TIMEOUT = 300.0

#: Total attempts a cell gets before it is quarantined regardless of
#: failure diversity.
DEFAULT_MAX_ATTEMPTS = 5

#: Identical consecutive failures that mark a cell as poison.
DEFAULT_POISON_K = 3

#: Exponential-backoff base and cap (seconds).
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0

#: A busy worker silent for this long is considered hung.
DEFAULT_STALL_TIMEOUT = 5.0


@dataclass
class SweepOutcome:
    """What a sweep produced: completed cells, casualties, telemetry."""

    results: Dict[str, CellResult] = field(default_factory=dict)
    quarantined: Dict[str, CellResult] = field(default_factory=dict)
    telemetry: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def render_quarantine(self) -> str:
        lines = []
        for cell_id, result in sorted(self.quarantined.items()):
            sigs = "; ".join(result.failures[-3:]) or "unknown"
            lines.append(
                f"  {cell_id}: quarantined after {result.attempts} "
                f"attempt(s) — {sigs}"
            )
        return "\n".join(lines)


class SweepExecutor:
    """Supervised execution of independent cells across N processes."""

    def __init__(
        self,
        jobs: int = 1,
        *,
        cell_timeout: Optional[float] = DEFAULT_CELL_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poison_k: int = DEFAULT_POISON_K,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        degrade_after: Optional[int] = None,
        tracer=None,
    ):
        self.jobs = max(1, int(jobs))
        self.cell_timeout = cell_timeout
        self.max_attempts = max(1, int(max_attempts))
        self.poison_k = max(1, int(poison_k))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = max(stall_timeout, 4 * heartbeat_interval)
        #: Worker restarts tolerated before degrading to serial.
        self.degrade_after = (
            degrade_after if degrade_after is not None else 2 * self.jobs + 2
        )
        self.tracer = tracer

    # ---- public entry points ---------------------------------------------
    def run(
        self,
        cells: Sequence[SweepCell],
        checkpoint: Optional[SweepCheckpoint] = None,
        resume: bool = False,
    ) -> SweepOutcome:
        """Execute the cells, honouring and feeding the checkpoint.

        When a checkpoint is attached, its advisory lock is held for
        the whole run: a second executor (a concurrent ``--resume`` of
        the same sweep) fails fast with
        :class:`~repro.errors.SweepLockError` instead of interleaving
        journal appends.  A crashed run leaves a stale lock behind;
        the next acquire detects the dead holder and breaks it.
        """
        if checkpoint is not None:
            checkpoint.lock.acquire()
        try:
            return self._run_locked(cells, checkpoint, resume)
        finally:
            if checkpoint is not None:
                # Best-effort: a simulated crash mid-release leaves the
                # stale lock exactly as a real dead process would.
                checkpoint.lock.release()

    def _run_locked(
        self,
        cells: Sequence[SweepCell],
        checkpoint: Optional[SweepCheckpoint],
        resume: bool,
    ) -> SweepOutcome:
        started = time.perf_counter()
        started_wall = time.time()
        outcome = SweepOutcome()
        telemetry = outcome.telemetry
        for key in ("cells_run", "cells_ok", "cells_retried",
                    "cells_quarantined", "cells_from_checkpoint",
                    "timeouts", "stalls", "worker_crashes",
                    "worker_restarts", "degraded_serial", "queue_wait_s"):
            telemetry[key] = 0.0
        telemetry["jobs"] = float(self.jobs)
        telemetry["cells_total"] = float(len(cells))

        specs = {cell.cell_id: cell.to_dict() for cell in cells}
        todo: List[dict] = [cell.to_dict() for cell in cells]
        if checkpoint is not None and resume:
            # A journaled cell that fails the integrity rule reruns, as
            # a missing one does; the merge would refuse it anyway.
            prior = checkpoint.load()
            for cell_id, result in prior.items():
                if cell_id not in specs or result.status != "ok":
                    continue
                if cell_intact(specs[cell_id], result):
                    outcome.results[cell_id] = result
                    telemetry["cells_from_checkpoint"] += 1
            todo = [
                spec for spec in todo
                if spec["cell_id"] not in outcome.results
            ]

        if self.tracer is not None:
            self.tracer.instant(
                SWEEP_STARTED, "sweep", started_wall, total=len(cells),
                todo=len(todo), jobs=self.jobs,
                from_checkpoint=int(telemetry["cells_from_checkpoint"]),
            )
        if todo:
            if self.jobs == 1:
                self._run_serial(todo, checkpoint, outcome)
            else:
                self._run_pool(todo, checkpoint, outcome)
        if checkpoint is not None:
            checkpoint.close()
        telemetry["cells_quarantined"] = float(len(outcome.quarantined))
        telemetry["wall_s"] = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.span(
                "sweep", "sweep", started_wall, time.time(),
                cells=len(cells), jobs=self.jobs,
                quarantined=len(outcome.quarantined),
            )
        return outcome

    # ---- serial path ------------------------------------------------------
    def _run_serial(self, todo: List[dict],
                    checkpoint: Optional[SweepCheckpoint],
                    outcome: SweepOutcome,
                    attempts: Optional[Dict[str, int]] = None,
                    failures: Optional[Dict[str, List[str]]] = None) -> None:
        """In-process execution with the same retry/quarantine policy.

        Used for ``--jobs 1`` and as the degradation target when the
        pool keeps losing workers.  No timeouts here: there is no one
        left to watch the watcher, and serial mode is the last resort.
        """
        telemetry = outcome.telemetry
        attempts = attempts if attempts is not None else {}
        failures = failures if failures is not None else {}
        queue = deque(todo)
        while queue:
            spec = queue.popleft()
            spec.pop("_trace", None)  # may linger after degrade-to-serial
            cell_id = spec["cell_id"]
            started = time.perf_counter()
            run_wall = time.time()
            attempt = attempts.get(cell_id, 0) + 1
            telemetry["cells_run"] += 1
            try:
                payload = run_cell(spec)
            except Exception as error:
                signature = f"{type(error).__name__}: {error}"
                if self.tracer is not None:
                    self.tracer.span(
                        cell_id, "cell", run_wall, time.time(),
                        cell_id=cell_id, attempt=attempt, status="error",
                        error=type(error).__name__,
                    )
                retry = self._note_failure(
                    spec, signature, attempts, failures, checkpoint, outcome
                )
                if retry:
                    time.sleep(self._backoff(attempts[cell_id]))
                    queue.append(spec)
                continue
            if self.tracer is not None:
                self.tracer.span(
                    cell_id, "cell", run_wall, time.time(),
                    cell_id=cell_id, attempt=attempt, status="ok",
                )
            result = CellResult(
                cell_id=cell_id,
                status="ok",
                metrics=payload["metrics"],
                counters=payload.get("counters"),
                provenance_hash=payload["provenance_hash"],
                attempts=attempts.get(cell_id, 0) + 1,
                seconds=time.perf_counter() - started,
                worker=0,
            )
            self._commit(result, checkpoint, outcome)

    # ---- pool path --------------------------------------------------------
    def _run_pool(self, todo: List[dict],
                  checkpoint: Optional[SweepCheckpoint],
                  outcome: SweepOutcome) -> None:
        telemetry = outcome.telemetry
        workers: Dict[int, WorkerHandle] = {}
        next_id = 0
        now = time.monotonic()
        pending: deque = deque()
        ready_since: Dict[str, float] = {}
        #: Epoch twin of ready_since, feeding queue-wait trace spans
        #: (monotonic values are not comparable across processes).
        ready_wall: Dict[str, float] = {}
        now_wall = time.time()
        for spec in todo:
            pending.append(spec)
            ready_since[spec["cell_id"]] = now
            ready_wall[spec["cell_id"]] = now_wall
        delayed: List[tuple] = []  # (not_before, spec)
        attempts: Dict[str, int] = {}
        failures: Dict[str, List[str]] = {}
        restarts = 0
        trace_dir = self.tracer.trace_dir if self.tracer is not None else None

        def spawn() -> WorkerHandle:
            nonlocal next_id
            handle = spawn_worker(
                next_id, self.heartbeat_interval, trace_dir=trace_dir,
            )
            workers[handle.worker_id] = handle
            next_id += 1
            return handle

        def open_cells() -> int:
            in_flight = sum(1 for w in workers.values() if w.busy)
            return len(pending) + len(delayed) + in_flight

        def requeue(spec: dict, signature: str, infra: bool = False) -> None:
            retry = self._note_failure(
                spec, signature, attempts, failures, checkpoint, outcome,
                infra=infra,
            )
            if retry:
                not_before = (
                    time.monotonic() + self._backoff(attempts[spec["cell_id"]])
                )
                delayed.append((not_before, spec))

        def fail_worker(handle: WorkerHandle, signature: str,
                        kill: bool) -> None:
            nonlocal restarts
            if kill:
                handle.kill()
            else:
                handle._close()
            killed_wall = time.time()
            spec = handle.cell
            handle.cell = None
            workers.pop(handle.worker_id, None)
            restarts += 1
            telemetry["worker_restarts"] += 1
            if spec is not None and self.tracer is not None:
                # The worker is dead and cannot record its final span;
                # write the killed attempt on its lane from here.
                self.tracer.span(
                    spec["cell_id"], "cell",
                    handle.dispatched_wall or killed_wall, killed_wall,
                    lane=handle.lane, cell_id=spec["cell_id"],
                    attempt=attempts.get(spec["cell_id"], 0) + 1,
                    status="killed", cause=signature,
                )
            if spec is not None:
                # Supervisor-initiated kills are infrastructure failures:
                # they never poison a cell, only spend its attempt budget.
                requeue(spec, signature, infra=True)

        for _ in range(min(self.jobs, len(pending))):
            spawn()

        try:
            while open_cells():
                if restarts > self.degrade_after:
                    # The pool is hostile territory; fall back to serial.
                    break
                now = time.monotonic()
                if delayed:
                    due = [s for t, s in delayed if t <= now]
                    delayed[:] = [(t, s) for t, s in delayed if t > now]
                    now_wall = time.time()
                    for spec in due:
                        ready_since[spec["cell_id"]] = now
                        ready_wall[spec["cell_id"]] = now_wall
                        pending.append(spec)
                # Keep the fleet at strength while there is queued work.
                while pending and len(workers) < min(self.jobs, open_cells()):
                    spawn()
                for handle in list(workers.values()):
                    if pending and not handle.busy and handle.alive():
                        spec = pending.popleft()
                        cell_id = spec["cell_id"]
                        attempt = attempts.get(cell_id, 0) + 1
                        spec["_trace"] = {"attempt": attempt}
                        handle.cell = spec
                        handle.dispatched_at = now
                        handle.dispatched_wall = time.time()
                        handle.last_beat = now
                        handle.beats = 0
                        handle.deadline = (
                            now + self.cell_timeout
                            if self.cell_timeout else float("inf")
                        )
                        telemetry["queue_wait_s"] += max(
                            0.0, now - ready_since.get(cell_id, now)
                        )
                        telemetry["cells_run"] += 1
                        if self.tracer is not None:
                            self.tracer.span(
                                cell_id, "queue",
                                ready_wall.get(
                                    cell_id, handle.dispatched_wall
                                ),
                                handle.dispatched_wall,
                                lane=handle.lane, cell_id=cell_id,
                                attempt=attempt,
                            )
                        if not handle.send(spec):
                            fail_worker(handle, "worker-died: send failed",
                                        kill=True)
                self._drain(workers, checkpoint, outcome, attempts,
                            requeue)
                now = time.monotonic()
                for handle in list(workers.values()):
                    if not handle.alive():
                        if handle.busy:
                            telemetry["worker_crashes"] += 1
                            fail_worker(
                                handle, "worker-died: killed mid-cell",
                                kill=True,
                            )
                        elif not pending and not delayed:
                            workers.pop(handle.worker_id, None)
                    elif handle.busy and now > handle.deadline:
                        telemetry["timeouts"] += 1
                        fail_worker(handle, "timeout", kill=True)
                    elif (handle.busy
                          and now - handle.last_beat > self._stall_allowance(
                              handle)):
                        telemetry["stalls"] += 1
                        fail_worker(handle, "stalled: heartbeats stopped",
                                    kill=True)
        finally:
            for handle in list(workers.values()):
                handle.terminate()
            workers.clear()

        leftovers = [spec for _, spec in delayed]
        leftovers.extend(pending)
        in_flight_or_lost = [
            spec_id for spec_id in ready_since
            if spec_id not in outcome.results
            and spec_id not in outcome.quarantined
            and all(s["cell_id"] != spec_id for s in leftovers)
        ]
        if restarts > self.degrade_after:
            telemetry["degraded_serial"] = 1.0
            if self.tracer is not None:
                self.tracer.instant(
                    "degraded-serial", "executor", time.time(),
                    restarts=restarts,
                )
            remaining = leftovers + [
                spec for spec in todo if spec["cell_id"] in in_flight_or_lost
            ]
            self._run_serial(remaining, checkpoint, outcome,
                             attempts, failures)

    def _drain(self, workers, checkpoint, outcome, attempts,
               requeue) -> None:
        """Read every pending worker message, blocking briefly for one.

        Each worker reports on its own pipe.  A pipe at end-of-file
        belongs to a dead worker: it is closed here and the death is
        handled by the liveness check that follows.
        """
        by_conn = {
            handle.results: handle
            for handle in workers.values() if handle.results is not None
        }
        if not by_conn:
            time.sleep(self.heartbeat_interval / 2)
            return
        for conn in wait(list(by_conn), timeout=self.heartbeat_interval / 2):
            handle = by_conn[conn]
            while handle.results is not None:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    handle.close_results()
                    break
                self._on_message(handle, message, checkpoint, outcome,
                                 attempts, requeue)

    def _on_message(self, handle, message, checkpoint, outcome, attempts,
                    requeue) -> None:
        """Apply one worker message to the handle and the outcome."""
        telemetry = outcome.telemetry
        kind, worker_id = message[0], message[1]
        if kind == "ready":
            handle.ready = True
            handle.last_beat = time.monotonic()
        elif kind == "heartbeat":
            if handle.busy and handle.cell["cell_id"] == message[2]:
                handle.last_beat = time.monotonic()
                handle.beats += 1
        elif kind == "ok":
            _, _, cell_id, payload, seconds = message
            if not handle.busy or handle.cell["cell_id"] != cell_id:
                return
            handle.cell = None
            if cell_id in outcome.results:
                return
            result = CellResult(
                cell_id=cell_id,
                status="ok",
                metrics=payload["metrics"],
                counters=payload.get("counters"),
                provenance_hash=payload["provenance_hash"],
                attempts=attempts.get(cell_id, 0) + 1,
                seconds=seconds,
                worker=worker_id,
            )
            self._commit(result, checkpoint, outcome)
        elif kind == "error":
            _, _, cell_id, error_type, text, _seconds = message
            if not handle.busy or handle.cell["cell_id"] != cell_id:
                return
            spec = handle.cell
            handle.cell = None
            # The worker survived the exception; only the cell failed.
            telemetry.setdefault("cell_errors", 0.0)
            telemetry["cell_errors"] += 1
            requeue(spec, f"{error_type}: {text}")

    # ---- shared policy ----------------------------------------------------
    def _stall_allowance(self, handle: WorkerHandle) -> float:
        """Silence tolerated before a busy worker is declared stalled.

        A worker that has already heartbeated on this cell gets the
        plain stall timeout.  One that has *never* beaten may just be a
        freshly forked process starved of CPU on a loaded machine, so
        it gets a boot-grace window instead of a false stall kill.
        """
        if handle.beats > 0:
            return self.stall_timeout
        return max(2 * self.stall_timeout, 2.0)

    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff after the ``attempt``-th failure."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, attempt - 1)))

    def _note_failure(self, spec: dict, signature: str,
                      attempts: Dict[str, int],
                      failures: Dict[str, List[str]],
                      checkpoint: Optional[SweepCheckpoint],
                      outcome: SweepOutcome,
                      infra: bool = False) -> bool:
        """Record one failed attempt; True means the cell may retry.

        Quarantines on K identical consecutive failures (poison) or
        when the attempt budget is spent, journaling the tombstone so a
        resumed sweep knows the history (and retries the cell afresh).
        Infrastructure failures (timeout, stall, worker death) never
        count as poison — a loaded machine can kill the same healthy
        cell twice — they only draw down the attempt budget.
        """
        cell_id = spec["cell_id"]
        attempts[cell_id] = attempts.get(cell_id, 0) + 1
        failures.setdefault(cell_id, []).append(signature)
        history = failures[cell_id]
        poison = (
            not infra
            and len(history) >= self.poison_k
            and len(set(history[-self.poison_k:])) == 1
        )
        exhausted = attempts[cell_id] >= self.max_attempts
        if poison or exhausted:
            result = CellResult(
                cell_id=cell_id,
                status="quarantined",
                attempts=attempts[cell_id],
                failures=list(history),
            )
            outcome.quarantined[cell_id] = result
            if checkpoint is not None:
                checkpoint.record(result)
            if self.tracer is not None:
                self.tracer.instant(
                    "quarantine", "quarantine", time.time(),
                    cell_id=cell_id, attempts=attempts[cell_id],
                    poison=poison, signature=signature,
                )
            return False
        outcome.telemetry["cells_retried"] += 1
        if self.tracer is not None:
            self.tracer.instant(
                "retry", "retry", time.time(),
                cell_id=cell_id, attempt=attempts[cell_id],
                signature=signature, infra=infra,
            )
        return True

    def _commit(self, result: CellResult,
                checkpoint: Optional[SweepCheckpoint],
                outcome: SweepOutcome) -> None:
        """Journal first, then count: durability before visibility."""
        if checkpoint is not None:
            checkpoint.record(result)
        outcome.results[result.cell_id] = result
        outcome.quarantined.pop(result.cell_id, None)
        outcome.telemetry["cells_ok"] += 1
        if self.tracer is not None:
            self.tracer.instant(
                COMMIT, "commit", time.time(), cell_id=result.cell_id,
                done=len(outcome.results),
                total=int(outcome.telemetry["cells_total"]),
            )
