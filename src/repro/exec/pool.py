"""Worker processes for the sweep executor.

One worker is one forked process running :func:`_worker_main`: it
receives cell specs over a private task pipe, runs them, and reports
on a private result pipe.  Nothing is shared between workers: a
``multiprocessing.Queue`` shared by the pool carries a cross-process
write lock, and a worker SIGKILLed while holding it (its heartbeat
thread mid-put) would silence every later worker for good.  A killed
worker can only break its own pipes, which the supervisor then reads
as end-of-file.  A daemon heartbeat thread beats
every ``heartbeat_interval`` seconds while a cell is in flight, so the
supervisor can tell a *slow* cell (beats arriving, deadline not yet
passed) from a *frozen* worker (no beats: SIGSTOPped, deadlocked in C,
or already dead) without waiting for the full cell timeout.

A worker also watches its parent: the heartbeat thread and the idle
wait for the next spec both check it every ``heartbeat_interval``, and
the worker exits once the supervisor is gone.  Pipe end-of-file cannot
tell it so, because forked siblings inherit copies of every pipe end,
so a SIGKILLed supervisor would otherwise leave its workers idling
forever (and holding open whatever stdout they inherited).

Messages on the result pipe (tuples, first element is the kind):

- ``("ready", worker_id)`` — worker finished booting
- ``("heartbeat", worker_id, cell_id)`` — still alive on this cell
- ``("ok", worker_id, cell_id, payload, seconds)`` — cell done
- ``("error", worker_id, cell_id, error_type, message, seconds)`` —
  the cell callable raised; the worker itself is still healthy

Workers never write checkpoints or records: the supervisor is the
single writer, so crash-safety reasoning stays in one place.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.exec.cells import run_cell
from repro.exec.tracing import SpanWriter, worker_lane, worker_span_path

#: Seconds between worker heartbeats while a cell runs.
HEARTBEAT_INTERVAL = 0.2

#: Fork keeps sys.path / imported state and is the start method whose
#: workers inherit the parent's deterministic hash seed.
_CTX = mp.get_context("fork")


def _worker_main(worker_id: int, conn, results, heartbeat_interval: float,
                 trace_dir: Optional[str], supervisor: int) -> None:
    """Worker loop: recv spec, run, report; ``None`` means shut down.

    ``supervisor`` is the pid of the forking process; the worker exits
    once it is no longer its parent.

    When ``trace_dir`` is set the worker appends its own span file
    (boot span, one ``cell`` span per completed attempt).  Kills cannot
    be recorded from here — a SIGKILLed worker writes nothing — so the
    supervisor records killed attempts on this worker's lane instead.
    """
    state = {"cell": None}
    stop = threading.Event()

    def orphaned() -> bool:
        return os.getppid() != supervisor

    # The heartbeat thread and the main loop share one pipe end.
    send_lock = threading.Lock()

    def report(message: tuple) -> bool:
        try:
            with send_lock:
                results.send(message)
            return True
        except OSError:
            return False  # pipe torn down; supervisor is gone
    writer = lane = None
    if trace_dir is not None:
        lane = worker_lane(os.getpid(), worker_id)
        writer = SpanWriter(worker_span_path(trace_dir, os.getpid(), worker_id))
    boot_wall = time.time()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            if orphaned():
                os._exit(1)  # mid-cell: nobody is left to report to
            cell_id = state["cell"]
            if cell_id is not None and not report(
                    ("heartbeat", worker_id, cell_id)):
                return

    threading.Thread(target=beat, daemon=True).start()
    report(("ready", worker_id))
    if writer is not None:
        writer.span(lane, "boot", "boot", boot_wall, time.time(),
                    worker=worker_id)
    while not orphaned():
        try:
            if not conn.poll(heartbeat_interval):
                continue
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:
            break
        # The trace context rides along outside the provenance-hashed
        # identity fields; strip it before the cell sees its spec.
        trace_meta = spec.pop("_trace", None) or {}
        cell_id = spec["cell_id"]
        state["cell"] = cell_id
        started = time.perf_counter()
        run_wall = time.time()
        try:
            payload = run_cell(spec)
        except KeyboardInterrupt:
            break
        except BaseException as error:  # report, stay alive for more cells
            sent = report((
                "error", worker_id, cell_id,
                type(error).__name__, str(error),
                time.perf_counter() - started,
            ))
            if writer is not None:
                writer.span(
                    lane, cell_id, "cell", run_wall, time.time(),
                    cell_id=cell_id, status="error",
                    error=type(error).__name__,
                    attempt=trace_meta.get("attempt"),
                )
        else:
            sent = report((
                "ok", worker_id, cell_id, payload,
                time.perf_counter() - started,
            ))
            if writer is not None:
                writer.span(
                    lane, cell_id, "cell", run_wall, time.time(),
                    cell_id=cell_id, status="ok",
                    attempt=trace_meta.get("attempt"),
                )
        finally:
            state["cell"] = None
        if not sent:
            break
    stop.set()
    if writer is not None:
        writer.close()


@dataclass
class WorkerHandle:
    """The supervisor's view of one worker process."""

    worker_id: int
    process: mp.Process = None
    conn: object = None  # parent end of the task pipe
    #: Read end of the worker's result pipe; None once it hit EOF.
    results: object = None
    #: In-flight cell spec (None when idle).
    cell: Optional[dict] = None
    #: Monotonic deadline for the in-flight cell (wall-clock timeout).
    deadline: float = 0.0
    #: Monotonic time of the last sign of life for the in-flight cell.
    last_beat: float = 0.0
    #: Monotonic dispatch time (queue-wait + runtime accounting).
    dispatched_at: float = 0.0
    #: Epoch dispatch time — trace timestamps only, comparable across
    #: processes (monotonic clocks are not).
    dispatched_wall: float = 0.0
    #: OS pid captured at spawn; survives the process object's death and
    #: names the worker's trace lane.
    pid: int = 0
    #: Heartbeats received for the in-flight cell; a worker that never
    #: beat may just be slow to boot, so it gets a grace period before
    #: stall detection applies.
    beats: int = 0
    ready: bool = False
    retired: bool = field(default=False)

    @property
    def busy(self) -> bool:
        return self.cell is not None

    @property
    def lane(self) -> str:
        """The trace lane this worker's spans live on."""
        return worker_lane(self.pid, self.worker_id)

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, spec: Optional[dict]) -> bool:
        """Ship a cell spec (or ``None`` shutdown) to the worker."""
        try:
            self.conn.send(spec)
            return True
        except (BrokenPipeError, OSError):
            return False

    def kill(self) -> None:
        """SIGKILL escalation: no grace, the cell will be retried."""
        if self.process is None:
            return
        try:
            self.process.kill()  # SIGKILL; also fells SIGSTOPped workers
        except (OSError, AttributeError):
            pass
        self.process.join(timeout=5.0)
        self._close()

    def terminate(self) -> None:
        """Polite shutdown used at pool teardown, escalating if ignored."""
        self.send(None)
        if self.process is not None:
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.kill()
                return
        self._close()

    def close_results(self) -> None:
        """Stop reading the result pipe (end-of-file, or retirement)."""
        if self.results is not None:
            try:
                self.results.close()
            except OSError:
                pass
            self.results = None

    def _close(self) -> None:
        try:
            self.conn.close()
        except (OSError, AttributeError):
            pass
        self.close_results()
        self.retired = True


def spawn_worker(worker_id: int,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 trace_dir: Optional[str] = None,
                 ) -> WorkerHandle:
    """Fork one worker and return its handle (not yet marked ready)."""
    parent_conn, child_conn = _CTX.Pipe()
    results_reader, results_writer = _CTX.Pipe(duplex=False)
    process = _CTX.Process(
        target=_worker_main,
        args=(worker_id, child_conn, results_writer, heartbeat_interval,
              trace_dir, os.getpid()),
        daemon=True,
        name=f"repro-sweep-worker-{worker_id}",
    )
    process.start()
    # Only the worker may hold the write end: its death is then EOF.
    child_conn.close()
    results_writer.close()
    now = time.monotonic()
    return WorkerHandle(
        worker_id=worker_id, process=process, conn=parent_conn,
        results=results_reader, last_beat=now, pid=process.pid or 0,
    )
