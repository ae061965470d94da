"""Cross-process trace propagation for the sweep executor.

The supervised executor (:mod:`repro.exec.supervisor`) fans cells out
to forked workers; each process knows only its own slice of the sweep.
This module gives every participant an append-only *span file* and a
merge step that reassembles the fleet's files into one Chrome/Perfetto
trace with a lane per process and flow events linking retries of the
same cell across workers.

Design constraints, in order:

- **Determinism first.**  Tracing must never change what a sweep
  computes.  Span records live outside the cell payload, the trace
  context travels in a ``_trace`` key that is excluded from the
  provenance hash (see :func:`repro.exec.cells._hashable_spec`), and
  every write is best-effort: an unwritable span file degrades to *no
  trace*, never to a failed sweep.  Degradation is *counted*, not
  silent — :class:`SpanWriter` rides on
  :class:`repro.fsio.BestEffortWriter`, whose drop counters surface in
  the sweep record's ``exec.*`` telemetry.
- **Crash-tolerant files.**  Workers die mid-write (SIGKILL is a
  supported executor path), so the format is one JSON object per line,
  flushed per record, and the reader skips torn tails instead of
  failing the merge.
- **Comparable clocks.**  All timestamps are ``time.time()`` epoch
  seconds.  Forked processes share the system clock, which makes the
  merged timeline directly comparable across lanes; monotonic clocks
  would not be.  Every read is quarantined here (module is on the
  DET003 exemption list) and the values only ever land in span files
  and record ``timings`` — never in ``metrics``.

Lane identity is ``worker-<ospid>-<workerid>``: worker ids restart at
0 on resume and are reused by replacement workers, but OS pids are
unique per process, so distinct processes always get distinct lanes in
the merged trace (which is what makes cross-worker retry flows
legible).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceMergeError
from repro.fsio import BestEffortWriter, read_jsonl
from repro.obs.tracer import Span

SPAN_FILE_SUFFIX = ".spans.jsonl"

#: The ``kind`` values of span-file records; other lines are damage.
SPAN_KINDS = ("span", "instant")

__all__ = [
    "SPAN_FILE_SUFFIX",
    "SPAN_KINDS",
    "SpanWriter",
    "SweepTracer",
    "worker_lane",
    "worker_span_path",
    "span_files",
    "parse_span",
    "read_spans",
    "merge_sweep_trace",
]


def worker_lane(pid: int, worker_id: int) -> str:
    """The lane name a worker process records under.

    Includes the OS pid so replacement workers (same worker id, new
    process) and resumed runs (worker ids restart at 0) land on
    distinct lanes.
    """

    return f"worker-{pid}-{worker_id}"


def worker_span_path(trace_dir: str, pid: int, worker_id: int) -> str:
    return os.path.join(trace_dir, worker_lane(pid, worker_id) + SPAN_FILE_SUFFIX)


class SpanWriter:
    """Append-only JSONL span file for one process.

    Opens lazily on first record so that merely constructing a writer
    (e.g. in a worker that never receives a cell) leaves no file.
    Writes are flushed per record — a killed process loses at most the
    line it was writing, which the reader tolerates.  I/O errors never
    fail the sweep (tracing is an observer), but they are no longer
    silent: the underlying :class:`repro.fsio.BestEffortWriter` counts
    every dropped record and warns once on stderr.
    """

    def __init__(self, path: str, io=None):
        self.path = path
        self._writer = BestEffortWriter(path, io=io, label="span writer")

    def _emit(self, record: Dict) -> None:
        self._writer.append(record)

    def telemetry(self, prefix: str = "trace") -> Dict[str, float]:
        """Span write/drop counters, for ``exec.*`` telemetry."""
        return self._writer.telemetry(prefix)

    def span(self, lane: str, name: str, cat: str, t0: float, t1: float, **args) -> None:
        self._emit(
            {
                "kind": "span",
                "lane": lane,
                "pid": os.getpid(),
                "name": name,
                "cat": cat,
                "t0": t0,
                "t1": t1,
                "args": args,
            }
        )

    def instant(self, lane: str, name: str, cat: str, t: float, **args) -> None:
        self._emit(
            {
                "kind": "instant",
                "lane": lane,
                "pid": os.getpid(),
                "name": name,
                "cat": cat,
                "t": t,
                "args": args,
            }
        )

    def close(self) -> None:
        self._writer.close()


class SweepTracer:
    """Supervisor-side trace handle for one sweep invocation.

    Owns the trace directory (created eagerly so workers can write into
    it immediately after fork) and the supervisor's own span file.
    Workers derive their file paths from :attr:`trace_dir` with
    :func:`worker_span_path`; the supervisor never writes on worker
    lanes except for *killed* attempts, which the worker by definition
    cannot record itself.
    """

    def __init__(self, trace_dir: str, io=None):
        os.makedirs(trace_dir, exist_ok=True)
        self.trace_dir = trace_dir
        self.lane = f"supervisor-{os.getpid()}"
        self._writer = SpanWriter(
            os.path.join(trace_dir, self.lane + SPAN_FILE_SUFFIX), io=io
        )

    def telemetry(self, prefix: str = "trace") -> Dict[str, float]:
        """The supervisor lane's write/drop counters."""
        return self._writer.telemetry(prefix)

    def span(self, name: str, cat: str, t0: float, t1: float, *, lane: Optional[str] = None, **args) -> None:
        self._writer.span(lane or self.lane, name, cat, t0, t1, **args)

    def instant(self, name: str, cat: str, t: float, *, lane: Optional[str] = None, **args) -> None:
        self._writer.instant(lane or self.lane, name, cat, t, **args)

    def now(self) -> float:
        return time.time()

    def close(self) -> None:
        self._writer.close()


def span_files(trace_dir: str) -> List[str]:
    """The span files under ``trace_dir``, sorted; none if it is absent."""
    if not os.path.isdir(trace_dir):
        return []
    return [
        os.path.join(trace_dir, name)
        for name in sorted(os.listdir(trace_dir))
        if name.endswith(SPAN_FILE_SUFFIX)
    ]


def _time(value: object) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def parse_span(obj: dict) -> Optional[Span]:
    """One span-file line as a host-clock :class:`Span`, or None.

    None for a line that is not a span or instant with a lane and
    numeric times: such a line carries nothing that can be placed on a
    timeline, and readers count it as damage.
    """
    kind, lane = obj.get("kind"), obj.get("lane")
    if kind not in SPAN_KINDS or not isinstance(lane, str) or not lane:
        return None
    t0 = _time(obj.get("t0" if kind == "span" else "t"))
    t1 = _time(obj.get("t1")) if kind == "span" else t0
    if t0 is None or t1 is None:
        return None
    args = obj.get("args")
    return Span(kind, lane, lane, str(obj.get("name", "")),
                str(obj.get("cat", "")), t0, t1,
                dict(args) if isinstance(args, dict) else {}, clock="host")


def read_spans(trace_dir: str) -> Tuple[List[Span], List[Tuple[str, str]]]:
    """Every record of the span files under ``trace_dir``, and the damage.

    Files are visited in sorted order.  Nothing raises: a file that
    cannot be read, lines that do not parse (a process died mid-write)
    and lines :func:`parse_span` rejects each become a ``(path,
    reason)`` damage entry, and the rest is used.
    """
    records: List[Span] = []
    damage: List[Tuple[str, str]] = []
    for path in span_files(trace_dir):
        try:
            entries, bad, _ = read_jsonl(path)
        except OSError as exc:
            damage.append((path, f"unreadable: {exc}"))
            continue
        if bad:
            damage.append((path, f"{len(bad)} unparseable line(s)"))
        parsed = [parse_span(obj) for _, obj in entries]
        records.extend(r for r in parsed if r is not None)
        if None in parsed:
            damage.append((path, f"{parsed.count(None)} record(s) without "
                                 "a lane and numeric times"))
    return records, damage


def merge_sweep_trace(trace_dir: str, out_path: str,
                      io=None) -> Tuple[int, int]:
    """Merge all span files under ``trace_dir`` into one Chrome trace.

    Returns ``(n_events, n_flow_links)``.  The export (lane → process,
    retry flows, rebasing) is :func:`repro.obs.export.to_chrome_trace`;
    skipped input is listed under ``otherData.damage``.  The merged file
    is written atomically, so a crash during merge can never leave a
    torn ``trace.json``.
    """

    from repro.obs.export import write_chrome_trace

    if not os.path.isdir(trace_dir):
        raise TraceMergeError("trace directory does not exist",
                              trace_dir=trace_dir)
    records, damage = read_spans(trace_dir)
    trace = write_chrome_trace(
        records, out_path, io=io,
        damage=[f"{os.path.basename(p)}: {reason}" for p, reason in damage],
    )
    return len(trace["traceEvents"]), trace["otherData"]["flow_links"]
