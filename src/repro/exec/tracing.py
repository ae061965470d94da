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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceMergeError
from repro.fsio import BestEffortWriter, read_jsonl, write_json_atomic

SPAN_FILE_SUFFIX = ".spans.jsonl"

#: The ``kind`` values of span-file records; other lines are foreign.
SPAN_KINDS = ("span", "instant")

__all__ = [
    "SPAN_FILE_SUFFIX",
    "SPAN_KINDS",
    "SpanWriter",
    "SweepTracer",
    "TimelineLane",
    "TimelineSpan",
    "worker_lane",
    "worker_span_path",
    "span_files",
    "read_span_records",
    "spans_to_timeline",
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


def read_span_records(trace_dir: str) -> List[Dict]:
    """Load every span record under ``trace_dir``, tolerating torn tails.

    Files are visited in sorted order and lines that fail to parse (a
    process died mid-write) are skipped; a missing directory or an
    unreadable file is the caller's error and raises
    :class:`TraceMergeError` (a merge must not silently lose a lane).
    """

    if not os.path.isdir(trace_dir):
        raise TraceMergeError("trace directory does not exist", trace_dir=trace_dir)
    records: List[Dict] = []
    for path in span_files(trace_dir):
        try:
            entries, _, _ = read_jsonl(path)
        except OSError as exc:
            raise TraceMergeError(
                "unreadable span file", path=path, error=str(exc)
            ) from exc
        records.extend(r for _, r in entries if r.get("kind") in SPAN_KINDS)
    return records


@dataclass(frozen=True)
class TimelineSpan:
    """One closed span, rebased to the sweep's earliest timestamp."""

    name: str
    cat: str
    t0: float
    t1: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)


@dataclass
class TimelineLane:
    """One process's spans, ordered by start time."""

    lane: str
    spans: List[TimelineSpan] = field(default_factory=list)
    instants: List[TimelineSpan] = field(default_factory=list)

    @property
    def is_supervisor(self) -> bool:
        return self.lane.startswith("supervisor")


def spans_to_timeline(records: List[Dict]) -> List[TimelineLane]:
    """Group raw span records into per-lane timelines for rendering.

    The adapter between the JSONL span files and any human-facing
    lane view (the observatory's sweep page; a future ``repro serve``).
    Timestamps are rebased so the earliest event of the sweep is
    ``t=0`` — the absolute epoch values are wall-clock and must never
    reach a deterministic rendering.  Lanes come supervisor-first, then
    workers sorted by name; spans within a lane sort by
    ``(t0, t1, name)``.  Malformed records are skipped, mirroring the
    torn-tail tolerance of :func:`read_span_records`.
    """

    base: Optional[float] = None
    for record in records:
        t0 = record.get("t0") if record.get("kind") == "span" else record.get("t")
        if isinstance(t0, (int, float)):
            base = t0 if base is None else min(base, t0)
    lanes: Dict[str, TimelineLane] = {}
    for record in records:
        lane_name = record.get("lane")
        if not isinstance(lane_name, str) or not lane_name:
            continue
        lane = lanes.setdefault(lane_name, TimelineLane(lane=lane_name))
        args = record.get("args")
        args = dict(args) if isinstance(args, dict) else {}
        if record.get("kind") == "span":
            t0, t1 = record.get("t0"), record.get("t1")
            if not isinstance(t0, (int, float)) or not isinstance(t1, (int, float)):
                continue
            lane.spans.append(TimelineSpan(
                name=str(record.get("name", "")),
                cat=str(record.get("cat", "")),
                t0=t0 - (base or 0.0),
                t1=t1 - (base or 0.0),
                args=args,
            ))
        elif record.get("kind") == "instant":
            t = record.get("t")
            if not isinstance(t, (int, float)):
                continue
            stamp = t - (base or 0.0)
            lane.instants.append(TimelineSpan(
                name=str(record.get("name", "")),
                cat=str(record.get("cat", "")),
                t0=stamp,
                t1=stamp,
                args=args,
            ))
    for lane in lanes.values():
        lane.spans.sort(key=lambda s: (s.t0, s.t1, s.name))
        lane.instants.sort(key=lambda s: (s.t0, s.name))
    return sorted(
        lanes.values(), key=lambda lane: (not lane.is_supervisor, lane.lane)
    )


def merge_sweep_trace(trace_dir: str, out_path: str,
                      io=None) -> Tuple[int, int]:
    """Merge all span files under ``trace_dir`` into one Chrome trace.

    Returns ``(n_events, n_flow_links)``.  The export shape (lane →
    pid/tid assignment, flow derivation) lives in
    :func:`repro.obs.export.sweep_records_to_chrome`.  The merged file
    is written with the full atomic protocol — tmp + fsync +
    ``os.replace`` + parent-dir fsync, tmp cleaned up on failure — so a
    crash during merge can never leave a torn ``trace.json``.
    """

    from repro.obs.export import sweep_records_to_chrome

    records = read_span_records(trace_dir)
    trace = sweep_records_to_chrome(records)
    write_json_atomic(out_path, trace, indent=1, io=io)
    n_flows = int(trace.get("otherData", {}).get("flow_links", 0))
    return len(trace["traceEvents"]), n_flows
