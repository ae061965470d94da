"""Trace exporters: Chrome ``trace_event`` JSON and text summaries.

One exporter serves both clocks.  :func:`to_chrome_trace` turns
:class:`~repro.obs.tracer.Span` records — the simulated-clock
:class:`~repro.obs.tracer.Tracer` behind ``repro trace``, or the
host-clock span files of a sweep — into the Trace Event Format that
Perfetto and ``chrome://tracing`` load directly: each lane becomes a
process and each track within it a thread, spans become complete
(``"X"``) events, marks instant (``"i"``) events and counter readings
``"C"`` events.  Seconds become microseconds (the format's unit),
rebased to the earliest event.

The text exporter renders a per-category summary table and a flame-style
listing of the slowest spans — the quick look before reaching for
Perfetto.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import TraceMergeError
from repro.fsio import write_json_atomic
from repro.obs.tracer import Span
from repro.report.tables import render_table

_PHASES = {"span": "X", "instant": "i", "counter": "C"}


def group_lanes(records: Iterable[Span]) -> Dict[str, List[Span]]:
    """Records by lane, in display order: the one lane order.

    Supervisor lanes first, then lanes by their earliest event, then by
    name.  Both the Chrome process order and the dashboard's lane rows
    come from here.  Records keep their input order within a lane.
    """
    lanes: Dict[str, List[Span]] = {}
    for record in records:
        lanes.setdefault(record.lane, []).append(record)
    order = sorted(lanes, key=lambda lane: (
        not lane.startswith("supervisor"),
        min(r.t0 for r in lanes[lane]),
        lane,
    ))
    return {lane: lanes[lane] for lane in order}


def _process_name(lane: str) -> str:
    # Sweep lanes embed the owning OS pid (supervisor-<pid>,
    # worker-<pid>-<id>); the supervisor also writes killed attempts
    # onto worker lanes, so the lane, not the writer, names the process.
    pid = lane.split("-")[1:2]
    return f"{lane} (os pid {pid[0]})" if pid and pid[0].isdigit() else lane


def _meta(kind: str, pid: int, tid: int, **args: object) -> dict:
    return {"name": kind, "cat": "__metadata", "ph": "M", "ts": 0,
            "pid": pid, "tid": tid, "args": args}


def _retry_flows(records: Sequence[Span], base: float,
                 threads: Dict[Tuple[str, str], Tuple[int, int]]
                 ) -> List[dict]:
    """Flow arrows linking consecutive ``cell`` attempts of one cell.

    Attempts are ordered by start time regardless of which worker (or
    run — resumed sweeps append to the same directory) executed them;
    flow id ``<cell_id>#<k>`` links attempt k to attempt k+1.
    """
    chains: Dict[str, List[Span]] = {}
    for record in records:
        cell_id = record.args.get("cell_id")
        if record.kind == "span" and record.cat == "cell" and cell_id:
            chains.setdefault(str(cell_id), []).append(record)
    flows: List[dict] = []
    for cell_id in sorted(chains):
        chain = sorted(chains[cell_id], key=lambda r: r.t0)
        for k, (prev, nxt) in enumerate(zip(chain, chain[1:])):
            start = ((prev.t0 if prev.t1 is None else prev.t1) - base) * 1e6
            finish = max((nxt.t0 - base) * 1e6, start)
            for ph, record, ts in (("s", prev, start), ("f", nxt, finish)):
                pid, tid = threads[record.lane, record.track]
                flows.append({"name": "retry", "cat": "flow", "ph": ph,
                              "id": f"{cell_id}#{k}", "ts": ts,
                              "pid": pid, "tid": tid})
            flows[-1]["bp"] = "e"
    return flows


def to_chrome_trace(records: Sequence[Span], **other: object) -> dict:
    """Records from one clock domain as a Chrome trace_event object.

    Lanes become processes (pid 1, 2, ... in :func:`group_lanes` order,
    with a ``process_sort_index`` so viewers keep that order) and the
    tracks of a lane become its threads, numbered by first appearance.
    Metadata events come first, then the body sorted by timestamp;
    ``other`` adds keys to ``otherData``.
    Raises :class:`TraceMergeError` for records from two clock domains:
    simulated and epoch seconds cannot share one timeline.
    """
    clocks = sorted({r.clock for r in records})
    if len(clocks) > 1:
        raise TraceMergeError("records from two clock domains",
                              clocks=",".join(clocks))
    lanes = group_lanes(records)
    base = min((r.t0 for r in records), default=0.0)
    meta: List[dict] = []
    body: List[dict] = []
    # (lane, track) -> (pid, tid)
    threads: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for pid, (lane, lane_records) in enumerate(lanes.items(), start=1):
        meta.append(_meta("process_name", pid, 0, name=_process_name(lane)))
        meta.append(_meta("process_sort_index", pid, 0, sort_index=pid))
        for tid, track in enumerate(dict.fromkeys(r.track
                                                  for r in lane_records)):
            threads[lane, track] = (pid, tid)
            meta.append(_meta("thread_name", pid, tid, name=track))
        for record in lane_records:
            event = {"name": record.name, "cat": record.cat,
                     "ph": _PHASES[record.kind],
                     "ts": (record.t0 - base) * 1e6,
                     "pid": pid, "tid": threads[lane, record.track][1],
                     "args": dict(record.args)}
            if record.kind == "span":
                event["dur"] = record.duration * 1e6
            elif record.kind == "instant":
                event["s"] = "t"
            body.append(event)
    flows = _retry_flows(records, base, threads)
    body.extend(flows)
    body.sort(key=lambda event: event["ts"])
    return {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": clocks[0] if clocks else None,
            "time_unit": "seconds x 1e6, rebased to the earliest event",
            "lanes": len(lanes),
            "flow_links": len(flows) // 2,
            **other,
        },
    }


def write_chrome_trace(records: Sequence[Span], path: str, *, io=None,
                       **other: object) -> dict:
    """Write the records' Chrome trace to ``path``; returns the trace.

    Written with the full atomic protocol (tmp + fsync + ``os.replace``
    + parent-dir fsync), so a crash can never leave a torn trace.
    """
    trace = to_chrome_trace(records, **other)
    write_json_atomic(path, trace, indent=1, io=io)
    return trace


def trace_problems(trace: dict) -> List[str]:
    """Structural faults of an exported trace; empty when it is sound.

    The check CI applies to both ``repro trace`` output and merged sweep
    traces: the clock domain is named and every event sits on a named
    lane.
    """
    problems = []
    if trace.get("otherData", {}).get("clock") not in ("sim", "host"):
        problems.append("otherData.clock names no clock domain")
    events = trace.get("traceEvents", [])
    named = {e["pid"] for e in events if e.get("name") == "process_name"}
    unnamed = [e for e in events if e.get("ph") != "M"
               and e.get("pid") not in named]
    if unnamed:
        problems.append(f"{len(unnamed)} event(s) on an unnamed lane")
    return problems


def _depth(span: Span, by_id: Dict[object, Span]) -> int:
    depth = 0
    current = span
    while current.args.get("parent_id") is not None:
        current = by_id[current.args["parent_id"]]
        depth += 1
    return depth


def render_trace_summary(records: Sequence[Span], top: int = 8) -> str:
    """Category roll-up plus a flame-style view of the span tree."""
    spans = [r for r in records if r.kind == "span"]
    samples = [r for r in records if r.kind == "counter"]
    by_category: Dict[str, List[Span]] = {}
    for span in spans:
        by_category.setdefault(span.cat, []).append(span)
    rows = []
    for category, group in sorted(
        by_category.items(),
        key=lambda item: -sum(s.duration for s in item[1]),
    ):
        durations = [s.duration for s in group]
        rows.append(
            [
                category,
                len(group),
                sum(durations),
                sum(durations) / len(durations),
                max(durations),
            ]
        )
    summary = render_table(
        ["category", "spans", "total (s)", "mean (s)", "max (s)"],
        rows,
        title="Span summary (simulated time)",
        float_format="{:.6f}",
    )

    by_id = {s.args.get("span_id"): s for s in spans}
    structural = [s for s in spans if s.cat in ("job", "stage", "wave")]
    slowest_work = sorted(
        (s for s in spans if s.cat in ("task", "attempt")),
        key=lambda s: -s.duration,
    )[:top]
    lines = ["", "Flame view (job/stage/wave, then slowest work):"]
    for span in structural:
        indent = "  " * _depth(span, by_id)
        lines.append(
            f"  {indent}{span.name:<24s} {span.duration:12.6f} s"
        )
    for span in slowest_work:
        where = span.args.get("node", span.track)
        lines.append(
            f"  * {span.name:<22s} {span.duration:12.6f} s  on {where}"
            f"  [{span.cat}]"
        )
    if samples:
        lines.append(
            f"  counters: {len(samples)} samples across "
            f"{len({s.track for s in samples})} nodes"
        )
    return summary + "\n" + "\n".join(lines)
