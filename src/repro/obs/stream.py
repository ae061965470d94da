"""Live sweep progress: JSONL event stream, renderer, OpenMetrics view.

The supervised executor (:class:`repro.exec.supervisor.SweepExecutor`)
emits one dict per progress event through its ``observer`` hook.  This
module gives those events three consumers:

- :class:`ProgressStream` — stamps each event with a schema version,
  sweep id and epoch timestamp, appends it to a ``progress.jsonl``
  file (flushed per line, torn-tail tolerant on read), and forwards it
  to an optional renderer.  The JSONL file *is* the wire format: a
  future ``repro serve`` streams exactly these lines to clients, and
  ``tail -f`` works on it today.
- :class:`TerminalRenderer` — a single carriage-return status line on
  stderr (done/total, retries, quarantines, throughput, ETA) for
  humans watching ``repro sweep --jobs N``.
- :func:`render_openmetrics` — an OpenMetrics-style text exposition of
  registry and executor counters (``repro metrics``), so external
  tooling can scrape a run directory without knowing our schemas.

Determinism: everything here is observation.  Events carry wall-clock
timestamps (this module is on the DET003 quarantine list) but nothing
flows back into cell execution or record ``metrics`` — the stream can
be turned on and off without changing a single computed byte.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.fsio import BestEffortWriter, read_jsonl

#: Bumped on incompatible progress-event layout changes.
PROGRESS_SCHEMA_VERSION = 1

__all__ = [
    "PROGRESS_SCHEMA_VERSION",
    "ProgressStream",
    "TerminalRenderer",
    "read_progress",
    "render_openmetrics",
]


class TerminalRenderer:
    """One live status line, redrawn in place with carriage returns."""

    def __init__(self, out=None):
        self.out = out if out is not None else sys.stderr
        self._dirty = False
        self._width = 0
        self._retried = 0
        self._quarantined = 0
        self._total = 0

    def update(self, event: Dict) -> None:
        kind = event.get("event")
        if kind == "sweep-started":
            self._total = int(event.get("total", 0))
        elif kind == "cell-retried":
            self._retried += 1
        elif kind == "cell-quarantined":
            self._quarantined += 1
        elif kind not in ("cell-started", "cell-finished", "sweep-finished"):
            return
        done = int(event.get("done", 0))
        total = int(event.get("total", self._total)) or self._total
        parts = [f"sweep {done}/{total} cells"]
        if self._retried:
            parts.append(f"{self._retried} retried")
        if self._quarantined:
            parts.append(f"{self._quarantined} quarantined")
        rate = event.get("cells_per_s")
        if rate:
            parts.append(f"{rate:.2f} cells/s")
        eta = event.get("eta_s")
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if kind == "sweep-finished":
            parts.append("done")
        line = " | ".join(parts)
        self._width = max(self._width, len(line))
        try:
            self.out.write("\r" + line.ljust(self._width))
            self.out.flush()
            self._dirty = True
        except (OSError, ValueError):  # repro: allow[ERR002]
            pass  # terminal cosmetics; the durable stream has counters

    def close(self) -> None:
        if self._dirty:
            try:
                self.out.write("\n")
                self.out.flush()
            except (OSError, ValueError):  # repro: allow[ERR002]
                pass  # terminal cosmetics; nothing durable is lost
            self._dirty = False


class ProgressStream:
    """Append-only JSONL progress event stream for one sweep.

    Usable directly as the executor's ``observer`` (it is a callable).
    Derived fields (``cells_per_s``, ``eta_s``) are computed here, on
    the consumer side of the executor, so the supervisor stays free of
    presentation arithmetic.  All I/O is best-effort via
    :class:`repro.fsio.BestEffortWriter`: a dead disk degrades to *no
    stream*, never to a failed sweep — but every dropped event is
    counted (``stream_writer_errors`` / ``stream_dropped_events`` in
    :meth:`telemetry`) and the first failure warns once on stderr.
    """

    def __init__(self, path: Optional[str] = None, *,
                 sweep: Optional[str] = None, renderer=None, io=None):
        self.path = path
        self.sweep = sweep
        self.renderer = renderer
        self._writer = (
            BestEffortWriter(path, io=io, label="progress stream")
            if path is not None else None
        )
        self._started = time.time()
        self._resumed = 0

    def __call__(self, event: Dict) -> None:
        self.emit(event)

    def emit(self, event: Dict) -> None:
        event = dict(event)
        event["v"] = PROGRESS_SCHEMA_VERSION
        if self.sweep is not None:
            event["sweep"] = self.sweep
        now = time.time()
        event["t"] = now
        kind = event.get("event")
        if kind == "sweep-started":
            self._started = now
            self._resumed = int(event.get("from_checkpoint", 0))
        elif kind == "cell-finished":
            done = int(event.get("done", 0))
            total = int(event.get("total", 0))
            fresh = max(0, done - self._resumed)
            elapsed = max(1e-9, now - self._started)
            rate = fresh / elapsed
            event["cells_per_s"] = rate
            event["eta_s"] = (
                max(0, total - done) / rate if rate > 0 else None
            )
        self._write(event)
        if self.renderer is not None:
            try:
                self.renderer.update(event)
            except Exception:  # repro: allow[ERR002] — cosmetics only
                pass

    def _write(self, event: Dict) -> None:
        if self._writer is not None:
            self._writer.append(event)

    def telemetry(self) -> Dict[str, float]:
        """Stream write/drop counters, for the record's ``exec.*`` block."""
        if self._writer is None:
            return {}
        return self._writer.telemetry("stream")

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self.renderer is not None:
            try:
                self.renderer.close()
            except Exception:  # repro: allow[ERR002] — cosmetics only
                pass


def read_progress(path: str) -> List[Dict]:
    """Load a progress JSONL file, skipping torn or foreign lines."""
    entries, _, _ = read_jsonl(path)
    return [event for _, event in entries if "event" in event]


# ---- OpenMetrics exposition -----------------------------------------------

def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _sanitize(name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def render_openmetrics(runs_dir: Optional[str] = None) -> str:
    """Executor and registry counters as OpenMetrics-style text.

    Scrapes are read-only over the run directory: registry record
    counts per (experiment, kind), the latest ``exec.*`` telemetry of
    every experiment that has any, and per-sweep checkpoint progress
    (total/done/quarantined cells plus the last streamed throughput
    and ETA).

    OpenMetrics framing: every metric family gets ``# HELP`` and
    ``# TYPE`` lines (emitted even when the family has no samples, so
    scrapers learn the full schema from any scrape), a constant
    ``repro_build_info`` gauge carries the record/progress schema
    versions and git SHA, and the exposition terminates with ``# EOF``.
    """

    from repro.exec.checkpoint import sweep_dirs
    from repro.obs.registry import (
        SCHEMA_VERSION,
        RunRegistry,
        git_sha,
        runs_dir_default,
    )

    root = runs_dir if runs_dir is not None else runs_dir_default()
    records, _ = RunRegistry(root).scan()

    lines: List[str] = []
    lines.append(
        "# HELP repro_build_info Constant gauge carrying the record/"
        "progress schema versions and build identity."
    )
    lines.append("# TYPE repro_build_info gauge")
    lines.append(
        "repro_build_info{"
        f'record_schema="{SCHEMA_VERSION}",'
        f'progress_schema="{PROGRESS_SCHEMA_VERSION}",'
        f'git_sha="{_escape_label(git_sha())}"'
        "} 1"
    )
    lines.append(
        "# HELP repro_registry_records Run records in the registry."
    )
    lines.append("# TYPE repro_registry_records gauge")
    counts: Dict[Tuple[str, str], int] = {}
    for record in records:
        key = (record.experiment, record.kind)
        counts[key] = counts.get(key, 0) + 1
    for experiment, kind in sorted(counts):
        lines.append(
            f'repro_registry_records{{experiment="{_escape_label(experiment)}"'
            f',kind="{_escape_label(kind)}"}} {counts[(experiment, kind)]}'
        )

    lines.append(
        "# HELP repro_exec_telemetry Latest sweep-executor telemetry "
        "per experiment (quarantined wall-clock values included)."
    )
    lines.append("# TYPE repro_exec_telemetry gauge")
    latest: Dict[str, object] = {}
    for record in records:  # oldest first; last assignment wins
        if any(key.startswith("exec.") for key in record.timings):
            latest[record.experiment] = record
    for experiment in sorted(latest):
        record = latest[experiment]
        for key in sorted(record.timings):
            if not key.startswith("exec."):
                continue
            lines.append(
                f'repro_exec_telemetry{{experiment='
                f'"{_escape_label(experiment)}",'
                f'key="{_sanitize(key[len("exec."):])}"}} '
                f"{record.timings[key]}"
            )

    lines.append(
        "# HELP repro_sweep_cells Checkpointed cell states per sweep."
    )
    lines.append("# TYPE repro_sweep_cells gauge")
    throughput: List[str] = []
    etas: List[str] = []
    for sweep in sweep_dirs(root):
        state = sweep.read()
        if state.manifest is None:
            continue
        statuses = [r.status for r in state.results.values()]
        label = _escape_label(sweep.name)
        lines.append(
            f'repro_sweep_cells{{sweep="{label}",state="total"}} '
            f'{int(state.manifest.get("n_cells", 0))}'
        )
        lines.append(
            f'repro_sweep_cells{{sweep="{label}",state="done"}} '
            f'{statuses.count("ok")}'
        )
        lines.append(
            f'repro_sweep_cells{{sweep="{label}",state="quarantined"}} '
            f'{statuses.count("quarantined")}'
        )
        finished = [
            e for e in state.events if e.get("event") == "cell-finished"
        ]
        if finished:
            last = finished[-1]
            if last.get("cells_per_s") is not None:
                throughput.append(
                    f'repro_sweep_cells_per_second{{sweep="{label}"}} '
                    f'{last["cells_per_s"]}'
                )
            if last.get("eta_s") is not None:
                etas.append(
                    f'repro_sweep_eta_seconds{{sweep="{label}"}} '
                    f'{last["eta_s"]}'
                )
    # HELP/TYPE are part of the schema, not the data: emit them even
    # when a family has no samples this scrape.
    lines.append(
        "# HELP repro_sweep_cells_per_second Last streamed throughput."
    )
    lines.append("# TYPE repro_sweep_cells_per_second gauge")
    lines.extend(throughput)
    lines.append("# HELP repro_sweep_eta_seconds Last streamed ETA.")
    lines.append("# TYPE repro_sweep_eta_seconds gauge")
    lines.extend(etas)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
