"""Live sweep progress: the terminal line and the OpenMetrics view.

A sweep's one record of execution is its span files
(:mod:`repro.exec.tracing`).  This module reads them two ways:

- :class:`TerminalRenderer` — a single carriage-return status line on
  stderr (done/total, retries, quarantines, throughput, ETA) for
  humans watching ``repro sweep --jobs N``, fed in-process by the
  :class:`~repro.exec.tracing.SweepTracer` listener with each record
  the supervisor writes.
- :func:`render_openmetrics` — an OpenMetrics-style text exposition of
  registry and executor counters (``repro metrics``), so external
  tooling can scrape a run directory without knowing our schemas.

Determinism: everything here is observation.  Nothing flows back into
cell execution or record ``metrics``.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.exec.tracing import COMMIT, SWEEP_STARTED, progress_rate
from repro.obs.tracer import Span

__all__ = [
    "TerminalRenderer",
    "render_openmetrics",
]


class TerminalRenderer:
    """One live status line, redrawn in place with carriage returns.

    :meth:`update` takes each supervisor record as a :class:`Span`
    and computes the rate and ETA itself from the run's start and its
    commits.
    """

    def __init__(self, out=None):
        self.out = out if out is not None else sys.stderr
        self._dirty = False
        self._width = 0
        self._retried = 0
        self._quarantined = 0
        self._started: Optional[Span] = None
        self._commit: Optional[Span] = None

    def update(self, record: Span) -> None:
        if record.kind == "instant" and record.name == SWEEP_STARTED:
            self._started, self._commit = record, None
        elif record.kind == "instant" and record.name == COMMIT:
            self._commit = record
        elif record.kind == "instant" and record.cat == "retry":
            self._retried += 1
        elif record.kind == "instant" and record.cat == "quarantine":
            self._quarantined += 1
        elif not (record.kind == "span" and record.cat == "sweep"):
            return
        started, commit = self._started, self._commit
        if started is None:
            return
        done = (commit or started).args.get(
            "done", started.args.get("from_checkpoint", 0))
        parts = [f"sweep {done}/{started.args.get('total', 0)} cells"]
        if self._retried:
            parts.append(f"{self._retried} retried")
        if self._quarantined:
            parts.append(f"{self._quarantined} quarantined")
        if commit is not None:
            rate, eta = progress_rate(started, commit)
            if rate:
                parts.append(f"{rate:.2f} cells/s")
            if eta is not None:
                parts.append(f"eta {eta:.0f}s")
        if record.kind == "span":
            parts.append("done")
        line = " | ".join(parts)
        self._width = max(self._width, len(line))
        try:
            self.out.write("\r" + line.ljust(self._width))
            self.out.flush()
            self._dirty = True
        except (OSError, ValueError):  # repro: allow[ERR002]
            pass  # terminal cosmetics; the span files are the record

    def close(self) -> None:
        if self._dirty:
            try:
                self.out.write("\n")
                self.out.flush()
            except (OSError, ValueError):  # repro: allow[ERR002]
                pass  # terminal cosmetics; nothing durable is lost
            self._dirty = False


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

    Scrapes are read-only over the run directory (one
    :func:`repro.obs.observatory.build_model` pass): registry record
    counts per (experiment, kind), the latest ``exec.*`` telemetry of
    every experiment that has any, and per-sweep checkpoint progress
    (total/done/quarantined cells plus the throughput and ETA as of
    the latest commit in the sweep's span files).

    OpenMetrics framing: every metric family gets ``# HELP`` and
    ``# TYPE`` lines (emitted even when the family has no samples, so
    scrapers learn the full schema from any scrape), a constant
    ``repro_build_info`` gauge carries the record schema version and
    git SHA, and the exposition terminates with ``# EOF``.
    """

    from repro.obs.observatory import build_model
    from repro.obs.registry import SCHEMA_VERSION, git_sha, runs_dir_default

    root = runs_dir if runs_dir is not None else runs_dir_default()
    model = build_model(root, fsck=False)
    records = model.records

    lines: List[str] = []
    lines.append(
        "# HELP repro_build_info Constant gauge carrying the record "
        "schema version and build identity."
    )
    lines.append("# TYPE repro_build_info gauge")
    lines.append(
        "repro_build_info{"
        f'record_schema="{SCHEMA_VERSION}",'
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
    for view in model.sweeps:
        if not view.manifest:
            continue
        label = _escape_label(view.sweep)
        for state, count in (("total", view.n_cells), ("done", view.done),
                             ("quarantined", view.quarantined)):
            lines.append(
                f'repro_sweep_cells{{sweep="{label}",state="{state}"}} '
                f"{count}"
            )
        rate, eta = view.rate
        if rate is not None:
            throughput.append(
                f'repro_sweep_cells_per_second{{sweep="{label}"}} {rate}'
            )
        if eta is not None:
            etas.append(f'repro_sweep_eta_seconds{{sweep="{label}"}} {eta}')
    # HELP/TYPE are part of the schema, not the data: emit them even
    # when a family has no samples this scrape.
    lines.append(
        "# HELP repro_sweep_cells_per_second Throughput as of the "
        "latest commit."
    )
    lines.append("# TYPE repro_sweep_cells_per_second gauge")
    lines.extend(throughput)
    lines.append(
        "# HELP repro_sweep_eta_seconds ETA as of the latest commit."
    )
    lines.append("# TYPE repro_sweep_eta_seconds gauge")
    lines.extend(etas)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
