"""``repro fsck``: integrity scan and repair for the runs directory.

``.repro-runs/`` is the substrate's storage tier — registry records,
sweep checkpoints (manifest + journal + snapshot), progress streams,
span files, merged traces, advisory locks.  Crashes (real or injected
by :class:`repro.fsio.FaultyIO`) leave characteristic damage; this
module knows every legal artifact shape, classifies the damage into
typed findings, and (with ``--repair``) restores each one to a state a
resumed sweep can trust.

Findings come in two severities:

- ``error`` — the artifact is damaged or untrustworthy and a reader
  could be misled: torn or corrupt journal entries, corrupt records /
  manifests / snapshots, snapshot entries that diverge from the
  journal, provenance-hash mismatches, leaked ``*.tmp`` litter, stale
  locks of dead processes, orphaned sweep directories.
- ``note`` — expected residue that no reader trips over: quarantined
  ``.corrupt`` files kept as evidence, snapshot-only cells (journal
  tail lost; the merge step re-validates them), a lock held by a live
  process, torn tails in best-effort observability files.

Every repair is conservative: suspect data is dropped or quarantined,
never guessed at.  A dropped cell simply reruns on ``--resume`` — the
determinism contract makes rerunning always safe — so repair can never
invent state, only shrink it back to what is provably intact.

Exit-code conventions mirror ``repro diff``: 0 clean (notes are
clean), 1 errors found (or remaining after ``--repair``), 3 runs
directory missing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.cells import CellResult, provenance_hash
from repro.exec.checkpoint import (
    CHECKPOINT_VERSION,
    ORPHAN_SUFFIX,
    SweepDir,
    SweepLock,
    is_orphan,
    sweep_dirs,
    sweeps_root,
)
from repro.exec.tracing import parse_span
from repro.fsio import (
    quarantine_corrupt,
    read_jsonl,
    write_json_atomic,
    write_jsonl_atomic,
)
from repro.obs.registry import RunRegistry

ERROR = "error"
NOTE = "note"

#: Finding kinds that are errors (everything else is a note).
_ERROR_KINDS = frozenset({
    "leaked-tmp",
    "corrupt-record",
    "corrupt-manifest",
    "corrupt-snapshot",
    "torn-journal",
    "corrupt-journal-entry",
    "cell-hash-mismatch",
    "snapshot-divergence",
    "stale-lock",
    "orphaned-sweep",
})

__all__ = [
    "ERROR",
    "NOTE",
    "Finding",
    "FsckResult",
    "fsck_scan",
    "fsck_repair",
]


@dataclass
class Finding:
    """One classified integrity problem (or benign observation)."""

    kind: str
    severity: str
    path: str
    detail: str
    #: What ``--repair`` will do (empty when nothing needs doing).
    repair: str = ""
    #: Set by the repair pass: what actually happened.
    repaired: bool = False
    #: Kind-specific repair context (e.g. the sweep's scale for
    #: provenance-hash rewrites).
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "path": self.path,
            "detail": self.detail,
            "repair": self.repair,
            "repaired": self.repaired,
        }

    def render(self) -> str:
        mark = "E" if self.severity == ERROR else "n"
        done = " [repaired]" if self.repaired else ""
        return f"[{mark}] {self.kind}: {self.path} — {self.detail}{done}"


@dataclass
class FsckResult:
    """The scan verdict over one runs directory."""

    root: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def notes(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == NOTE]

    @property
    def clean(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "clean": self.clean,
            "errors": len(self.errors),
            "notes": len(self.notes),
            "repaired": sum(1 for f in self.findings if f.repaired),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.root}: "
            f"{len(self.errors)} error(s), {len(self.notes)} note(s)"
        ]
        lines.extend(f.render() for f in self.findings)
        if self.clean:
            lines.append("clean" if not self.notes else "clean (notes only)")
        return "\n".join(lines)


def _finding(kind: str, path: str, detail: str, *, repair: str = "",
             **context) -> Finding:
    severity = ERROR if kind in _ERROR_KINDS else NOTE
    return Finding(kind=kind, severity=severity, path=path, detail=detail,
                   repair=repair, context=dict(context))


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

def _parse_cell_id(cell_id: str) -> Optional[Tuple[str, str, int]]:
    """``workload@platform+sN`` → (workload, platform, seed), or None."""
    head, sep, seed_part = cell_id.rpartition("+s")
    if not sep:
        return None
    workload, sep, platform = head.rpartition("@")
    if not sep:
        return None
    try:
        return workload, platform, int(seed_part)
    except ValueError:
        return None


def _hash_ok(result: CellResult, scale: object) -> bool:
    """Provenance re-validation of one journaled cell.

    Only ok cells carry a hash.  A cell that cannot be re-derived
    (unparseable cell id, or no sweep scale to reconstruct the spec)
    passes: absence of evidence is not treated as corruption.
    """
    parsed = _parse_cell_id(result.cell_id)
    if result.status != "ok" or parsed is None or scale is None:
        return True
    workload, platform, seed = parsed
    spec = {
        "cell_id": result.cell_id,
        "workload": workload,
        "platform": platform,
        "scale": scale,
        "seed": seed,
    }
    return result.provenance_hash == provenance_hash(spec, result.metrics)


def _is_tmp_name(name: str) -> bool:
    return ".tmp." in name or name.endswith(".tmp")


def _scan_registry_root(root: str, findings: List[Finding]) -> None:
    _, problems = RunRegistry(root).scan(quarantine=False)
    corrupt = {path: reason for path, reason, bad in problems if bad}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isdir(path):
            continue
        if _is_tmp_name(name):
            findings.append(_finding(
                "leaked-tmp", path,
                "tmp file leaked by a crashed atomic write",
                repair="remove",
            ))
        elif ".corrupt" in name:
            findings.append(_finding(
                "quarantined-artifact", path,
                "previously quarantined file kept as evidence",
            ))
        elif path in corrupt:
            findings.append(_finding(
                "corrupt-record", path,
                f"unparseable run record ({corrupt[path]})",
                repair="quarantine to .corrupt",
            ))


def _scan_sweep_dir(sweep: SweepDir, findings: List[Finding]) -> None:
    for name in sorted(os.listdir(sweep.dir)):
        path = os.path.join(sweep.dir, name)
        if os.path.isfile(path) and _is_tmp_name(name):
            findings.append(_finding(
                "leaked-tmp", path,
                "tmp file leaked by a crashed atomic write",
                repair="remove",
            ))
        elif ".corrupt" in name:
            findings.append(_finding(
                "quarantined-artifact", path,
                "previously quarantined file kept as evidence",
            ))

    state = sweep.read()
    damage = dict(state.damage)
    scale = (state.manifest or {}).get("config", {}).get("scale")

    # ---- manifest ---------------------------------------------------------
    if sweep.manifest_path in damage:
        findings.append(_finding(
            "corrupt-manifest", sweep.manifest_path,
            f"unparseable sweep manifest ({damage[sweep.manifest_path]})",
            repair="quarantine to .corrupt (resume rewrites it)",
        ))
    elif state.manifest is None:
        if os.path.isfile(sweep.journal_path) or os.path.isfile(
                sweep.snapshot_path):
            findings.append(_finding(
                "missing-manifest", sweep.manifest_path,
                "journal/snapshot present without a manifest "
                "(resume re-creates it from the sweep request)",
            ))
        else:
            findings.append(_finding(
                "orphaned-sweep", sweep.dir,
                "sweep directory with no manifest, journal or snapshot",
                repair=f"rename to {ORPHAN_SUFFIX}",
            ))

    # ---- journal ----------------------------------------------------------
    journal_state: Dict[str, List[CellResult]] = {}
    for _, result in state.journal:
        journal_state.setdefault(result.cell_id, []).append(result)
    bad = state.bad_journal_lines
    if state.torn_journal:
        findings.append(_finding(
            "torn-journal", sweep.journal_path,
            f"final journal line {bad[0]} is torn (crash mid-append)",
            repair="truncate after the last intact line",
            sweep=sweep, scale=scale,
        ))
    elif bad:
        findings.append(_finding(
            "corrupt-journal-entry", sweep.journal_path,
            f"{len(bad)} corrupt journal line(s): "
            f"{', '.join(str(n) for n in bad[:5])}"
            f"{'…' if len(bad) > 5 else ''}",
            repair="rewrite journal keeping only intact entries",
            sweep=sweep, scale=scale,
        ))
    # Provenance re-validation of ok entries (merge does this too;
    # fsck surfaces it before a resume wastes time trusting them).
    mismatched = [r for _, r in state.journal if not _hash_ok(r, scale)]
    if mismatched:
        cells = sorted({r.cell_id for r in mismatched})
        findings.append(_finding(
            "cell-hash-mismatch", sweep.journal_path,
            f"{len(mismatched)} journal entr(y/ies) fail provenance "
            f"re-validation: {', '.join(cells[:4])}"
            f"{'…' if len(cells) > 4 else ''}",
            repair="drop the entries (the cells rerun on --resume)",
            sweep=sweep, scale=scale,
        ))

    # ---- snapshot ---------------------------------------------------------
    if sweep.snapshot_path in damage:
        findings.append(_finding(
            "corrupt-snapshot", sweep.snapshot_path,
            f"unparseable snapshot ({damage[sweep.snapshot_path]}); "
            f"the journal alone reconstructs the state",
            repair="quarantine to .corrupt",
        ))
    elif state.snapshot is not None:
        divergent, snapshot_only = [], []
        for cell_id, entry in sorted(state.snapshot.items()):
            versions = journal_state.get(cell_id)
            if entry is None or (versions and entry not in versions):
                divergent.append(cell_id)
            elif versions is None:
                snapshot_only.append(cell_id)
        if divergent:
            findings.append(_finding(
                "snapshot-divergence", sweep.snapshot_path,
                f"{len(divergent)} snapshot cell(s) match no journaled "
                f"version: {', '.join(divergent[:4])}"
                f"{'…' if len(divergent) > 4 else ''}",
                repair="rebuild snapshot from the journal "
                       "(journal is authoritative)",
                sweep=sweep, scale=scale,
            ))
        if snapshot_only:
            findings.append(_finding(
                "snapshot-only-cells", sweep.snapshot_path,
                f"{len(snapshot_only)} cell(s) exist only in the "
                f"snapshot (journal tail lost before the fsio "
                f"protocol); merge re-validates their hashes",
            ))

    # ---- lock -------------------------------------------------------------
    if os.path.isfile(sweep.lock_path):
        lock = SweepLock(sweep.lock_path)
        pid = lock._holder_pid()
        if pid is not None and lock._alive(pid):
            findings.append(_finding(
                "live-lock", sweep.lock_path,
                f"sweep lock held by live pid {pid} (a resume is running)",
            ))
        else:
            detail = (
                f"stale sweep lock (holder pid {pid} is not alive)"
                if pid is not None
                else "stale sweep lock (torn or unreadable body)"
            )
            findings.append(_finding(
                "stale-lock", sweep.lock_path, detail, repair="remove",
            ))

    # ---- observability files (best-effort tier) ---------------------------
    if os.path.isdir(sweep.trace_dir):
        for name in sorted(os.listdir(sweep.trace_dir)):
            if _is_tmp_name(name):
                findings.append(_finding(
                    "leaked-tmp", os.path.join(sweep.trace_dir, name),
                    "tmp file leaked by a crashed atomic write",
                    repair="remove",
                ))
    for path, reason in state.damage:
        if path == sweep.progress_path:
            findings.append(_finding(
                "torn-progress", path, f"{reason} (readers skip them)",
                repair="rewrite keeping only intact lines",
            ))
        elif os.path.dirname(path) == sweep.trace_dir:
            findings.append(_finding(
                "torn-span", path, f"{reason} (the merge skips them)",
                repair="rewrite keeping only intact lines",
            ))
        elif path == sweep.trace_path:
            findings.append(_finding(
                "corrupt-merged-trace", path,
                f"unparseable merged trace ({reason}; derived data, "
                f"re-mergeable from the span files)",
                repair="quarantine to .corrupt",
            ))


def fsck_scan(runs_dir: str) -> FsckResult:
    """Scan one runs directory; raises FileNotFoundError if missing."""
    if not os.path.isdir(runs_dir):
        raise FileNotFoundError(runs_dir)
    result = FsckResult(root=runs_dir)
    _scan_registry_root(runs_dir, result.findings)
    root = sweeps_root(runs_dir)
    for name in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        if is_orphan(name) and os.path.isdir(os.path.join(root, name)):
            result.findings.append(_finding(
                "quarantined-artifact", os.path.join(root, name),
                "previously orphaned sweep directory kept as evidence",
            ))
    for sweep in sweep_dirs(runs_dir):
        _scan_sweep_dir(sweep, result.findings)
    return result


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

def _repair_journal(sweep: SweepDir, scale: object) -> None:
    """Keep only intact, provenance-valid journal entries."""
    write_jsonl_atomic(sweep.journal_path, [
        result.to_dict() for _, result in sweep.read().journal
        if _hash_ok(result, scale)
    ])


def _repair_snapshot(sweep: SweepDir, scale: object) -> None:
    """Rebuild the snapshot from the (authoritative) journal.

    Journaled versions win; snapshot-only cells that re-validate are
    kept (they are the journal-tail-lost survivors).
    """
    state = sweep.read()
    cells = {r.cell_id: r for _, r in state.journal}
    for entry in (state.snapshot or {}).values():
        if entry is None or entry.cell_id in cells:
            continue
        if _hash_ok(entry, scale):
            cells[entry.cell_id] = entry  # snapshot-only survivor
    write_json_atomic(sweep.snapshot_path, {
        "version": CHECKPOINT_VERSION,
        "sweep": sweep.name,
        "cells": {k: cells[k].to_dict() for k in sorted(cells)},
    })


def _quarantine_dir(path: str) -> str:
    target, n = f"{path}{ORPHAN_SUFFIX}", 1
    while os.path.exists(target):
        target = f"{path}{ORPHAN_SUFFIX}.{n}"
        n += 1
    os.replace(path, target)
    return target


def fsck_repair(result: FsckResult) -> None:
    """Apply each finding's repair in place; marks findings repaired.

    Repairs re-derive their inputs from disk (not from scan state), so
    multiple findings over the same file compose and a repeated repair
    is a no-op.  A caller wanting proof should rescan afterwards.
    """
    for finding in result.findings:
        if not finding.repair:
            continue
        kind, path = finding.kind, finding.path
        if kind == "leaked-tmp":
            try:
                os.remove(path)
            except FileNotFoundError:
                pass  # another finding's repair already swept it
        elif kind in ("corrupt-record", "corrupt-manifest",
                      "corrupt-snapshot", "corrupt-merged-trace"):
            if os.path.isfile(path):
                quarantine_corrupt(path)
        elif kind in ("torn-journal", "corrupt-journal-entry",
                      "cell-hash-mismatch"):
            if os.path.isfile(path):
                _repair_journal(finding.context["sweep"],
                                finding.context["scale"])
        elif kind == "snapshot-divergence":
            if os.path.isfile(path):
                _repair_snapshot(finding.context["sweep"],
                                 finding.context["scale"])
        elif kind == "stale-lock":
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        elif kind in ("torn-progress", "torn-span"):
            if os.path.isfile(path):
                entries, _, _ = read_jsonl(path)
                write_jsonl_atomic(path, [
                    obj for _, obj in entries
                    if kind == "torn-progress" or parse_span(obj) is not None
                ])
        elif kind == "orphaned-sweep":
            if os.path.isdir(path):
                _quarantine_dir(path)
        else:
            continue
        finding.repaired = True
