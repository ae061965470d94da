"""``repro fsck``: integrity scan and repair for the runs directory.

``.repro-runs/`` is the substrate's storage tier — registry records,
sweep checkpoints (manifest + journal), span files, merged
traces, advisory locks.  Crashes (real or injected by
:class:`repro.fsio.FaultyIO`) leave characteristic damage; this
module knows every legal artifact shape, classifies the damage into
typed findings, and (with ``--repair``) restores each one to a state a
resumed sweep can trust.

Findings come in two severities:

- ``error`` — the artifact is damaged or untrustworthy and a reader
  could be misled: torn or corrupt journal entries, corrupt records /
  manifests, cells failing :func:`repro.exec.cells.cell_intact` (hash
  mismatch, or counters that do not give the hashed metrics), leaked
  ``*.tmp`` litter, stale locks of dead processes, orphaned sweep
  directories.
- ``note`` — expected residue that no reader trips over: quarantined
  ``.corrupt`` files kept as evidence, a lock held by a live process,
  torn tails in best-effort span files.

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
from typing import Dict, List

from repro.exec.cells import CellResult, SweepCell, cell_intact
from repro.exec.checkpoint import (
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
    "torn-journal",
    "corrupt-journal-entry",
    "cell-hash-mismatch",
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

def _cell_ok(result: CellResult, scale: object) -> bool:
    """:func:`~repro.exec.cells.cell_intact` for one journaled cell.

    Only ok cells carry a hash.  A cell that cannot be re-derived
    (unparseable cell id, or no sweep scale to reconstruct the spec)
    passes: absence of evidence is not treated as corruption.
    """
    if result.status != "ok" or scale is None:
        return True
    cell = SweepCell.from_cell_id(result.cell_id, scale)
    return cell is None or cell_intact(cell.to_dict(), result)


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
        if os.path.isfile(sweep.journal_path):
            findings.append(_finding(
                "missing-manifest", sweep.manifest_path,
                "journal present without a manifest "
                "(resume re-creates it from the sweep request)",
            ))
        else:
            findings.append(_finding(
                "orphaned-sweep", sweep.dir,
                "sweep directory with no manifest or journal",
                repair=f"rename to {ORPHAN_SUFFIX}",
            ))

    # ---- journal ----------------------------------------------------------
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
    mismatched = [r for _, r in state.journal if not _cell_ok(r, scale)]
    if mismatched:
        cells = sorted({r.cell_id for r in mismatched})
        findings.append(_finding(
            "cell-hash-mismatch", sweep.journal_path,
            f"{len(mismatched)} journal entr(y/ies) fail provenance "
            f"re-validation (hash, or counters that do not give the "
            f"hashed metrics): {', '.join(cells[:4])}"
            f"{'…' if len(cells) > 4 else ''}",
            repair="drop the entries (the cells rerun on --resume)",
            sweep=sweep, scale=scale,
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
        if os.path.dirname(path) == sweep.trace_dir:
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
        if _cell_ok(result, scale)
    ])


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
                      "corrupt-merged-trace"):
            if os.path.isfile(path):
                quarantine_corrupt(path)
        elif kind in ("torn-journal", "corrupt-journal-entry",
                      "cell-hash-mismatch"):
            if os.path.isfile(path):
                _repair_journal(finding.context["sweep"],
                                finding.context["scale"])
        elif kind == "stale-lock":
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        elif kind == "torn-span":
            if os.path.isfile(path):
                entries, _, _ = read_jsonl(path)
                write_jsonl_atomic(path, [
                    obj for _, obj in entries if parse_span(obj) is not None
                ])
        elif kind == "orphaned-sweep":
            if os.path.isdir(path):
                _quarantine_dir(path)
        else:
            continue
        finding.repaired = True
