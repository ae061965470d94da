"""Provenance-validated merging of sweep cells into one record.

The merge is where the executor's bit-identity promise is enforced:
before any cell contributes to the merged metrics, it must pass
:func:`repro.exec.cells.cell_intact` (the provenance hash recomputed
from the journaled (spec, metrics) pair, and any counter sample
rehydrating to exactly those metrics).  A checkpoint entry that was
corrupted on disk, hand-edited, or produced by a different sweep
configuration fails the check and aborts the merge with
:class:`~repro.errors.CellIntegrityError` — a wrong merged record is
strictly worse than no record.

Merged metric keys are ``<workload>.<platform>.s<seed>.<metric>``, a
pure function of the cell spec, so a serial run, a 16-way parallel
run, and a crashed-and-resumed run of the same matrix merge to
byte-identical metrics.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import CellIntegrityError, ExecError
from repro.exec.cells import CellResult, SweepCell, cell_intact


def validate_cell(cell: SweepCell, result: CellResult) -> None:
    """Check one cell against :func:`~repro.exec.cells.cell_intact`."""
    if not cell_intact(cell.to_dict(), result):
        raise CellIntegrityError(
            "cell result failed provenance validation; the checkpoint "
            "entry does not match the cell that was requested",
            cell=cell.cell_id,
            found=result.provenance_hash,
        )


def merge_results(
    cells: Sequence[SweepCell],
    results: Dict[str, CellResult],
    *,
    single_seed: bool = False,
) -> Dict[str, float]:
    """Combine completed cells into the merged metric namespace.

    Requires every cell to be present and valid; incomplete sweeps
    (quarantined cells) must be resolved or re-run before merging.
    """
    missing = [c.cell_id for c in cells if c.cell_id not in results]
    if missing:
        raise ExecError(
            f"cannot merge an incomplete sweep: {len(missing)} cell(s) "
            f"missing ({', '.join(missing[:4])}...)"
            if len(missing) > 4 else
            f"cannot merge an incomplete sweep: missing {', '.join(missing)}"
        )
    merged: Dict[str, float] = {}
    for cell in cells:
        result = results[cell.cell_id]
        if result.status != "ok":
            raise ExecError(
                f"cell {cell.cell_id} is {result.status}, not ok; "
                f"resolve the quarantine before merging"
            )
        validate_cell(cell, result)
        prefix = (
            f"{cell.workload}.{cell.platform}"
            if single_seed
            else f"{cell.workload}.{cell.platform}.s{cell.seed}"
        )
        for name, value in result.metrics.items():
            merged[f"{prefix}.{name}"] = value
    return merged


def telemetry_lines(telemetry: Dict[str, float]) -> List[str]:
    """Human-readable executor telemetry, stable order."""
    labels = [
        ("jobs", "workers"),
        ("cells_total", "cells in matrix"),
        ("cells_from_checkpoint", "resumed from checkpoint"),
        ("cells_run", "cell executions"),
        ("cells_ok", "completed"),
        ("cells_retried", "retries"),
        ("cells_quarantined", "quarantined"),
        ("timeouts", "cell timeouts"),
        ("stalls", "stalled workers"),
        ("worker_crashes", "worker crashes"),
        ("worker_restarts", "worker restarts"),
        ("degraded_serial", "degraded to serial"),
        ("queue_wait_s", "total queue wait (s)"),
        ("wall_s", "wall clock (s)"),
    ]
    lines = []
    for key, label in labels:
        if key in telemetry:
            value = telemetry[key]
            text = f"{value:.3f}" if key.endswith("_s") else f"{value:g}"
            lines.append(f"{label}: {text}")
    return lines
