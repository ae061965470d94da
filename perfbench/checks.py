"""Correctness checks on each regenerated figure's run record.

Every function returns a list of problems; an empty list means the
output passed.  The checks read the record the command wrote to disk
(so the registry write is checked too), test the figure's structural
and model invariants, and recompute one seed-chosen cell of ``fig4``
and ``system`` through the library to cross-check the figure against
it.
"""

from __future__ import annotations

import math
from typing import List

#: workload -> (record ``experiment``, record ``kind``).
EXPECTED = {
    "fig4": ("fig4", "figure"),
    "locality": ("fig-locality", "figure"),
    "system": ("system", "experiment"),
}

LEVELS = ("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki")

#: Relative tolerance for re-deriving an average from its terms.
MEAN_TOLERANCE = 1e-9


def check(workload: str, code: int, text: str, record, scale: float,
          seed: int) -> List[str]:
    """Problems with one regeneration's exit code, output and record."""
    if code != 0:
        return [f"{workload}: exit code {code}"]
    if record is None:
        return [f"{workload}: no single run record was written"]
    experiment, kind = EXPECTED[workload]
    problems = []
    if (record.get("experiment"), record.get("kind")) != (experiment, kind):
        problems.append(
            f"{workload}: record is {record.get('experiment')!r}/"
            f"{record.get('kind')!r}, expected {experiment!r}/{kind!r}"
        )
    provenance = record.get("provenance", {})
    if (provenance.get("seed"), provenance.get("scale")) != (seed, scale):
        problems.append(f"{workload}: record provenance {provenance!r} "
                        f"does not name seed {seed}, scale {scale}")
    if record.get("run_id", "") not in text or not record.get("run_id"):
        problems.append(f"{workload}: output does not name the record")
    metrics = record.get("metrics", {})
    if not metrics:
        problems.append(f"{workload}: record has no metrics")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        problems.append(f"{workload}: non-finite metrics {bad[:5]}")
    problems += _FIGURE_CHECKS[workload](metrics)
    return problems


def _check_fig4(metrics) -> List[str]:
    from repro.comparison import SUITES
    from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

    problems = []
    ids = [d.workload_id for d in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS]
    rows = [f"workload.{i}" for i in ids] + [f"suite.{s}" for s in SUITES]
    for row in rows:
        values = [metrics.get(f"{row}.{level}") for level in LEVELS]
        if None in values:
            problems.append(f"fig4: {row} lacks a cache level")
            continue
        l1i, l1d, l2, l3 = values
        if min(values) < 0:
            problems.append(f"fig4: {row} has a negative MPKI")
        # Each level sees only the misses of the level above it.
        if row.startswith("workload.") and not l3 <= l2 <= l1i + l1d:
            problems.append(f"fig4: {row} MPKI not monotone down the "
                            f"hierarchy ({l1i}, {l1d}, {l2}, {l3})")
    representatives = [d.workload_id for d in REPRESENTATIVE_WORKLOADS]
    for level in LEVELS:
        values = [metrics.get(f"workload.{i}.{level}", math.nan)
                  for i in representatives]
        mean = sum(values) / len(values)
        reported = metrics.get(f"bigdata.{level}", math.nan)
        if not math.isclose(reported, mean, rel_tol=MEAN_TOLERANCE):
            problems.append(f"fig4: bigdata.{level} {reported} is not the "
                            f"mean of the representatives ({mean})")
    return problems


def _check_locality(metrics) -> List[str]:
    from repro.uarch.simulator import DEFAULT_SIZES_KB

    problems = []
    labels = ("Hadoop-workloads", "PARSEC-workloads", "MPI-workloads")
    for label in labels:
        knee = metrics.get(f"knee_kb.{label}")
        if knee not in DEFAULT_SIZES_KB:
            problems.append(f"locality: {label} knee {knee} is not a "
                            f"swept size")
    curves = sorted({k.split(".", 1)[1] for k in metrics
                     if k.startswith("floor.")})
    if len(curves) != 7:
        problems.append(f"locality: expected 7 curves, found {curves}")
    for curve in curves:
        start = metrics.get(f"start.{curve}", math.nan)
        floor = metrics.get(f"floor.{curve}", math.nan)
        if not 0.0 <= floor <= start <= 1.0:
            problems.append(f"locality: {curve} miss ratios out of order "
                            f"(floor {floor}, start {start})")
    # Figures 6 and 9: the Hadoop instruction footprint dwarfs both
    # PARSEC's and the MPI versions' of the same algorithms.
    hadoop = metrics.get("start.instruction.Hadoop-workloads", math.nan)
    for other in ("PARSEC-workloads", "MPI-workloads"):
        if not hadoop > metrics.get(f"start.instruction.{other}", math.inf):
            problems.append(f"locality: Hadoop instruction miss ratio does "
                            f"not exceed {other} at the smallest size")
    return problems


def _check_system(metrics) -> List[str]:
    from repro.workloads import REPRESENTATIVE_WORKLOADS

    problems = []
    ids = [d.workload_id for d in REPRESENTATIVE_WORKLOADS]
    matches = 0.0
    for workload_id in ids:
        row = f"workload.{workload_id}"
        utilization = metrics.get(f"{row}.cpu_utilization", math.nan)
        io_wait = metrics.get(f"{row}.io_wait_ratio", math.nan)
        weighted = metrics.get(f"{row}.weighted_io_time_ratio", math.nan)
        if not (0.0 <= utilization <= 1.0 and io_wait >= 0.0
                and weighted >= 0.0):
            problems.append(f"system: {row} utilisation out of range")
        matches += metrics.get(f"{row}.matches", math.nan)
    if metrics.get("summary.total") != len(ids):
        problems.append(f"system: summary.total is not {len(ids)}")
    if metrics.get("summary.matches") != matches:
        problems.append("system: summary.matches disagrees with the rows")
    return problems


_FIGURE_CHECKS = {
    "fig4": _check_fig4,
    "locality": _check_locality,
    "system": _check_system,
}


def same_metrics(records) -> List[str]:
    """Regenerations with one seed must report identical metrics."""
    first = records[0]["metrics"] if records[0] else None
    for index, record in enumerate(records[1:], start=1):
        if record and record["metrics"] != first:
            return [f"regeneration {index} differs from regeneration 0"]
    return []


def cross_check(workload: str, record, scale: float, seed: int) -> List[str]:
    """Recompute one seed-chosen cell through the library and compare."""
    if record is None:
        return []
    metrics = record["metrics"]
    if workload == "fig4":
        from repro.experiments import ExperimentContext
        from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

        definitions = REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS
        workload_id = definitions[seed % len(definitions)].workload_id
        fresh = ExperimentContext(scale=scale, seed=seed).counters(
            workload_id).metric_dict()
        for level in LEVELS:
            if metrics.get(f"workload.{workload_id}.{level}") != fresh[level]:
                return [f"fig4: {workload_id} {level} differs from a fresh "
                        f"characterization"]
    elif workload == "system":
        from repro.system.classify import characterize_system
        from repro.workloads import REPRESENTATIVE_WORKLOADS

        definition = REPRESENTATIVE_WORKLOADS[
            seed % len(REPRESENTATIVE_WORKLOADS)]
        fresh = characterize_system(definition, scale=scale, seed=seed)
        row = f"workload.{definition.workload_id}"
        if (metrics.get(f"{row}.cpu_utilization")
                != fresh.metrics.cpu_utilization):
            return [f"system: {definition.workload_id} differs from a "
                    f"fresh classification"]
    return []
