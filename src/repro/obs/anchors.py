"""Paper-fidelity anchors: the published numbers we must stay near.

Each :class:`Anchor` pins one registry metric (as emitted by an
experiment's ``fidelity_metrics()``) to the value the paper reports for
it, with a tolerance band.  Evaluation is three-way:

- **pass** — within the band (``max(abs_tol, rel_tol * |paper|)``);
- **warn** — outside the band but within ``warn_factor`` times it
  (drifting, worth a look, not yet a broken reproduction);
- **fail** — beyond the warn band, or the metric is missing from the
  record entirely.

The bands are wider than a unit test's: this simulator reproduces the
paper's *shape* (branch ratios near 19%, IPC near 1.3, an L1I MPKI gap
of an order of magnitude between MPI and the JVM stacks), not its exact
counter readouts, and the band encodes how far the reproduction may
wander before the story it tells stops being the paper's.

Bands are calibrated at the CLI's default ``--scale 0.5``; running the
experiments at much smaller scales shifts the sampled mixes and will
legitimately push some anchors from pass into warn.

Most of the paper's findings are orderings (HPCC > PARSEC > SPECINT
IPC); an :class:`Ordering` states one, and only passes or fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.obs.registry import RunRecord

PASS, WARN, FAIL = "pass", "warn", "fail"


@dataclass(frozen=True)
class Anchor:
    """One paper number and how far a reproduction may stray from it."""

    experiment: str
    metric: str
    paper_value: float
    rel_tol: float = 0.25
    abs_tol: float = 0.0
    warn_factor: float = 2.0
    source: str = ""

    @property
    def band(self) -> float:
        return max(self.abs_tol, self.rel_tol * abs(self.paper_value))

    def status(self, value: Optional[float]) -> str:
        if value is None:
            return FAIL
        deviation = abs(value - self.paper_value)
        if deviation <= self.band:
            return PASS
        if deviation <= self.warn_factor * self.band:
            return WARN
        return FAIL

    @property
    def band_label(self) -> str:
        return f"±{self.band:.3g}"

    def evaluate(self, metrics: Dict[str, float]) -> Tuple[Optional[float], str]:
        value = metrics.get(self.metric)
        return value, self.status(value)


def _star_keys(name: str, metrics: Dict[str, float]) -> Set[str]:
    """What ``*`` in ``name`` matches among the metric names ({""} if none)."""
    if "*" not in name:
        return {""}
    pattern = re.compile(re.escape(name).replace(r"\*", "(.+)"))
    return {match.group(1) for match in map(pattern.fullmatch, metrics) if match}


@dataclass(frozen=True)
class Ordering:
    """A paper claim that metric ``lower`` reads below metric ``higher``.

    A ``*`` in both names ranges over the same key set, which states the
    claim for every workload.  The check's value is the worst margin
    ``higher - lower``: positive passes, anything else fails, and so
    does a missing metric or a ``*`` that matches no key.  The paper
    gives an order, not a number, so there is no paper value or band.
    """

    experiment: str
    lower: str
    higher: str
    source: str = ""

    paper_value = None
    band = None
    band_label = "margin > 0"

    @property
    def metric(self) -> str:
        return f"{self.lower} < {self.higher}"

    def evaluate(self, metrics: Dict[str, float]) -> Tuple[Optional[float], str]:
        keys = _star_keys(self.lower, metrics) | _star_keys(self.higher, metrics)
        pairs = [
            (metrics.get(self.lower.replace("*", key)),
             metrics.get(self.higher.replace("*", key)))
            for key in sorted(keys)
        ]
        if not pairs or any(None in pair for pair in pairs):
            return None, FAIL
        margin = min(higher - lower for lower, higher in pairs)
        return margin, PASS if margin > 0 else FAIL


@dataclass(frozen=True)
class AnchorCheck:
    """One anchor evaluated against one run record."""

    anchor: Union[Anchor, Ordering]
    value: Optional[float]
    status: str
    run_id: str = ""


#: The anchor table: Wang et al., figures 1-9 and tables 1-4.  A known
#: deviation stays in the table, failing, with its ``source`` saying so.
PAPER_ANCHORS: List[Union[Anchor, Ordering]] = [
    # -- Figure 1 / §5.1: instruction mix ---------------------------------
    Anchor("fig1", "bigdata.ratio_branch", 0.187, rel_tol=0.15,
           source="Fig. 1 / §5.1 branch ratio"),
    Anchor("fig1", "bigdata.ratio_integer", 0.38, rel_tol=0.15,
           source="Fig. 1 / §5.1 integer ratio"),
    # -- Figure 2 / §5.1: integer breakdown --------------------------------
    Anchor("fig2", "avg.int_addr", 0.42, rel_tol=0.25,
           source="Fig. 2 address-integer share"),
    Anchor("fig2", "avg.data_movement", 0.48, rel_tol=0.25,
           source="§5.1 data-movement share"),
    # -- Figure 3: IPC ------------------------------------------------------
    Anchor("fig3", "bigdata.ipc", 1.28, rel_tol=0.15,
           source="Fig. 3 big-data mean IPC"),
    Anchor("fig3", "group.category: service.ipc", 0.8, rel_tol=0.30,
           source="Fig. 3 service-subclass IPC"),
    Ordering("fig3", "suite.SPECINT.ipc", "suite.PARSEC.ipc",
             source="Fig. 3 PARSEC IPC above SPECINT"),
    Ordering("fig3", "suite.PARSEC.ipc", "suite.HPCC.ipc",
             source="Fig. 3 HPCC IPC above PARSEC"),
    # -- Figure 4: cache MPKI ----------------------------------------------
    Anchor("fig4", "bigdata.l1i_mpki", 15.0, rel_tol=0.35,
           source="Fig. 4 L1I MPKI mean"),
    Anchor("fig4", "bigdata.l2_mpki", 11.0, rel_tol=0.40,
           source="Fig. 4 L2 MPKI mean"),
    Anchor("fig4", "bigdata.l3_mpki", 1.2, rel_tol=0.50,
           source="Fig. 4 L3 MPKI mean"),
    *[Ordering("fig4", f"suite.{suite}.l1i_mpki", "bigdata.l1i_mpki",
               source=f"Fig. 4 big-data L1I MPKI above {suite}")
      for suite in ("SPECINT", "SPECFP", "PARSEC", "HPCC")],
    Ordering("fig4", "bigdata.l1i_mpki", "suite.CloudSuite.l1i_mpki",
             source="Fig. 4 big-data L1I MPKI below CloudSuite"),
    *[Ordering("fig4", "bigdata.l3_mpki", f"suite.{suite}.l3_mpki",
               source=f"Fig. 4 big-data L3 MPKI below {suite}")
      for suite in ("SPECINT", "SPECFP", "PARSEC", "HPCC", "CloudSuite",
                    "TPC-C")],
    *[Ordering("fig4", "bigdata.l2_mpki", f"suite.{suite}.l2_mpki",
               source=f"Fig. 4 big-data L2 MPKI below {suite} (known "
                      "deviation: the model's L2 reads above SPEC)")
      for suite in ("SPECINT", "SPECFP")],
    # -- Figure 5: TLB MPKI -------------------------------------------------
    Anchor("fig5", "bigdata.itlb_mpki", 0.05, rel_tol=0.60, abs_tol=0.06,
           source="Fig. 5 ITLB MPKI mean"),
    Anchor("fig5", "bigdata.dtlb_mpki", 0.9, rel_tol=0.50,
           source="Fig. 5 DTLB MPKI mean"),
    # -- Figures 6-9: locality knees ---------------------------------------
    Anchor("fig-locality", "knee_kb.Hadoop-workloads", 1024.0, rel_tol=0.0,
           abs_tol=512.0, source="Fig. 6 Hadoop instruction footprint"),
    Anchor("fig-locality", "knee_kb.PARSEC-workloads", 128.0, rel_tol=0.0,
           abs_tol=96.0, source="Fig. 6 PARSEC instruction footprint"),
    Ordering("fig-locality", "knee_kb.PARSEC-workloads",
             "knee_kb.Hadoop-workloads",
             source="Fig. 6 Hadoop footprint above PARSEC's"),
    Ordering("fig-locality", "start.instruction.PARSEC-workloads",
             "start.instruction.Hadoop-workloads",
             source="Fig. 6 Hadoop small-cache miss ratio above PARSEC's"),
    # -- Table 2 / §3: the 77 -> 17 reduction ------------------------------
    Anchor("table2", "summary.n_clusters", 17.0, rel_tol=0.0,
           source="Table 2 cluster count"),
    Anchor("table2", "summary.members_total", 77.0, rel_tol=0.0,
           source="Table 2 catalog size"),
    Anchor("table2", "summary.representative_hits", 17.0, rel_tol=0.2,
           source="Table 2 representative placement"),
    # -- Table 4 / §5.1: branch prediction by platform ----------------------
    Anchor("table4", "summary.e5645_mispred", 0.028, rel_tol=0.30,
           abs_tol=0.010, source="Table 4 E5645 misprediction"),
    Anchor("table4", "summary.d510_mispred", 0.078, rel_tol=0.30,
           source="Table 4 D510 misprediction"),
    Ordering("table4", "workload.*.e5645_mispred", "workload.*.d510_mispred",
             source="§5.1 Atom mispredicts more than Xeon, every workload"),
    # -- §5.5: the software-stack study ------------------------------------
    Anchor("stacks", "summary.ipc_gap", 0.21, rel_tol=0.0, abs_tol=0.22,
           source="§5.5 MPI-vs-JVM IPC gap"),
    Anchor("stacks", "summary.l1i_ratio", 3.7, rel_tol=0.45,
           source="§5.5 L1I MPKI stack ratio"),
    Ordering("stacks", "others_avg.ipc", "mpi_avg.ipc",
             source="§5.5 MPI IPC above Hadoop/Spark"),
    Ordering("stacks", "mpi_avg.l1i_mpki", "others_avg.l1i_mpki",
             source="§5.5 MPI L1I MPKI below Hadoop/Spark"),
    Ordering("stacks", "mpi_avg.l2_mpki", "others_avg.l2_mpki",
             source="§5.5 MPI L2 MPKI below Hadoop/Spark"),
    # -- §3.2 / Table 2: system-behaviour classification --------------------
    Anchor("system", "summary.match_ratio", 1.0, rel_tol=0.0, abs_tol=0.20,
           source="§3.2 Table 2 behaviour column"),
    # -- §4.1 fault story: who survives a node crash ------------------------
    Anchor("faults", "stack.Hadoop.recovered", 1.0, rel_tol=0.0,
           source="§4.1 Hadoop task-level recovery"),
    Anchor("faults", "stack.Spark.recovered", 1.0, rel_tol=0.0,
           source="§4.1 Spark lineage recovery"),
    Anchor("faults", "stack.MPI.recovered", 0.0, rel_tol=0.0,
           source="§4.1 MPI whole-job abort"),
]


def anchors_for(experiment: str) -> List[Union[Anchor, Ordering]]:
    """The anchor subset pinned to one experiment."""
    return [a for a in PAPER_ANCHORS if a.experiment == experiment]


def anchored_experiments() -> List[str]:
    """Experiments that have at least one anchor, in table order."""
    seen: List[str] = []
    for anchor in PAPER_ANCHORS:
        if anchor.experiment not in seen:
            seen.append(anchor.experiment)
    return seen


def evaluate_record(record: RunRecord) -> List[AnchorCheck]:
    """Score one run record against its experiment's anchors."""
    checks = []
    for anchor in anchors_for(record.experiment):
        value, status = anchor.evaluate(record.metrics)
        checks.append(AnchorCheck(anchor, value, status, record.run_id))
    return checks


def summarize(checks: List[AnchorCheck]) -> Dict[str, int]:
    """``{"pass": n, "warn": n, "fail": n}`` for a batch of checks."""
    counts = {PASS: 0, WARN: 0, FAIL: 0}
    for check in checks:
        counts[check.status] += 1
    return counts
