"""Figures 1-5, Table 4 and §5.5: counter metrics of workloads, side by side.

Each of the seven artefacts is a table with one row per workload and
one value per column, plus summary values over subsets of those rows.
A :class:`CounterFigure` spec names its rows, its columns and its
summaries as data; its ``run(context)`` builds them.

- Figures 1, 3, 4 and 5 show some of the 45 metrics for the 17
  representatives and the six MPI versions, with the mean of each
  comparison suite, of each application-category and system-behaviour
  subclass of the representatives, and of all 17 (the big data mean).
- Figure 2 shows each representative's declared integer breakdown and
  §5.1's data-movement shares, and characterizes nothing.
- Table 4 reads the branch misprediction ratio of the representatives
  on the Xeon E5645 and on the Atom D510, and §5.2's per-core slowdown.
- §5.5 compares the MPI, Hadoop and Spark versions of six algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.comparison import SUITES
from repro.experiments.runner import ExperimentContext
from repro.obs.registry import flatten_rows
from repro.report.tables import render_table
from repro.uarch.isa import data_movement_share, data_movement_with_branches
from repro.uarch.platforms import ATOM_D510, XEON_E5645, Platform
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

#: Application-category and system-behaviour subclasses of the
#: representatives ("from the application category dimension ...").
CATEGORY_GROUPS = ("data analysis", "service", "interactive analysis")
BEHAVIOR_GROUPS = ("CPU-Intensive", "IO-Intensive", "Hybrid")

_SUBCLASSES = (
    ("category", CATEGORY_GROUPS, lambda d: d.category.value),
    ("behavior", BEHAVIOR_GROUPS, lambda d: d.expected_system_behavior.value),
)

#: The 17 representatives, in Table 2 order.
REPRESENTATIVES = tuple(d.workload_id for d in REPRESENTATIVE_WORKLOADS)

#: ``(key, fn)``: the record metric ``key`` is ``fn(result, context)``,
#: evaluated in order, so a summary may read the ones before it.
Summary = Tuple[str, Callable[["CounterFigureResult", ExperimentContext],
                              float]]


def mean(values: List[float]) -> float:
    """``sum / len``: the mean of Figures 1, 3, 4 and 5 and of §5.5."""
    return sum(values) / len(values)


def running_mean(values: List[float]) -> float:
    """``+= value / n``: the mean of Figure 2 and Table 4.

    It can differ from :func:`mean` in the last bit, and the committed
    ``fig2`` and ``table4`` baselines were recorded with it, so moving
    them to :func:`mean` is a number change (ROADMAP item 1).
    """
    total = 0.0
    for value in values:
        total += value / len(values)
    return total


@dataclass(frozen=True)
class Column:
    """One value per row: ``metric`` (default ``name``) read on
    ``platform``, or ``derive(context, workload_id)`` when given.  The
    column's platform is one the record names."""

    name: str
    metric: str = ""
    platform: Platform = XEON_E5645
    derive: Optional[Callable[[ExperimentContext, str], float]] = None

    def read(self, context: ExperimentContext, workload_id: str) -> float:
        if self.derive is not None:
            return self.derive(context, workload_id)
        metric = self.metric or self.name
        counters = context.counters(workload_id, self.platform)
        return counters.metrics((metric,))[metric]


@dataclass(frozen=True)
class CounterFigure:
    """Which workloads one artefact shows, what it reads for each, and
    what it summarises."""

    title: str
    rows: Tuple[str, ...]
    columns: Tuple[Column, ...]
    summaries: Tuple[Summary, ...]
    #: The comparison suites the summaries read (on the Xeon).
    suites: Tuple[str, ...] = ()

    @property
    def cells(self) -> List[Tuple[str, Platform]]:
        """The ``(workload, platform)`` characterizations ``run`` reads,
        which ``--jobs`` primes."""
        platforms = dict.fromkeys(
            c.platform for c in self.columns if c.derive is None)
        return [(w, p) for p in platforms for w in self.rows]

    @property
    def platforms(self) -> List[str]:
        """The platform names the run record carries."""
        return list(dict.fromkeys(c.platform.name for c in self.columns))

    def run(self, context: ExperimentContext) -> "CounterFigureResult":
        """Regenerate this artefact's data.

        First characterizes its cells and suites concurrently
        (:meth:`ExperimentContext.fill`).  Reads only the metrics its
        columns and summaries name, so a figure of cache, TLB or mix
        metrics never runs the deferred branch replay.
        """
        context.fill(self.cells, self.suites)
        result = CounterFigureResult(self)
        for workload_id in self.rows:
            result.workload_rows.append(
                [workload_id]
                + [c.read(context, workload_id) for c in self.columns])
        for key, summarise in self.summaries:
            result.summary[key] = summarise(result, context)
        return result


@dataclass
class CounterFigureResult:
    """One counter artefact's workload rows and summaries."""

    figure: CounterFigure
    workload_rows: List[list] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)

    def column(self, name: str,
               rows: Optional[Collection[str]] = None) -> List[float]:
        """Column ``name`` of ``rows`` (default: every row), in row order."""
        index = 1 + [c.name for c in self.figure.columns].index(name)
        return [row[index] for row in self.workload_rows
                if rows is None or row[0] in rows]

    def fidelity_metrics(self) -> dict:
        """Registry metrics: every row's values plus the summaries."""
        headers = ["workload", *(c.name for c in self.figure.columns)]
        metrics = flatten_rows("workload", headers, self.workload_rows)
        metrics.update(self.summary)
        return metrics

    def to_dict(self) -> dict:
        """The rows and summaries as one document (the §5.5 record's
        series): ``<prefix>.<name>`` nests under ``prefix``, except that
        ``summary.<name>`` is top level."""
        document = {"rows": [list(row) for row in self.workload_rows]}
        for key, value in self.summary.items():
            prefix, _, name = key.partition(".")
            if prefix == "summary":
                document[name] = value
            else:
                document.setdefault(prefix, {})[name] = value
        return document

    def render(self) -> str:
        """The workload table, a table per ``<prefix>.<row>.<name>``
        summary family, and a line per ``<prefix>.<name>`` family."""
        parts = [render_table(
            ["workload", *(c.name for c in self.figure.columns)],
            self.workload_rows, title=self.figure.title)]
        tables: Dict[str, Dict[str, dict]] = {}
        lines: Dict[str, List[str]] = {}
        for key, value in self.summary.items():
            prefix, _, rest = key.partition(".")
            row, _, name = rest.rpartition(".")
            if row:
                tables.setdefault(prefix, {}).setdefault(row, {})[name] = value
            else:
                lines.setdefault(prefix, []).append(f"{name} {value:.4g}")
        for prefix, rows in tables.items():
            names = list(dict.fromkeys(n for r in rows.values() for n in r))
            parts.append(render_table(
                [prefix, *names],
                [[row, *values.values()] for row, values in rows.items()],
                title=f"\n{prefix} averages"))
        if lines:
            parts.append("\n" + "\n".join(
                f"{prefix}: " + ", ".join(items)
                for prefix, items in lines.items()))
        return "\n".join(parts)


def _column_means(prefix: str, names, rows: Optional[Collection[str]] = None,
                 rule=mean) -> Tuple[Summary, ...]:
    """``<prefix>.<name>``: ``rule`` over column ``name`` in ``rows``."""
    return tuple(
        (f"{prefix}.{name}",
         lambda result, _context, name=name: rule(result.column(name, rows)))
        for name in names
    )


def _ratio(key: str, top: str, bottom: str) -> Summary:
    """``key``: summary ``top`` over summary ``bottom``, floored at 1e-9."""
    return (key, lambda result, _context: result.summary[top] / max(
        1e-9, result.summary[bottom]))


def _figure(title: str, metrics, group_metrics, bigdata_metrics,
            *derived: Summary) -> CounterFigure:
    """Figures 1, 3, 4 and 5: ``metrics`` for every workload and as each
    suite's mean, ``group_metrics`` as each subclass mean and
    ``bigdata_metrics`` as the big data mean."""
    suites = tuple(
        (f"suite.{suite}.{name}",
         lambda _result, context, suite=suite, name=name: mean(
             [c.metrics((name,))[name]
              for c in context.suite_counters(suite)]))
        for suite in SUITES for name in metrics
    )
    groups = tuple(
        summary
        for kind, groups, group_of in _SUBCLASSES for group in groups
        for summary in _column_means(
            f"group.{kind}: {group}", group_metrics,
            {d.workload_id for d in REPRESENTATIVE_WORKLOADS
             if group_of(d) == group})
    )
    return CounterFigure(
        title=title,
        rows=REPRESENTATIVES + tuple(d.workload_id for d in MPI_WORKLOADS),
        columns=tuple(Column(name) for name in metrics),
        summaries=(suites + groups
                   + _column_means("bigdata", bigdata_metrics, REPRESENTATIVES)
                   + derived),
        suites=tuple(SUITES),
    )


# Paper reference points: big data branch ratio 18.7% (service 18%, data
# analysis 19%, interactive 19%; CPU 19%, I/O 18%, hybrid 19%) and
# integer ratio 38% (service 40%, data analysis 38%, interactive 38%;
# CPU 37%, I/O 39%, hybrid 38%), against SPECINT 41%, CloudSuite 34% and
# TPC-C 33% integer and TPC-C's 30% branch ratio (§5.1).
FIG1 = _figure(
    "Figure 1 — instruction breakdown",
    ("ratio_integer", "ratio_fp", "ratio_branch", "ratio_load",
     "ratio_store"),
    ("ratio_branch", "ratio_integer"),
    ("ratio_branch", "ratio_integer"),
)


def _declared(read) -> Callable[[ExperimentContext, str], float]:
    """A Figure 2 column: ``read(profile)`` of the workload's declared
    behaviour profile, so no workload is characterized."""
    return lambda context, workload_id: read(
        context.result(workload_id).profile)


# The paper instruments the source code and finds, on average, 64% of
# integer instructions calculating integer-array addresses, 18%
# calculating floating-point-array addresses and 18% other computation,
# and combines this with Figure 1 into §5.1's headline statistic: ~73%
# of all instructions are data movement (load/store + address
# arithmetic), rising to 92% with branches included.
_FIG2_COLUMNS = (
    Column("int_addr", derive=_declared(lambda p: p.int_breakdown.int_addr)),
    Column("fp_addr", derive=_declared(lambda p: p.int_breakdown.fp_addr)),
    Column("other", derive=_declared(lambda p: p.int_breakdown.other)),
    Column("data_movement", derive=_declared(
        lambda p: data_movement_share(p.mix, p.int_breakdown))),
    Column("with_branches", derive=_declared(
        lambda p: data_movement_with_branches(p.mix, p.int_breakdown))),
)
FIG2 = CounterFigure(
    title="Figure 2 — integer instruction breakdown",
    rows=REPRESENTATIVES,
    columns=_FIG2_COLUMNS,
    summaries=_column_means("avg", [c.name for c in _FIG2_COLUMNS],
                           rule=running_mean),
)

# Paper reference points: big data IPC 1.28 vs SPECFP 1.1, SPECINT 0.9,
# PARSEC 1.28, HPCC 1.5; subclass IPC (service 0.8, data analysis 1.2,
# interactive 1.3; CPU 1.3, I/O 1.2, hybrid 1.3); H-Read 0.8, S-Project
# 1.6, S-TPC-DS-query8 1.7 and a CloudSuite service average of 0.9.
# §5.1: "The E5645 processors can achieve 57.6 GFLOPS in theory, but the
# average floating point performance of big data workloads is about 0.1
# GFLOPS", so the record carries the share of peak the mean reaches.
FIG3 = _figure(
    "Figure 3 — IPC and GFLOPS (Xeon E5645)",
    ("ipc", "gflops"),
    ("ipc",),
    ("ipc", "gflops"),
    ("bigdata.fp_utilization",
     lambda result, context:
     result.summary["bigdata.gflops"] / context.xeon.peak_gflops),
)

# Paper reference points: big data L1I MPKI 15 (CloudSuite 32), L2 11,
# L3 1.2; L1I per subclass (service 51, data analysis 13, interactive
# 14; CPU 8, I/O 22, hybrid 9); H-Read's L1I of 51; L2 per category
# (service 32, data analysis 11, interactive 8); L3 per category
# (service 1.2, data analysis 1.7, interactive 0.8).
FIG4 = _figure(
    "Figure 4 — cache MPKI (Xeon E5645)",
    ("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki"),
    ("l1i_mpki", "l2_mpki", "l3_mpki"),
    ("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki"),
)

# Paper reference points: big data ITLB MPKI 0.05 and DTLB MPKI 0.9;
# ITLB per category (service 0.2, data analysis 0.04, interactive
# 0.04); DTLB per category (service 1.8, data analysis 1.1, interactive
# 0.5); CloudSuite above, HPCC/PARSEC at or below the big data numbers.
FIG5 = _figure(
    "Figure 5 — TLB MPKI (Xeon E5645)",
    ("itlb_mpki", "dtlb_mpki"),
    ("itlb_mpki", "dtlb_mpki"),
    ("itlb_mpki", "dtlb_mpki"),
)


def _slowdown(context: ExperimentContext, workload_id: str) -> float:
    """Xeon IPC×GHz over Atom IPC×GHz: the per-core wall-clock ratio."""
    xeon = context.counters(workload_id, context.xeon)
    atom = context.counters(workload_id, context.atom)
    return (
        (xeon.ipc * context.xeon.frequency_ghz)
        / max(1e-9, atom.ipc * context.atom.frequency_ghz)
    )


# The paper finds average misprediction ratios of 2.8% on the Xeon E5645
# (hybrid predictor with loop counter, indirect predictor and 8192-entry
# BTB) and 7.8% on the Atom D510 (two-level global predictor, 128-entry
# BTB).  §5.2 compares the wimpy (Atom) and brawny (Xeon) cores: "the
# processor architecture should not have one-size-fits-all solution".
# A wide spread of per-core slowdowns means neither road map wins
# everywhere; §5.2 states no number, so the slowdowns are not anchored.
TABLE4 = CounterFigure(
    title="Table 4 — branch misprediction on the Xeon E5645 and the Atom "
          "D510, and the D510's per-core slowdown",
    rows=REPRESENTATIVES,
    columns=(
        Column("e5645_mispred", "branch_mispred_ratio", XEON_E5645),
        Column("d510_mispred", "branch_mispred_ratio", ATOM_D510),
        Column("slowdown", derive=_slowdown),
    ),
    summaries=_column_means("summary", ("e5645_mispred", "d510_mispred"),
                           rule=running_mean) + (
        # How many times worse the D510 predicts than the E5645.
        _ratio("summary.ratio", "summary.d510_mispred",
               "summary.e5645_mispred"),
        ("summary.slowdown_min",
         lambda result, _: min(result.column("slowdown"))),
        ("summary.slowdown_max",
         lambda result, _: max(result.column("slowdown"))),
        _ratio("summary.slowdown_spread", "summary.slowdown_max",
               "summary.slowdown_min"),
        # Mean share of E5645 cycles lost to branch flushes (§5.1).
        ("summary.e5645_flush_share", lambda _, context: running_mean(
            [context.counters(w, XEON_E5645).pipeline.branch_stall_ratio
             for w in REPRESENTATIVES])),
    ),
)

#: Algorithm -> its MPI, Hadoop and Spark versions in the catalog.
ALGORITHM_STACKS = {
    "WordCount": ("M-WordCount", "H-WordCount", "S-WordCount"),
    "Grep": ("M-Grep", "H-Grep", "S-Grep"),
    "Sort": ("M-Sort", "H-Sort", "S-Sort"),
    "Kmeans": ("M-Kmeans", "H-Kmeans", "S-Kmeans"),
    "PageRank": ("M-PageRank", "H-PageRank", "S-PageRank"),
    "Bayes": ("M-Bayes", "H-NaiveBayes"),
}
_STACK_ROWS = tuple(w for ids in ALGORITHM_STACKS.values() for w in ids)
_STACK_METRICS = ("ipc", "l1i_mpki", "l2_mpki", "l3_mpki")

# Paper reference points: IPC M-WordCount 1.8 vs Hadoop 1.1 and Spark
# 0.9, an MPI mean of 1.4 vs 1.16 for the others (a 21% gap); L1I MPKI
# M-WordCount 2 vs Hadoop 7 and Spark 17, one order of magnitude between
# stacks, and an MPI mean of 3.4 vs 12.6; L2/L3 M-WordCount 0.8/0.1 vs
# Hadoop 8.4/1.9 and Spark 16/2.7.
STACKS = CounterFigure(
    title="§5.5 — software-stack impact (Xeon E5645)",
    rows=_STACK_ROWS,
    columns=tuple(Column(name) for name in _STACK_METRICS),
    summaries=_column_means(
        "mpi_avg", _STACK_METRICS,
        [w for w in _STACK_ROWS if w.startswith("M-")],
    ) + _column_means(
        "others_avg", _STACK_METRICS,
        [w for w in _STACK_ROWS if not w.startswith("M-")],
    ) + (
        # Relative IPC advantage of the MPI versions (§5.5's 21%).
        ("summary.ipc_gap", lambda result, _: result.summary[
            "mpi_avg.ipc"] / result.summary["others_avg.ipc"] - 1.0),
        # How many times larger the JVM stacks' L1I MPKI is.
        _ratio("summary.l1i_ratio", "others_avg.l1i_mpki",
               "mpi_avg.l1i_mpki"),
    ),
)
