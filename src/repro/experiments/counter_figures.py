"""Figures 1, 3, 4 and 5: counter metrics of every workload, side by side.

The four figures make one comparison.  Each shows some of the 45
metrics for the 17 representatives and the six MPI versions, the mean
of each comparison suite, the mean of each application-category and
system-behaviour subclass of the representatives, and the big data
mean over all 17.  A :class:`CounterFigure` names a figure's metrics;
its ``run(context)`` builds the rows.  Every mean is ``sum / len`` over
the representatives in Table 2 order or the suite members in suite
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.comparison import SUITES
from repro.experiments.runner import ExperimentContext
from repro.obs.registry import flatten_rows
from repro.report.tables import render_table
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

#: Application-category and system-behaviour subclasses of the
#: representatives ("from the application category dimension ...").
CATEGORY_GROUPS = ("data analysis", "service", "interactive analysis")
BEHAVIOR_GROUPS = ("CPU-Intensive", "IO-Intensive", "Hybrid")

_SUBCLASSES = (
    ("category", CATEGORY_GROUPS, lambda d: d.category.value),
    ("behavior", BEHAVIOR_GROUPS, lambda d: d.expected_system_behavior.value),
)

#: ``(name, derive)``: ``bigdata.<name> = derive(bigdata means, context)``.
Derived = Tuple[str, Callable[[Dict[str, float], ExperimentContext], float]]


def _means(samples: List[Dict[str, float]], metrics) -> List[float]:
    """Each metric's ``sum / len`` over ``samples``, in their order."""
    return [sum(s[m] for s in samples) / len(samples) for m in metrics]


@dataclass(frozen=True)
class CounterFigure:
    """Which counter metrics one figure shows in each kind of row."""

    title: str
    #: Shown for every workload and every suite mean.
    metrics: Tuple[str, ...]
    #: Shown for every category/behaviour subclass mean.
    group_metrics: Tuple[str, ...]
    #: Averaged over the 17 representatives.
    bigdata_metrics: Tuple[str, ...]
    derived: Tuple[Derived, ...] = ()

    def run(self, context: ExperimentContext) -> "CounterFigureResult":
        """Regenerate this figure's data.

        Reads only the metrics the figure shows, so a figure of cache,
        TLB or mix metrics never runs the deferred branch replay.
        """
        shown = self.metrics + self.group_metrics + self.bigdata_metrics
        values = {
            d.workload_id: context.counters(d.workload_id).metrics(shown)
            for d in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS
        }
        representatives = [
            (d, values[d.workload_id]) for d in REPRESENTATIVE_WORKLOADS
        ]
        result = CounterFigureResult(self)
        for workload_id, metrics in values.items():
            result.workload_rows.append(
                [workload_id] + [metrics[m] for m in self.metrics])
        for suite_name in SUITES:
            samples = [c.metrics(self.metrics)
                       for c in context.suite_counters(suite_name)]
            result.suite_rows.append(
                [suite_name] + _means(samples, self.metrics))
        for kind, groups, group_of in _SUBCLASSES:
            for group in groups:
                members = [v for d, v in representatives
                           if group_of(d) == group]
                result.group_rows.append(
                    [f"{kind}: {group}"] + _means(members, self.group_metrics))
        bigdata = [v for _, v in representatives]
        result.bigdata = dict(zip(
            self.bigdata_metrics, _means(bigdata, self.bigdata_metrics)))
        for name, derive in self.derived:
            result.bigdata[name] = derive(result.bigdata, context)
        return result


@dataclass
class CounterFigureResult:
    """One counter figure's workload, suite and subclass rows and means."""

    figure: CounterFigure
    workload_rows: List[list] = field(default_factory=list)
    suite_rows: List[list] = field(default_factory=list)
    group_rows: List[list] = field(default_factory=list)
    bigdata: Dict[str, float] = field(default_factory=dict)

    def fidelity_metrics(self) -> dict:
        """Registry metrics: every row's values plus the big data means."""
        headers = ["workload", *self.figure.metrics]
        metrics = flatten_rows("workload", headers, self.workload_rows)
        metrics.update(flatten_rows("suite", headers, self.suite_rows))
        metrics.update(flatten_rows(
            "group", ["group", *self.figure.group_metrics], self.group_rows))
        for name, value in self.bigdata.items():
            metrics[f"bigdata.{name}"] = value
        return metrics

    def render(self) -> str:
        metrics = list(self.figure.metrics)
        parts = [
            render_table(["workload"] + metrics, self.workload_rows,
                         title=self.figure.title),
            render_table(["suite"] + metrics, self.suite_rows,
                         title="\nsuite averages"),
            render_table(["group"] + list(self.figure.group_metrics),
                         self.group_rows, title="\nsubclass averages"),
            "\nbig data averages: " + ", ".join(
                f"{name} {value:.4g}" for name, value in self.bigdata.items()),
        ]
        return "\n".join(parts)


# Paper reference points: big data branch ratio 18.7% (service 18%, data
# analysis 19%, interactive 19%; CPU 19%, I/O 18%, hybrid 19%) and
# integer ratio 38% (service 40%, data analysis 38%, interactive 38%;
# CPU 37%, I/O 39%, hybrid 38%), against SPECINT 41%, CloudSuite 34% and
# TPC-C 33% integer and TPC-C's 30% branch ratio (§5.1).
FIG1 = CounterFigure(
    title="Figure 1 — instruction breakdown",
    metrics=("ratio_integer", "ratio_fp", "ratio_branch", "ratio_load",
             "ratio_store"),
    group_metrics=("ratio_branch", "ratio_integer"),
    bigdata_metrics=("ratio_branch", "ratio_integer"),
)

# Paper reference points: big data IPC 1.28 vs SPECFP 1.1, SPECINT 0.9,
# PARSEC 1.28, HPCC 1.5; subclass IPC (service 0.8, data analysis 1.2,
# interactive 1.3; CPU 1.3, I/O 1.2, hybrid 1.3); H-Read 0.8, S-Project
# 1.6, S-TPC-DS-query8 1.7 and a CloudSuite service average of 0.9.
# §5.1: "The E5645 processors can achieve 57.6 GFLOPS in theory, but the
# average floating point performance of big data workloads is about 0.1
# GFLOPS", so the record carries the share of peak the mean reaches.
FIG3 = CounterFigure(
    title="Figure 3 — IPC and GFLOPS (Xeon E5645)",
    metrics=("ipc", "gflops"),
    group_metrics=("ipc",),
    bigdata_metrics=("ipc", "gflops"),
    derived=(("fp_utilization",
              lambda bigdata, context:
              bigdata["gflops"] / context.xeon.peak_gflops),),
)

# Paper reference points: big data L1I MPKI 15 (CloudSuite 32), L2 11,
# L3 1.2; L1I per subclass (service 51, data analysis 13, interactive
# 14; CPU 8, I/O 22, hybrid 9); H-Read's L1I of 51; L2 per category
# (service 32, data analysis 11, interactive 8); L3 per category
# (service 1.2, data analysis 1.7, interactive 0.8).
FIG4 = CounterFigure(
    title="Figure 4 — cache MPKI (Xeon E5645)",
    metrics=("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki"),
    group_metrics=("l1i_mpki", "l2_mpki", "l3_mpki"),
    bigdata_metrics=("l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki"),
)

# Paper reference points: big data ITLB MPKI 0.05 and DTLB MPKI 0.9;
# ITLB per category (service 0.2, data analysis 0.04, interactive
# 0.04); DTLB per category (service 1.8, data analysis 1.1, interactive
# 0.5); CloudSuite above, HPCC/PARSEC at or below the big data numbers.
FIG5 = CounterFigure(
    title="Figure 5 — TLB MPKI (Xeon E5645)",
    metrics=("itlb_mpki", "dtlb_mpki"),
    group_metrics=("itlb_mpki", "dtlb_mpki"),
    bigdata_metrics=("itlb_mpki", "dtlb_mpki"),
)
