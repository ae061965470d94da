"""``repro bench`` / ``repro perfdiff``: noise-aware wall-clock gating.

The registry's determinism contract splits every record into a
comparable half (``metrics``) and a quarantined half (``timings``).
This module is the harness that fills the quarantined half *carefully*:

- :func:`run_bench` times repetitions of one named target (a full
  experiment regeneration or a ``repro.uarch`` inner-loop kernel —
  exactly the functions ``repro profile`` ranks hot), after warmup
  reps, and summarises the samples with robust statistics
  (:mod:`repro.obs.stats`: median, MAD, bootstrap CI).  The result
  persists as a ``kind="bench"`` record whose ``metrics`` hold only the
  target's deterministic payload (verified identical across reps) and
  whose ``timings`` carry every wall-clock number under ``bench.*``.
- :func:`perfdiff` compares the latest bench records against the
  committed budget manifest (``benchmarks/baselines/perf_budgets.json``)
  and flags a regression only when the candidate's confidence interval
  separates *above* the budget's — never on raw deltas, so a single
  noisy rep cannot fail CI.

This is the only new module allowed to read the clock: it sits on the
DET003 quarantine list next to the profiler, and everything it measures
stays inside ``timings``.  The aggregation/rendering layers
(:mod:`repro.obs.observatory`, :mod:`repro.obs.dashboard`) stay
clock-free.
"""

from __future__ import annotations

import importlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import BudgetManifestError, PerfError
from repro.obs.registry import RunRecord, build_provenance
from repro.obs.stats import RobustStats, robust_summary
from repro.report.tables import render_table

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "BUDGET_SCHEMA_VERSION",
    "DEFAULT_BUDGETS_PATH",
    "BenchResult",
    "BenchTarget",
    "PerfDiff",
    "TargetVerdict",
    "bench_experiment",
    "bench_targets",
    "load_budgets",
    "perfdiff",
    "run_bench",
    "stats_from_timings",
    "update_budgets",
]

#: Version of the ``bench.*`` timings layout inside ``kind="bench"``
#: records (independent of the registry's record schema).
BENCH_RECORD_SCHEMA = 1

#: Version of the committed budget manifest layout.
BUDGET_SCHEMA_VERSION = 1

#: Where the committed budget manifest lives, relative to the repo root.
DEFAULT_BUDGETS_PATH = os.path.join(
    "benchmarks", "baselines", "perf_budgets.json"
)

#: The workload whose behaviour profile feeds the uarch micro targets.
#: S-WordCount is the paper's canonical example and what ``repro
#: profile`` exercises in CI, so budget hot-function lists line up.
MICRO_WORKLOAD = "S-WordCount"

#: Reference lengths for the micro kernels — long enough that the
#: inner loop dominates, short enough for 5 reps in a CI minute.
_MICRO_FETCH_LINES = 40_000
_MICRO_DATA_LINES = 60_000
_MICRO_BRANCHES = 40_000


@dataclass(frozen=True)
class BenchTarget:
    """One named thing ``repro bench`` can time.

    ``make(scale, seed)`` performs untimed setup (workload execution,
    trace pre-generation) and returns a zero-argument callable; each
    timed rep calls it and receives a flat ``name -> float`` payload
    that must be identical across reps (the determinism cross-check).
    """

    name: str
    description: str
    kind: str  # "experiment" | "micro"
    make: Callable[[float, int], Callable[[], Dict[str, float]]]


def _experiment_runner(path: str):
    """A target factory timing one full experiment regeneration.

    ``path`` names the object whose ``run(context)`` regenerates the
    experiment: a module of :mod:`repro.experiments`, or
    ``<module>.<attribute>`` for a figure spec such as
    ``counter_figures.FIG4``.  A *fresh*
    :class:`~repro.experiments.runner.ExperimentContext` is built inside
    the timed region on every rep — the context caches workload runs and
    characterizations, so reusing one would time a dictionary lookup
    instead of the experiment.
    """

    def make(scale: float, seed: int) -> Callable[[], Dict[str, float]]:
        module_name, _, attribute = path.partition(".")
        target = importlib.import_module(
            f"repro.experiments.{module_name}")
        if attribute:
            target = getattr(target, attribute)

        def run() -> Dict[str, float]:
            from repro.experiments import ExperimentContext

            context = ExperimentContext(scale=scale, seed=seed)
            result = target.run(context)
            return {
                k: float(v) for k, v in result.fidelity_metrics().items()
            }

        return run

    return make


def _micro_profile(scale: float, seed: int):
    """The shared setup of every uarch micro target (untimed)."""
    from repro.experiments import ExperimentContext

    context = ExperimentContext(scale=scale, seed=seed)
    return context.result(MICRO_WORKLOAD).profile


def _make_characterize(scale: float, seed: int):
    from repro.uarch import XEON_E5645, characterize

    profile = _micro_profile(scale, seed)

    def run() -> Dict[str, float]:
        counters = characterize(profile, XEON_E5645, seed=1234 + seed)
        return {k: float(v) for k, v in counters.metric_dict().items()}

    return run


def _make_trace_gen(scale: float, seed: int):
    from repro.uarch.trace import generate_data_trace, generate_fetch_trace

    profile = _micro_profile(scale, seed)

    def run() -> Dict[str, float]:
        fetch = generate_fetch_trace(
            profile.code, _MICRO_FETCH_LINES, seed=seed
        )
        data = generate_data_trace(
            profile.data, _MICRO_DATA_LINES, seed=seed + 1
        )
        return {
            "trace.fetch_lines": float(len(fetch)),
            "trace.data_lines": float(len(data)),
            "trace.fetch_span": float(int(fetch.max()) - int(fetch.min())),
            "trace.data_span": float(int(data.max()) - int(data.min())),
        }

    return run


def _make_cache_walk(scale: float, seed: int):
    from repro.uarch import XEON_E5645
    from repro.uarch.tlb import tlb_misses
    from repro.uarch.trace import generate_data_trace, generate_fetch_trace

    profile = _micro_profile(scale, seed)
    fetch = generate_fetch_trace(profile.code, _MICRO_FETCH_LINES, seed=seed)
    data = generate_data_trace(profile.data, _MICRO_DATA_LINES, seed=seed + 1)

    def run() -> Dict[str, float]:
        hierarchy = XEON_E5645.make_hierarchy()
        hierarchy.walk(fetch, data)
        payload = {
            "tlb.itlb_misses": float(tlb_misses(fetch, XEON_E5645.itlb)),
            "tlb.dtlb_misses": float(tlb_misses(data, XEON_E5645.dtlb)),
        }
        for stats in hierarchy.stats():
            payload[f"cache.{stats.name}.misses"] = float(stats.misses)
        return payload

    return run


def _make_branch(scale: float, seed: int):
    from repro.uarch import XEON_E5645
    from repro.uarch.branch import BranchStreamGenerator, simulate_branches

    profile = _micro_profile(scale, seed)

    def run() -> Dict[str, float]:
        generator = BranchStreamGenerator(profile.branches, seed=seed + 2)
        events = generator.generate(_MICRO_BRANCHES)
        stats = simulate_branches(events, XEON_E5645.make_predictor())
        return {
            "branch.branches": float(stats.branches),
            "branch.mispredictions": float(stats.mispredictions),
            "branch.btb_miss_ratio": float(stats.btb_miss_ratio),
        }

    return run


def _make_obs_overhead(scale: float, seed: int):
    """Fig 4 as the ``fig4`` target runs it, under full observation.

    The characterization goes through the serial sweep executor, where
    a :class:`~repro.exec.SweepTracer` and a progress stream attach, and
    the spans merge into one Chrome trace, all in the timed region.  The payload is fig4's, so a zero-threshold
    ``repro diff`` of the ``bench.fig4`` and ``bench.obs-overhead``
    records proves observation changed no number; the ratio of their
    medians is the tracing overhead.
    """

    def run() -> Dict[str, float]:
        from repro.exec import SweepTracer, merge_sweep_trace
        from repro.experiments import ExperimentContext
        from repro.experiments.counter_figures import FIG4
        from repro.obs.stream import ProgressStream
        from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

        context = ExperimentContext(scale=scale, seed=seed)
        pairs = [(d.workload_id, context.xeon)
                 for d in REPRESENTATIVE_WORKLOADS + MPI_WORKLOADS]
        with tempfile.TemporaryDirectory() as scratch:
            tracer = SweepTracer(os.path.join(scratch, "trace"))
            stream = ProgressStream(os.path.join(scratch, "progress.jsonl"),
                                    sweep="obs-overhead")
            context.prime(pairs, jobs=1, tracer=tracer, observer=stream)
            result = FIG4.run(context)
            stream.close()
            tracer.close()
            merge_sweep_trace(tracer.trace_dir,
                              os.path.join(scratch, "trace.json"))
        return {k: float(v) for k, v in result.fidelity_metrics().items()}

    return run


#: ``repro fig``/``repro table`` verbs exposed as bench targets.
_EXPERIMENT_TARGETS = (
    ("fig1", "counter_figures.FIG1", "Fig 1: instruction-mix figure"),
    ("fig2", "fig2_integer_breakdown", "Fig 2: integer-breakdown figure"),
    ("fig3", "counter_figures.FIG3", "Fig 3: IPC comparison figure"),
    ("fig4", "counter_figures.FIG4", "Fig 4: cache-behaviour figure"),
    ("fig5", "counter_figures.FIG5", "Fig 5: TLB-behaviour figure"),
    ("locality", "fig6to9_locality", "Figs 6-9: locality study"),
    ("table2", "table2_reduction", "Table 2: the 77->17 reduction"),
    ("table4", "table4_branch", "Table 4: branch characterization"),
    ("stacks", "stack_impact", "§5.5 software-stack study"),
    ("system", "system_behaviors", "§3.2 system-behaviour classes"),
)

#: ``repro.uarch`` inner-loop kernels — the hot functions ``repro
#: profile`` attributes the wall-clock to, timed in isolation so the
#: vectorization work gets per-kernel before/after intervals.
_MICRO_TARGETS = (
    BenchTarget(
        "uarch.characterize",
        "full 45-metric characterization of one workload (S-WordCount "
        "on Xeon E5645)",
        "micro",
        _make_characterize,
    ),
    BenchTarget(
        "uarch.trace-gen",
        "synthetic fetch + data trace generation "
        "(trace.generate_fetch_trace / generate_data_trace)",
        "micro",
        _make_trace_gen,
    ),
    BenchTarget(
        "uarch.cache-walk",
        "cache-hierarchy and TLB walk over pre-generated traces "
        "(CacheHierarchy.walk / tlb_misses on the lru_hits kernel)",
        "micro",
        _make_cache_walk,
    ),
    BenchTarget(
        "uarch.branch",
        "branch stream generation + predictor replay "
        "(BranchStreamGenerator.generate / simulate_branches)",
        "micro",
        _make_branch,
    ),
)


def bench_targets() -> Dict[str, BenchTarget]:
    """Every nameable bench target, keyed by CLI name."""
    targets: Dict[str, BenchTarget] = {}
    for name, path, description in _EXPERIMENT_TARGETS:
        targets[name] = BenchTarget(
            name, description, "experiment", _experiment_runner(path)
        )
    targets["obs-overhead"] = BenchTarget(
        "obs-overhead", "Fig 4 with the span tracer and progress stream "
        "attached (compare with fig4)", "experiment", _make_obs_overhead,
    )
    for target in _MICRO_TARGETS:
        targets[target.name] = target
    return targets


def bench_experiment(target_name: str) -> str:
    """The registry experiment name a bench target records under."""
    return f"bench.{target_name}"


@dataclass
class BenchResult:
    """One completed bench run: samples, robust stats, payload."""

    target: str
    kind: str
    reps: int
    warmup: int
    scale: float
    seed: int
    samples_s: List[float]
    stats: RobustStats
    metrics: Dict[str, float] = field(default_factory=dict)

    def timings(self) -> Dict[str, float]:
        """Every wall-clock number, quarantined under ``bench.*``."""
        timings = {
            "bench.schema": float(BENCH_RECORD_SCHEMA),
            "bench.reps": float(self.reps),
            "bench.warmup_reps": float(self.warmup),
            "bench.median_s": self.stats.median,
            "bench.mad_s": self.stats.mad,
            "bench.ci_lo_s": self.stats.ci_lo,
            "bench.ci_hi_s": self.stats.ci_hi,
            "bench.mean_s": self.stats.mean,
            "bench.min_s": self.stats.min,
            "bench.max_s": self.stats.max,
        }
        for index, sample in enumerate(self.samples_s):
            timings[f"bench.rep_s.{index}"] = sample
        return timings

    def to_record(self) -> RunRecord:
        experiment = bench_experiment(self.target)
        return RunRecord(
            experiment=experiment,
            kind="bench",
            metrics=dict(self.metrics),
            provenance=build_provenance(
                experiment=experiment,
                seed=self.seed,
                scale=self.scale,
                platforms=[],
                config={
                    "bench_schema": BENCH_RECORD_SCHEMA,
                    "target": self.target,
                    "target_kind": self.kind,
                    "reps": self.reps,
                    "warmup": self.warmup,
                },
            ),
            series={
                "bench": {
                    "schema_version": BENCH_RECORD_SCHEMA,
                    "target": self.target,
                    "target_kind": self.kind,
                    "reps": self.reps,
                    "warmup": self.warmup,
                }
            },
            timings=self.timings(),
        )

    def render(self) -> str:
        stats = self.stats
        lines = [
            f"bench {self.target} ({self.kind}): {self.reps} reps after "
            f"{self.warmup} warmup, scale {self.scale:g}, seed {self.seed}",
            f"  median {stats.median:.4f}s  mad {stats.mad:.4f}s  "
            f"95% CI [{stats.ci_lo:.4f}, {stats.ci_hi:.4f}]s",
            f"  mean {stats.mean:.4f}s  min {stats.min:.4f}s  "
            f"max {stats.max:.4f}s",
            "  reps: " + " ".join(f"{s:.4f}" for s in self.samples_s),
            f"  deterministic payload: {len(self.metrics)} metric(s), "
            "identical across reps",
        ]
        return "\n".join(lines)


def _payload_fingerprint(payload: Dict[str, float]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_bench(
    target,
    *,
    reps: int = 5,
    warmup: int = 1,
    scale: float = 0.5,
    seed: int = 0,
    timer: Callable[[], float] = time.perf_counter,
) -> BenchResult:
    """Time ``reps`` measured calls of one target after ``warmup`` calls.

    ``target`` is a name from :func:`bench_targets` or a
    :class:`BenchTarget`.  Raises :class:`repro.errors.PerfError` when
    the target's deterministic payload differs between reps — a bench
    that perturbs what it measures is not a bench.
    """
    if isinstance(target, str):
        catalogue = bench_targets()
        if target not in catalogue:
            raise PerfError(
                f"unknown bench target {target!r}",
                known=", ".join(sorted(catalogue)),
            )
        target = catalogue[target]
    if reps < 1:
        raise PerfError(f"reps must be >= 1, got {reps!r}")
    if warmup < 0:
        raise PerfError(f"warmup must be >= 0, got {warmup!r}")

    run = target.make(scale, seed)
    for _ in range(warmup):
        run()
    samples: List[float] = []
    fingerprints: List[str] = []
    payload: Dict[str, float] = {}
    for _ in range(reps):
        t0 = timer()
        payload = run() or {}
        t1 = timer()
        samples.append(t1 - t0)
        fingerprints.append(_payload_fingerprint(payload))
    if len(set(fingerprints)) > 1:
        raise PerfError(
            "bench target payload differed between reps — the target is "
            "nondeterministic and its timings cannot be trusted",
            target=target.name,
        )
    return BenchResult(
        target=target.name,
        kind=target.kind,
        reps=reps,
        warmup=warmup,
        scale=scale,
        seed=seed,
        samples_s=samples,
        stats=robust_summary(samples),
        metrics=payload,
    )


# ---------------------------------------------------------------------------
# the perf gate
# ---------------------------------------------------------------------------

#: Per-target verdict statuses.
OK, FASTER, REGRESSION = "ok", "faster", "regression"
NO_RECORD, INCOMPARABLE = "no-record", "incomparable"


def load_budgets(path: str) -> dict:
    """Load and validate the committed perf-budget manifest."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise BudgetManifestError(
            f"cannot read budget manifest {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise BudgetManifestError(
            f"budget manifest {path!r} is not valid JSON: {exc}"
        ) from exc
    version = manifest.get("schema_version")
    if version != BUDGET_SCHEMA_VERSION:
        raise BudgetManifestError(
            f"unsupported budget-manifest schema {version!r} "
            f"(this build reads {BUDGET_SCHEMA_VERSION})",
            path=path,
        )
    budgets = manifest.get("budgets")
    if not isinstance(budgets, dict):
        raise BudgetManifestError(
            f"budget manifest {path!r} has no 'budgets' mapping"
        )
    for name, entry in budgets.items():
        for key in ("median_s", "ci_lo_s", "ci_hi_s"):
            if not isinstance(entry.get(key), (int, float)):
                raise BudgetManifestError(
                    f"budget {name!r} is missing numeric {key!r}",
                    path=path,
                )
    return manifest


def stats_from_timings(timings: Dict[str, float]) -> Optional[dict]:
    """Extract the ``bench.*`` robust stats from record timings."""
    required = ("bench.median_s", "bench.ci_lo_s", "bench.ci_hi_s")
    if any(key not in timings for key in required):
        return None
    return {
        "median_s": timings["bench.median_s"],
        "mad_s": timings.get("bench.mad_s", 0.0),
        "ci_lo_s": timings["bench.ci_lo_s"],
        "ci_hi_s": timings["bench.ci_hi_s"],
        "reps": int(timings.get("bench.reps", 0)),
    }


@dataclass
class TargetVerdict:
    """One budget compared against the latest candidate bench record."""

    target: str
    status: str
    detail: str
    budget: dict = field(default_factory=dict)
    candidate: dict = field(default_factory=dict)
    ratio: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "status": self.status,
            "detail": self.detail,
            "budget": dict(self.budget),
            "candidate": dict(self.candidate),
            "ratio": self.ratio,
        }


@dataclass
class PerfDiff:
    """The perf gate's verdict over every compared target."""

    budgets_path: str
    verdicts: List[TargetVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[TargetVerdict]:
        return [v for v in self.verdicts if v.status == REGRESSION]

    @property
    def exit_code(self) -> int:
        """0 when no target's CI separates above its budget, else 1."""
        return 1 if self.regressions else 0

    def to_dict(self) -> dict:
        return {
            "budgets": self.budgets_path,
            "exit_code": self.exit_code,
            "regressions": len(self.regressions),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        rows = []
        for verdict in self.verdicts:
            budget = verdict.budget
            candidate = verdict.candidate
            rows.append([
                verdict.target,
                budget.get("median_s"),
                candidate.get("median_s"),
                f"{verdict.ratio:.2f}x" if verdict.ratio is not None else "-",
                verdict.status,
            ])
        table = render_table(
            ["target", "budget median", "candidate", "ratio", "status"],
            rows,
            title=f"perfdiff vs {self.budgets_path}",
            float_format="{:.4f}",
        )
        summary = (
            f"\n{len(self.regressions)} regression(s) over "
            f"{len(self.verdicts)} budgeted target(s) "
            "(regression = candidate CI entirely above budget CI)"
        )
        notes = [
            f"  {v.target}: {v.detail}"
            for v in self.verdicts
            if v.status not in (OK, FASTER)
        ]
        return table + summary + ("\n" + "\n".join(notes) if notes else "")


def _compare(target: str, budget: dict, candidate: dict) -> TargetVerdict:
    budget_interval = (budget["ci_lo_s"], budget["ci_hi_s"])
    candidate_interval = (candidate["ci_lo_s"], candidate["ci_hi_s"])
    ratio = (
        candidate["median_s"] / budget["median_s"]
        if budget["median_s"] > 0 else None
    )
    if candidate_interval[0] > budget_interval[1]:
        return TargetVerdict(
            target, REGRESSION,
            f"candidate CI [{candidate_interval[0]:.4f}, "
            f"{candidate_interval[1]:.4f}]s is entirely above budget CI "
            f"[{budget_interval[0]:.4f}, {budget_interval[1]:.4f}]s",
            budget=budget, candidate=candidate, ratio=ratio,
        )
    if candidate_interval[1] < budget_interval[0]:
        return TargetVerdict(
            target, FASTER,
            "candidate CI entirely below budget CI — consider "
            "re-baselining with `repro perfdiff --update-budgets`",
            budget=budget, candidate=candidate, ratio=ratio,
        )
    return TargetVerdict(
        target, OK, "confidence intervals overlap",
        budget=budget, candidate=candidate, ratio=ratio,
    )


def perfdiff(
    registry,
    manifest: dict,
    *,
    budgets_path: str = DEFAULT_BUDGETS_PATH,
    targets: Optional[List[str]] = None,
) -> PerfDiff:
    """Compare the latest bench records against the budget manifest.

    A target with no bench record yet is reported (``no-record``) but
    never fails the gate — budgets are advisory until measured.  A
    record benched at a different scale than its budget is
    ``incomparable``: medians at different scales say nothing about a
    regression.
    """
    budgets = manifest["budgets"]
    chosen = targets if targets is not None else sorted(budgets)
    result = PerfDiff(budgets_path=budgets_path)
    for target in chosen:
        budget = budgets.get(target)
        if budget is None:
            result.verdicts.append(TargetVerdict(
                target, INCOMPARABLE,
                f"no budget entry for {target!r} in {budgets_path}",
            ))
            continue
        record = registry.latest(bench_experiment(target))
        if record is None:
            result.verdicts.append(TargetVerdict(
                target, NO_RECORD,
                f"no bench record for {bench_experiment(target)!r} — "
                f"run `repro bench {target}`",
                budget=dict(budget),
            ))
            continue
        candidate = stats_from_timings(record.timings)
        if candidate is None:
            result.verdicts.append(TargetVerdict(
                target, INCOMPARABLE,
                f"record {record.run_id} has no bench.* stats",
                budget=dict(budget),
            ))
            continue
        budget_scale = budget.get("scale")
        record_scale = record.provenance.get("scale")
        if budget_scale is not None and record_scale is not None \
                and float(budget_scale) != float(record_scale):
            result.verdicts.append(TargetVerdict(
                target, INCOMPARABLE,
                f"record benched at scale {record_scale!r} but budget "
                f"was set at scale {budget_scale!r}",
                budget=dict(budget), candidate=candidate,
            ))
            continue
        result.verdicts.append(_compare(target, budget, candidate))
    return result


def update_budgets(
    registry,
    path: str,
    *,
    targets: Optional[List[str]] = None,
) -> dict:
    """Rewrite the budget manifest from the latest bench records.

    Preserves per-target ``hot_functions`` and ``note`` annotations of
    an existing manifest; targets without a usable bench record, and
    targets left out of ``targets``, keep their old entry untouched.
    """
    previous: Dict[str, dict] = {}
    if os.path.isfile(path):
        try:
            previous = dict(load_budgets(path)["budgets"])
        except BudgetManifestError:
            previous = {}
    names = targets if targets is not None else sorted(
        set(previous) | {
            name for name in bench_targets()
        }
    )
    budgets: Dict[str, dict] = dict(previous)
    for name in names:
        record = registry.latest(bench_experiment(name))
        stats = stats_from_timings(record.timings) if record else None
        if stats is None:
            continue
        entry = dict(stats)
        entry["scale"] = record.provenance.get("scale")
        old = previous.get(name, {})
        for keep in ("hot_functions", "note"):
            if keep in old:
                entry[keep] = old[keep]
        budgets[name] = entry
    manifest = {
        "schema_version": BUDGET_SCHEMA_VERSION,
        "confidence": 0.95,
        "budgets": budgets,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest
