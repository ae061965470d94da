"""Shared experiment context: run-once caching of characterizations.

Figures 1, 3, 4 and 5 all consume the same per-workload perf-counter
samples; the context memoises workload executions, behaviour profiles
and characterizations per platform so a full experiment session costs
one sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.comparison import SUITES
from repro.obs.registry import RunRecord, build_provenance
from repro.stacks.base import WorkloadResult
from repro.uarch.counters import PerfCounters, characterize
from repro.uarch.platforms import ATOM_D510, XEON_E5645, Platform
from repro.workloads import workload
from repro.workloads.base import WorkloadDefinition

#: A catalog id, or a custom definition keyed by its own id.
WorkloadRef = Union[str, WorkloadDefinition]


class ExperimentContext:
    """Caches workload runs and characterizations for one session."""

    def __init__(self, scale: float = 0.5, seed: int = 0):
        self.scale = scale
        self.seed = seed
        self._definitions: Dict[str, WorkloadDefinition] = {}
        self._results: Dict[str, WorkloadResult] = {}
        self._counters: Dict[tuple, PerfCounters] = {}
        self._suite_counters: Dict[tuple, List[PerfCounters]] = {}
        #: Executor telemetry (``exec.*``), summed per key; it rides
        #: into the run record's quarantined ``timings``.
        self.timings: Dict[str, float] = {}

    # ---- workload layer ---------------------------------------------------
    def _definition(self, ref: WorkloadRef) -> WorkloadDefinition:
        """The definition the cache keys under ``ref``'s id.

        An id names the definition this context already knows by it,
        else the catalog entry.  A definition whose id is taken by a
        different definition is refused, so it can never read another
        workload's cached result.
        """
        if isinstance(ref, str):
            ref = self._definitions.get(ref) or workload(ref)
        known = self._definitions.setdefault(ref.workload_id, ref)
        if known != ref:
            raise ValueError(
                f"workload id {ref.workload_id!r} is already cached from a "
                f"different definition"
            )
        return ref

    def result(self, ref: WorkloadRef) -> WorkloadResult:
        """Functional + profiled execution of one workload."""
        definition = self._definition(ref)
        if definition.workload_id not in self._results:
            self._results[definition.workload_id] = definition.runner(
                scale=self.scale, seed=self.seed
            )
        return self._results[definition.workload_id]

    def counters(
        self, ref: WorkloadRef, platform: Platform = XEON_E5645
    ) -> PerfCounters:
        """Characterization of one workload on one platform."""
        key = (self._definition(ref).workload_id, platform.name)
        if key not in self._counters:
            profile = self.result(ref).profile
            self._counters[key] = characterize(
                profile, platform, seed=1234 + self.seed
            )
        return self._counters[key]

    # ---- comparison suites ---------------------------------------------------
    def suite_counters(
        self, suite_name: str, platform: Platform = XEON_E5645
    ) -> List[PerfCounters]:
        """Counters for every member of a comparison suite."""
        key = (suite_name, platform.name)
        if key not in self._suite_counters:
            benchmarks = SUITES[suite_name]
            samples = []
            for benchmark in benchmarks:
                profile = benchmark.profile(scale=self.scale)
                samples.append(
                    characterize(profile, platform, seed=1234 + self.seed)
                )
            self._suite_counters[key] = samples
        return self._suite_counters[key]

    @property
    def atom(self) -> Platform:
        return ATOM_D510

    @property
    def xeon(self) -> Platform:
        return XEON_E5645

    # ---- cell decomposition (parallel sweeps) -----------------------------
    # A session's expensive substrate is the per-(workload, platform)
    # characterization; each is an independent seeded cell the
    # repro.exec executor can run in another process and hand back as a
    # lossless PerfCounters payload for the cache below.
    def counter_cells(self, pairs) -> list:
        """Sweep cells for the (workload_id, platform) pairs not cached."""
        from repro.exec.cells import SweepCell

        platform_keys = {XEON_E5645.name: "e5645", ATOM_D510.name: "d510"}
        cells = []
        for workload_id, platform in pairs:
            if (workload_id, platform.name) in self._counters:
                continue
            cells.append(SweepCell(
                workload=workload_id,
                platform=platform_keys[platform.name],
                scale=self.scale,
                seed=self.seed,
            ))
        return cells

    def adopt_cells(self, results) -> int:
        """Install completed characterize cells into the counters cache.

        ``results`` is a ``cell_id -> CellResult`` mapping whose
        ``counters`` payloads were produced by
        :func:`repro.exec.cells.characterize_cell`; rehydration is
        lossless, so a primed context is bit-identical to a serial one.
        """
        from repro.exec.cells import platform_for

        adopted = 0
        for result in results.values():
            if result.status != "ok" or not result.counters:
                continue
            counters = PerfCounters.from_dict(result.counters)
            platform = platform_for(
                "e5645" if counters.platform == XEON_E5645.name else "d510"
            )
            self._definition(workload(counters.workload))
            self._counters[(counters.workload, platform.name)] = counters
            adopted += 1
        return adopted

    def prime(
        self,
        pairs,
        *,
        jobs: int,
        cell_timeout: float = None,
        checkpoint=None,
        resume: bool = False,
        tracer=None,
        observer=None,
    ):
        """Characterize the given pairs across ``jobs`` worker processes.

        Returns the executor's :class:`~repro.exec.supervisor.SweepOutcome`
        (telemetry rides into the run record's quarantined ``timings``).
        Quarantined cells are simply not adopted: the experiment falls
        back to computing them serially in-process, so a poison cell
        degrades throughput, never correctness.  ``tracer``/``observer``
        pass straight through to the executor's observability hooks.
        """
        from repro.exec.supervisor import DEFAULT_CELL_TIMEOUT, SweepExecutor

        cells = self.counter_cells(pairs)
        executor = SweepExecutor(
            jobs=jobs,
            cell_timeout=(
                cell_timeout if cell_timeout else DEFAULT_CELL_TIMEOUT
            ),
            tracer=tracer,
            observer=observer,
        )
        outcome = executor.run(cells, checkpoint=checkpoint, resume=resume)
        self.adopt_cells(outcome.results)
        self.add_telemetry(outcome.telemetry)
        return outcome

    def add_telemetry(self, telemetry: Dict[str, float]) -> None:
        """Sum executor counters into :attr:`timings` as ``exec.<name>``."""
        for name, value in telemetry.items():
            key = f"exec.{name}"
            self.timings[key] = self.timings.get(key, 0.0) + value

    # ---- run records --------------------------------------------------------
    def make_record(
        self,
        experiment: str,
        metrics: Dict[str, float],
        *,
        kind: str = "experiment",
        platforms: Optional[List[str]] = None,
        series: Optional[Dict[str, object]] = None,
        config: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """A registry record of one experiment run under this context.

        Provenance captures this context's seed/scale plus any
        experiment-specific ``config``; the executor telemetry rides
        along under ``timings`` (informational — never part of a drift
        comparison).
        """
        return RunRecord(
            experiment=experiment,
            kind=kind,
            metrics=dict(metrics),
            provenance=build_provenance(
                experiment=experiment,
                seed=self.seed,
                scale=self.scale,
                platforms=(
                    list(platforms)
                    if platforms is not None
                    else [XEON_E5645.name]
                ),
                config=config,
            ),
            series=dict(series) if series else {},
            timings=dict(sorted(self.timings.items())),
        )
