"""Shared experiment context: run-once caching of characterizations.

Figures 1, 3, 4 and 5 all consume the same per-workload perf-counter
samples; the context memoises workload executions, behaviour profiles
and characterizations per platform so a full experiment session costs
one sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.obs.registry import RunRecord, build_provenance
from repro.stacks.base import WorkloadResult
from repro.uarch.platforms import ATOM_D510, XEON_E5645, Platform
from repro.workloads import workload
from repro.workloads.base import WorkloadDefinition

if TYPE_CHECKING:
    from repro.uarch.counters import PerfCounters

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
            from repro.uarch.counters import (
                characterization_seed,
                characterize,
            )

            profile = self.result(ref).profile
            self._counters[key] = characterize(
                profile, platform, seed=characterization_seed(self.seed)
            )
        return self._counters[key]

    # ---- comparison suites ---------------------------------------------------
    def suite_counters(
        self, suite_name: str, platform: Platform = XEON_E5645
    ) -> List[PerfCounters]:
        """Counters for every member of a comparison suite."""
        key = (suite_name, platform.name)
        if key not in self._suite_counters:
            from repro.comparison import SUITES
            from repro.uarch.counters import (
                characterization_seed,
                characterize,
            )

            benchmarks = SUITES[suite_name]
            seed = characterization_seed(self.seed)
            samples = []
            for benchmark in benchmarks:
                profile = benchmark.profile(scale=self.scale)
                samples.append(characterize(profile, platform, seed=seed))
            self._suite_counters[key] = samples
        return self._suite_counters[key]

    def fill(self, pairs, suites=()) -> None:
        """Characterize every ``(workload, platform)`` of ``pairs`` and
        every member of each suite named in ``suites`` (on the Xeon) that
        is not cached yet, on one thread per CPU this process may use.

        One task runs a workload and then characterizes it on each of
        its platforms in order; one task characterizes a suite member.
        Each sample lands under the key :meth:`counters` and
        :meth:`suite_counters` read, with the seed they use, so the
        cache holds what the serial calls would have put there.  Sorts
        and ufuncs release the GIL, so characterizations overlap; none
        replays a branch.  A task's exception is raised here once the
        tasks before it have been installed.
        """
        import concurrent.futures
        import os

        from repro.comparison import SUITES
        from repro.uarch import counters as counters_module

        platforms: Dict[str, List[Platform]] = {}
        for ref, platform in pairs:
            workload_id = self._definition(ref).workload_id
            wanted = platforms.setdefault(workload_id, [])
            if ((workload_id, platform.name) not in self._counters
                    and platform not in wanted):
                wanted.append(platform)
        suite_names = [name for name in dict.fromkeys(suites)
                       if (name, XEON_E5645.name) not in self._suite_counters]
        seed = counters_module.characterization_seed(self.seed)

        def characterize_workload(workload_id, targets):
            profile = self.result(workload_id).profile
            return [counters_module.characterize(profile, p, seed=seed)
                    for p in targets]

        def characterize_member(benchmark):
            return counters_module.characterize(
                benchmark.profile(scale=self.scale), XEON_E5645, seed=seed)

        workers = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count())
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            workloads = [
                (workload_id, targets,
                 pool.submit(characterize_workload, workload_id, targets))
                for workload_id, targets in platforms.items() if targets
            ]
            members = [
                (name, [pool.submit(characterize_member, benchmark)
                        for benchmark in SUITES[name]])
                for name in suite_names
            ]
            try:
                for workload_id, targets, future in workloads:
                    for platform, sample in zip(targets, future.result()):
                        self._counters[(workload_id, platform.name)] = sample
                for name, futures in members:
                    self._suite_counters[(name, XEON_E5645.name)] = [
                        future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise

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
        from repro.exec.cells import SweepCell, platform_key

        return [
            SweepCell(workload=workload_id,
                      platform=platform_key(platform.name),
                      scale=self.scale, seed=self.seed)
            for workload_id, platform in pairs
            if (workload_id, platform.name) not in self._counters
        ]

    def adopt_cells(self, cells, results) -> int:
        """Install completed characterize cells into the counters cache.

        ``results`` maps cell ids to :class:`~repro.exec.cells.CellResult`
        whose ``counters`` payloads were produced by
        :func:`repro.exec.cells.characterize_cell`; rehydration is
        lossless, so a primed context is bit-identical to a serial one.
        A result that fails :func:`~repro.exec.cells.cell_intact` for
        its cell is not adopted, and the experiment computes that pair
        in-process.  The sample the check rehydrates is the one
        installed (:func:`~repro.exec.cells.trusted_sample`), so each
        adopted sample is rehydrated once.
        """
        from repro.exec.cells import platform_for, trusted_sample

        adopted = 0
        for cell in cells:
            result = results.get(cell.cell_id)
            if result is None or result.status != "ok":
                continue
            intact, counters = trusted_sample(cell.to_dict(), result)
            if not intact or counters is None:
                continue
            self._definition(workload(cell.workload))
            key = (cell.workload, platform_for(cell.platform).name)
            self._counters[key] = counters
            adopted += 1
        return adopted

    def prime(self, pairs, *, jobs: int, tracer=None):
        """Characterize the given pairs across ``jobs`` worker processes.

        Nothing is checkpointed.  Returns the executor's
        :class:`~repro.exec.supervisor.SweepOutcome`; its telemetry is
        summed into :attr:`timings` as ``exec.<name>``.  Quarantined
        cells are simply not adopted: the experiment falls back to
        computing them in-process, so a poison cell degrades
        throughput, never correctness.  ``tracer`` passes straight
        through to the executor.
        """
        from repro.exec.supervisor import SweepExecutor

        cells = self.counter_cells(pairs)
        outcome = SweepExecutor(jobs=jobs, tracer=tracer).run(cells)
        self.adopt_cells(cells, outcome.results)
        for name, value in outcome.telemetry.items():
            key = f"exec.{name}"
            self.timings[key] = self.timings.get(key, 0.0) + value
        return outcome

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
