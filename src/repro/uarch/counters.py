"""Perf-counter collection: the 45-metric characterization of the paper.

:func:`characterize` plays a workload's behaviour profile through the
cache hierarchy, TLBs and branch predictor of a platform (with a warm-up
phase, like the paper's 30-second ramp-up before sampling) and assembles
a :class:`PerfCounters` sample.  The branch replay and the pipeline
model run when the first value that needs them is read, so a figure
that reports only cache or TLB metrics never replays a branch.
:meth:`PerfCounters.metric_vector` serialises a sample into the
45-dimensional space used by WCRT for PCA and K-means clustering (§3
of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Dict, Iterable, List

import numpy as np

from repro.uarch.branch import BranchStats, BranchStreamGenerator, simulate_branches
from repro.uarch.cache import resident_lines
from repro.uarch.isa import (
    InstructionClass,
    InstructionMix,
    IntBreakdown,
    data_movement_share,
)
from repro.uarch.pipeline import PipelineStats, model_pipeline
from repro.uarch.platforms import Platform
from repro.uarch.profile import LINE_BYTES, BehaviorProfile
from repro.uarch.trace import (
    code_line_ranges,
    data_line_ranges,
    generate_data_trace,
    generate_fetch_trace,
)
from repro.uarch.tlb import tlb_misses

#: Mean retired instructions represented by one fetch-line reference
#: (x86 packs ~16 four-byte instructions per line; taken branches cut
#: fetch runs short well before that).
INSTRUCTIONS_PER_FETCH = 8.0

#: Retired instructions represented by the measured phase of one run.
DEFAULT_SAMPLE_INSTRUCTIONS = 150_000


@dataclass(frozen=True)
class BranchPhase:
    """What the branch replay and the pipeline model add to a sample."""

    branch_stats: BranchStats
    pipeline: PipelineStats
    offcore_bandwidth_gbps: float
    speculation_ratio: float
    gflops: float


@dataclass(eq=False)
class PerfCounters:
    """One characterization sample: everything the paper reports.

    The fields hold the declared values and the memory phase's counts
    (caches, TLBs, off-core reads), which :func:`characterize` measures
    eagerly.  ``replay_branches`` runs the branch replay and the
    pipeline model on the first read of :attr:`branch_phase` -- that
    is, of ``branch_stats``, ``pipeline``, ``offcore_bandwidth_gbps``,
    ``speculation_ratio``, ``gflops`` or any metric derived from them
    -- and the result is kept.  :meth:`metrics` reads only the metrics
    it names; :meth:`metric_dict` and :meth:`metric_vector` read all 45.
    """

    workload: str
    platform: str
    instructions: float
    mix: InstructionMix
    int_breakdown: IntBreakdown
    l1i_mpki: float
    l1i_miss_ratio: float
    l1d_mpki: float
    l1d_miss_ratio: float
    l2_mpki: float
    l2_miss_ratio: float
    l3_mpki: float
    l3_miss_ratio: float
    l2_instruction_share: float
    itlb_mpki: float
    itlb_miss_ratio: float
    dtlb_mpki: float
    dtlb_miss_ratio: float
    offcore_read_pki: float
    offcore_write_pki: float
    snoop_hit_ratio: float
    snoop_hitm_ratio: float
    tlp: float
    int_ops_per_byte: float
    fp_ops_per_byte: float
    instructions_per_byte: float
    ilp: float
    replay_branches: Callable[[], BranchPhase] = field(repr=False)

    @cached_property
    def branch_phase(self) -> BranchPhase:
        return self.replay_branches()

    @property
    def branch_stats(self) -> BranchStats:
        return self.branch_phase.branch_stats

    @property
    def pipeline(self) -> PipelineStats:
        return self.branch_phase.pipeline

    @property
    def offcore_bandwidth_gbps(self) -> float:
        return self.branch_phase.offcore_bandwidth_gbps

    @property
    def speculation_ratio(self) -> float:
        return self.branch_phase.speculation_ratio

    @property
    def gflops(self) -> float:
        return self.branch_phase.gflops

    @property
    def ipc(self) -> float:
        return self.pipeline.ipc

    @property
    def branch_mispred_ratio(self) -> float:
        return self.branch_stats.misprediction_ratio

    def metrics(self, names: Iterable[str]) -> Dict[str, float]:
        """The named metrics, in the order given, and nothing else."""
        return {name: _FORMULAS[name](self) for name in names}

    def metric_dict(self) -> Dict[str, float]:
        """All 45 metrics, keyed by :data:`METRIC_NAMES` entries."""
        return self.metrics(METRIC_NAMES)

    def metric_vector(self) -> np.ndarray:
        """The 45 metrics as a float vector in canonical order."""
        return np.array(list(self.metric_dict().values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerfCounters):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # ---- lossless serialisation ------------------------------------------
    # The sweep executor ships samples between worker processes as JSON;
    # raw fields (not derived ratios) round-trip exactly, so a rehydrated
    # sample is bit-identical to one characterized in-process.
    def to_dict(self) -> dict:
        """Full-fidelity JSON form (inverse of :meth:`from_dict`)."""
        data = {
            "workload": self.workload,
            "platform": self.platform,
            "instructions": self.instructions,
            "mix_counts": {
                cls.value: count for cls, count in self.mix.counts.items()
            },
            "int_breakdown": {
                "int_addr": self.int_breakdown.int_addr,
                "fp_addr": self.int_breakdown.fp_addr,
                "other": self.int_breakdown.other,
            },
            "branch_stats": {
                "branches": self.branch_stats.branches,
                "mispredictions": self.branch_stats.mispredictions,
                "misfetches": self.branch_stats.misfetches,
                "btb_miss_ratio": self.branch_stats.btb_miss_ratio,
            },
            "pipeline": {
                "cpi": self.pipeline.cpi,
                "ipc": self.pipeline.ipc,
                "base_cpi": self.pipeline.base_cpi,
                "frontend_stall_cpi": self.pipeline.frontend_stall_cpi,
                "branch_stall_cpi": self.pipeline.branch_stall_cpi,
                "backend_stall_cpi": self.pipeline.backend_stall_cpi,
                "mlp": self.pipeline.mlp,
            },
        }
        for name in _SCALAR_FIELDS:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PerfCounters":
        """Rehydrate a sample serialised by :meth:`to_dict`."""
        mix = InstructionMix()
        for name, count in data["mix_counts"].items():
            mix.counts[InstructionClass(name)] = float(count)
        scalars = {name: float(data[name]) for name in _SCALAR_FIELDS}
        phase = BranchPhase(
            branch_stats=BranchStats(**data["branch_stats"]),
            pipeline=PipelineStats(**data["pipeline"]),
            **{name: scalars.pop(name) for name in _PHASE_SCALARS},
        )
        return cls(
            workload=data["workload"],
            platform=data["platform"],
            instructions=float(data["instructions"]),
            mix=mix,
            int_breakdown=IntBreakdown(**data["int_breakdown"]),
            replay_branches=lambda: phase,
            **scalars,
        )


#: The flat float values of :class:`PerfCounters` (everything except
#: the nested mix/breakdown/branch/pipeline structures and identity).
_SCALAR_FIELDS = (
    "l1i_mpki", "l1i_miss_ratio", "l1d_mpki", "l1d_miss_ratio",
    "l2_mpki", "l2_miss_ratio", "l3_mpki", "l3_miss_ratio",
    "l2_instruction_share", "itlb_mpki", "itlb_miss_ratio",
    "dtlb_mpki", "dtlb_miss_ratio", "offcore_read_pki",
    "offcore_write_pki", "offcore_bandwidth_gbps", "snoop_hit_ratio",
    "snoop_hitm_ratio", "tlp", "speculation_ratio", "int_ops_per_byte",
    "fp_ops_per_byte", "instructions_per_byte", "gflops", "ilp",
)

#: The scalars of :class:`BranchPhase`.
_PHASE_SCALARS = ("offcore_bandwidth_gbps", "speculation_ratio", "gflops")

#: name -> formula over one sample, for the 45 metrics in canonical
#: order.  These instantiate the paper's eight metric groups:
#: instruction mix, cache behaviour, TLB behaviour, branch execution,
#: pipeline behaviour, off-core requests and snoop responses,
#: parallelism, and operation intensity.
_FORMULAS: Dict[str, Callable[[PerfCounters], float]] = {
    # instruction mix (9)
    "ratio_load": lambda c: c.mix.ratio(InstructionClass.LOAD),
    "ratio_store": lambda c: c.mix.ratio(InstructionClass.STORE),
    "ratio_branch": lambda c: c.mix.ratio(InstructionClass.BRANCH),
    "ratio_integer": lambda c: c.mix.ratio(InstructionClass.INTEGER),
    "ratio_fp": lambda c: c.mix.ratio(InstructionClass.FP),
    "ratio_other": lambda c: c.mix.ratio(InstructionClass.OTHER),
    "int_addr_share": attrgetter("int_breakdown.int_addr"),
    "fp_addr_share": attrgetter("int_breakdown.fp_addr"),
    "data_movement_share":
        lambda c: data_movement_share(c.mix, c.int_breakdown),
    # cache behaviour (9)
    "l1i_mpki": attrgetter("l1i_mpki"),
    "l1i_miss_ratio": attrgetter("l1i_miss_ratio"),
    "l1d_mpki": attrgetter("l1d_mpki"),
    "l1d_miss_ratio": attrgetter("l1d_miss_ratio"),
    "l2_mpki": attrgetter("l2_mpki"),
    "l2_miss_ratio": attrgetter("l2_miss_ratio"),
    "l3_mpki": attrgetter("l3_mpki"),
    "l3_miss_ratio": attrgetter("l3_miss_ratio"),
    "l2_instruction_share": attrgetter("l2_instruction_share"),
    # TLB behaviour (4)
    "itlb_mpki": attrgetter("itlb_mpki"),
    "itlb_miss_ratio": attrgetter("itlb_miss_ratio"),
    "dtlb_mpki": attrgetter("dtlb_mpki"),
    "dtlb_miss_ratio": attrgetter("dtlb_miss_ratio"),
    # branch execution (4)
    "branches_pki": lambda c: 1000.0 * c.mix.ratio(InstructionClass.BRANCH),
    "branch_mispred_ratio": attrgetter("branch_stats.misprediction_ratio"),
    "branch_mispred_pki":
        lambda c: c.branch_stats.mispredictions_pki(c.instructions),
    "btb_miss_ratio": attrgetter("branch_stats.btb_miss_ratio"),
    # pipeline behaviour (6)
    "ipc": attrgetter("pipeline.ipc"),
    "cpi": attrgetter("pipeline.cpi"),
    "frontend_stall_ratio": attrgetter("pipeline.frontend_stall_ratio"),
    "backend_stall_ratio": attrgetter("pipeline.backend_stall_ratio"),
    "branch_stall_ratio": attrgetter("pipeline.branch_stall_ratio"),
    "retire_utilization": lambda c: c.pipeline.ipc / 4.0,
    # off-core requests and snoop responses (5)
    "offcore_read_pki": attrgetter("offcore_read_pki"),
    "offcore_write_pki": attrgetter("offcore_write_pki"),
    "offcore_bandwidth_gbps": attrgetter("offcore_bandwidth_gbps"),
    "snoop_hit_ratio": attrgetter("snoop_hit_ratio"),
    "snoop_hitm_ratio": attrgetter("snoop_hitm_ratio"),
    # parallelism (4)
    "ilp": attrgetter("ilp"),
    "mlp": attrgetter("pipeline.mlp"),
    "tlp": attrgetter("tlp"),
    "speculation_ratio": attrgetter("speculation_ratio"),
    # operation intensity (4)
    "int_ops_per_byte": attrgetter("int_ops_per_byte"),
    "fp_ops_per_byte": attrgetter("fp_ops_per_byte"),
    "instructions_per_byte": attrgetter("instructions_per_byte"),
    "gflops": attrgetter("gflops"),
}

#: Names of the 45 metrics, in canonical order.
METRIC_NAMES: List[str] = list(_FORMULAS)


def characterization_seed(seed: int = 0) -> int:
    """The seed :func:`characterize` runs with for a run seeded ``seed``.

    The experiment context, ``repro run`` and the bench targets all
    characterize through this one rule.
    """
    return 1234 + seed


def characterize(
    profile: BehaviorProfile,
    platform: Platform,
    seed: int = characterization_seed(),
    sample_instructions: int = DEFAULT_SAMPLE_INSTRUCTIONS,
) -> PerfCounters:
    """Characterize ``profile`` on ``platform``.

    Runs a warm-up phase (mirroring the paper's 30-second ramp-up before
    sampling) followed by a measured phase through fresh cache, TLB and
    branch-predictor simulators, and composes the measured event counts
    into the 45-metric sample.  Trace generation, the cache walk and
    both TLBs run here.  The branch replay (warm-up and measured streams
    from ``seed + 2``) and the pipeline model run on the first read of a
    value that needs them (see :class:`PerfCounters`); they hold only
    the profile, the platform, the seed and the hierarchy's counts,
    never the traces, and give the same values whenever they run.
    """
    if sample_instructions <= 0:
        raise ValueError("sample_instructions must be positive")

    mix_ratios = profile.mix.ratios()
    load_ratio = mix_ratios[InstructionClass.LOAD]
    store_ratio = mix_ratios[InstructionClass.STORE]
    branch_ratio = mix_ratios[InstructionClass.BRANCH]

    n_fetch = max(2000, int(sample_instructions / INSTRUCTIONS_PER_FETCH))
    n_data = max(2000, int(sample_instructions * (load_ratio + store_ratio)))
    n_branch = max(1000, int(sample_instructions * branch_ratio))

    # Warm-up needs to touch a representative fraction of the code
    # footprint and resident data state, which may exceed the measured
    # trace length (mirroring the paper's 30-second ramp-up).
    footprint_lines = profile.code.total_bytes // LINE_BYTES
    n_fetch_warm = max(n_fetch, min(4 * footprint_lines, 400_000))
    state_lines = profile.data.state_bytes // LINE_BYTES
    state_fraction = max(profile.data.state_fraction, 1e-3)
    warm_for_state = int(2.5 * state_lines / state_fraction)
    n_data_warm = max(n_data, min(warm_for_state, 300_000))

    # --- Warm-up, then measured phase -------------------------------------
    # Each trace goes through its L1 and its TLB and is dropped before
    # the next one is generated; the L2 and L3 see only the L1 misses.
    hierarchy = platform.make_hierarchy()
    fetch_trace = generate_fetch_trace(
        profile.code, n_fetch_warm + n_fetch, seed=seed
    )
    fetch_misses = hierarchy.l1i.miss_stream(fetch_trace, n_fetch_warm)
    itlb_misses = tlb_misses(fetch_trace, platform.itlb, start=n_fetch_warm)
    del fetch_trace
    data_trace = generate_data_trace(
        profile.data, n_data_warm + n_data, seed=seed + 1
    )
    data_misses = hierarchy.l1d.miss_stream(data_trace, n_data_warm)
    dtlb_misses = tlb_misses(data_trace, platform.dtlb, start=n_data_warm)
    del data_trace

    # --- Resident-region LLC pre-warm ------------------------------------
    # The paper samples after a 30-second ramp-up, by which time the code
    # and resident data state have long been pulled into the last-level
    # cache.  The sampled trace window is far too short to reproduce that
    # history, so touch each resident line once in the LLC (streams stay
    # cold: their misses are genuinely compulsory).  Only the lines the
    # LLC still holds afterwards are fed to it (``resident_lines``).
    llc_prewarm = np.zeros(0, dtype=np.int64)
    if platform.l3 is not None:
        budget = 2 * platform.l3.num_sets * platform.l3.ways
        prewarm_ranges = list(code_line_ranges(profile.code))
        data_ranges = data_line_ranges(profile.data)
        prewarm_ranges.append(data_ranges["hot"])
        prewarm_ranges.append(data_ranges["state"])
        llc_prewarm = resident_lines(
            [(base, min(n_lines, budget)) for base, n_lines in prewarm_ranges],
            platform.l3.num_sets, platform.l3.ways,
        )
    hierarchy.walk_misses(fetch_misses, data_misses, llc_prewarm)
    del fetch_misses, data_misses, llc_prewarm

    instructions = float(sample_instructions)

    stats = {s.name: s for s in hierarchy.stats()}
    l1i = stats["L1I"]
    l1d = stats["L1D"]
    l2 = stats["L2"]
    l3 = stats.get("L3")

    l2_instruction_share = (
        (l1i.misses / l2.accesses) if l2.accesses else 0.0
    )

    # --- Off-core traffic and snoops -------------------------------------
    mem_fills = hierarchy.fetch_fills["mem"] + hierarchy.data_fills["mem"]
    offcore_read_pki = 1000.0 * mem_fills / instructions
    write_share = profile.offcore_write_share
    offcore_write_pki = offcore_read_pki * write_share / max(1e-9, 1.0 - write_share)
    # Snoop hits scale with the number of threads sharing the LLC.
    snoop_hit_ratio = min(0.6, 0.05 * profile.threads)
    snoop_hitm_ratio = profile.snoop_hitm_rate

    # --- Parallelism and operation intensity -----------------------------
    tlp = min(float(platform.cores), float(profile.threads))
    total_instr = profile.instructions
    int_ops = total_instr * mix_ratios[InstructionClass.INTEGER]
    fp_ops = profile.fp_ops
    int_ops_per_byte = int_ops / profile.bytes_processed
    fp_ops_per_byte = fp_ops / profile.bytes_processed
    instructions_per_byte = total_instr / profile.bytes_processed

    # --- Branch predictor and pipeline, on first read ----------------------
    def replay_branches() -> BranchPhase:
        predictor = platform.make_predictor()
        generator = BranchStreamGenerator(profile.branches, seed=seed + 2)
        warm_events = generator.generate(n_branch)
        simulate_branches(warm_events, predictor)
        events = generator.generate(n_branch)
        branch_stats = simulate_branches(events, predictor)

        pipeline = model_pipeline(
            profile,
            platform,
            hierarchy,
            branch_stats,
            itlb_misses,
            dtlb_misses,
            instructions,
        )
        instr_per_second = pipeline.ipc * platform.frequency_ghz * 1e9
        offcore_bandwidth_gbps = (
            (offcore_read_pki + offcore_write_pki)
            / 1000.0
            * LINE_BYTES
            * instr_per_second
            / 1e9
        )
        speculation_ratio = (
            branch_stats.mispredictions_pki(instructions)
            / 1000.0
            * platform.branch_penalty
            * pipeline.ipc
        )
        fp_per_instr = mix_ratios[InstructionClass.FP]
        gflops = (
            fp_per_instr
            * pipeline.ipc
            * platform.frequency_ghz
            * tlp
        )
        return BranchPhase(
            branch_stats=branch_stats,
            pipeline=pipeline,
            offcore_bandwidth_gbps=offcore_bandwidth_gbps,
            speculation_ratio=speculation_ratio,
            gflops=gflops,
        )

    return PerfCounters(
        workload=profile.name,
        platform=platform.name,
        instructions=instructions,
        mix=profile.mix,
        int_breakdown=profile.int_breakdown,
        l1i_mpki=l1i.mpki(instructions),
        l1i_miss_ratio=l1i.miss_ratio,
        l1d_mpki=l1d.mpki(instructions),
        l1d_miss_ratio=l1d.miss_ratio,
        l2_mpki=l2.mpki(instructions),
        l2_miss_ratio=l2.miss_ratio,
        l3_mpki=l3.mpki(instructions) if l3 is not None else 0.0,
        l3_miss_ratio=l3.miss_ratio if l3 is not None else 0.0,
        l2_instruction_share=l2_instruction_share,
        itlb_mpki=1000.0 * itlb_misses / instructions,
        itlb_miss_ratio=itlb_misses / max(1, n_fetch),
        dtlb_mpki=1000.0 * dtlb_misses / instructions,
        dtlb_miss_ratio=dtlb_misses / max(1, n_data),
        offcore_read_pki=offcore_read_pki,
        offcore_write_pki=offcore_write_pki,
        snoop_hit_ratio=snoop_hit_ratio,
        snoop_hitm_ratio=snoop_hitm_ratio,
        tlp=tlp,
        int_ops_per_byte=int_ops_per_byte,
        fp_ops_per_byte=fp_ops_per_byte,
        instructions_per_byte=instructions_per_byte,
        ilp=profile.ilp,
        replay_branches=replay_branches,
    )
