"""Perf-counter collection: the 45-metric characterization of the paper.

:func:`characterize` plays a workload's behaviour profile through the
cache hierarchy, TLBs and branch predictor of a platform (with a warm-up
phase, like the paper's 30-second ramp-up before sampling) and assembles
a :class:`PerfCounters` sample.  :meth:`PerfCounters.metric_vector`
serialises it into the 45-dimensional space used by WCRT for PCA and
K-means clustering (§3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.uarch.branch import BranchStats, BranchStreamGenerator, simulate_branches
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

#: Names of the 45 metrics, in canonical order.  These instantiate the
#: paper's eight metric groups: instruction mix, cache behaviour, TLB
#: behaviour, branch execution, pipeline behaviour, off-core requests and
#: snoop responses, parallelism, and operation intensity.
METRIC_NAMES: List[str] = [
    # instruction mix (9)
    "ratio_load",
    "ratio_store",
    "ratio_branch",
    "ratio_integer",
    "ratio_fp",
    "ratio_other",
    "int_addr_share",
    "fp_addr_share",
    "data_movement_share",
    # cache behaviour (9)
    "l1i_mpki",
    "l1i_miss_ratio",
    "l1d_mpki",
    "l1d_miss_ratio",
    "l2_mpki",
    "l2_miss_ratio",
    "l3_mpki",
    "l3_miss_ratio",
    "l2_instruction_share",
    # TLB behaviour (4)
    "itlb_mpki",
    "itlb_miss_ratio",
    "dtlb_mpki",
    "dtlb_miss_ratio",
    # branch execution (4)
    "branches_pki",
    "branch_mispred_ratio",
    "branch_mispred_pki",
    "btb_miss_ratio",
    # pipeline behaviour (6)
    "ipc",
    "cpi",
    "frontend_stall_ratio",
    "backend_stall_ratio",
    "branch_stall_ratio",
    "retire_utilization",
    # off-core requests and snoop responses (5)
    "offcore_read_pki",
    "offcore_write_pki",
    "offcore_bandwidth_gbps",
    "snoop_hit_ratio",
    "snoop_hitm_ratio",
    # parallelism (4)
    "ilp",
    "mlp",
    "tlp",
    "speculation_ratio",
    # operation intensity (4)
    "int_ops_per_byte",
    "fp_ops_per_byte",
    "instructions_per_byte",
    "gflops",
]


@dataclass
class PerfCounters:
    """One characterization sample: everything the paper reports.

    Attributes mirror PMU-derived quantities; :meth:`metric_vector`
    flattens them into the 45-metric space.
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
    branch_stats: BranchStats
    pipeline: PipelineStats
    offcore_read_pki: float
    offcore_write_pki: float
    offcore_bandwidth_gbps: float
    snoop_hit_ratio: float
    snoop_hitm_ratio: float
    tlp: float
    speculation_ratio: float
    int_ops_per_byte: float
    fp_ops_per_byte: float
    instructions_per_byte: float
    gflops: float
    ilp: float

    @property
    def ipc(self) -> float:
        return self.pipeline.ipc

    @property
    def branch_mispred_ratio(self) -> float:
        return self.branch_stats.misprediction_ratio

    def metric_dict(self) -> Dict[str, float]:
        """All 45 metrics, keyed by :data:`METRIC_NAMES` entries."""
        mix = self.mix
        values = {
            "ratio_load": mix.ratio(InstructionClass.LOAD),
            "ratio_store": mix.ratio(InstructionClass.STORE),
            "ratio_branch": mix.ratio(InstructionClass.BRANCH),
            "ratio_integer": mix.ratio(InstructionClass.INTEGER),
            "ratio_fp": mix.ratio(InstructionClass.FP),
            "ratio_other": mix.ratio(InstructionClass.OTHER),
            "int_addr_share": self.int_breakdown.int_addr,
            "fp_addr_share": self.int_breakdown.fp_addr,
            "data_movement_share": data_movement_share(mix, self.int_breakdown),
            "l1i_mpki": self.l1i_mpki,
            "l1i_miss_ratio": self.l1i_miss_ratio,
            "l1d_mpki": self.l1d_mpki,
            "l1d_miss_ratio": self.l1d_miss_ratio,
            "l2_mpki": self.l2_mpki,
            "l2_miss_ratio": self.l2_miss_ratio,
            "l3_mpki": self.l3_mpki,
            "l3_miss_ratio": self.l3_miss_ratio,
            "l2_instruction_share": self.l2_instruction_share,
            "itlb_mpki": self.itlb_mpki,
            "itlb_miss_ratio": self.itlb_miss_ratio,
            "dtlb_mpki": self.dtlb_mpki,
            "dtlb_miss_ratio": self.dtlb_miss_ratio,
            "branches_pki": 1000.0 * mix.ratio(InstructionClass.BRANCH),
            "branch_mispred_ratio": self.branch_stats.misprediction_ratio,
            "branch_mispred_pki": self.branch_stats.mispredictions_pki(
                self.instructions
            ),
            "btb_miss_ratio": self.branch_stats.btb_miss_ratio,
            "ipc": self.pipeline.ipc,
            "cpi": self.pipeline.cpi,
            "frontend_stall_ratio": self.pipeline.frontend_stall_ratio,
            "backend_stall_ratio": self.pipeline.backend_stall_ratio,
            "branch_stall_ratio": self.pipeline.branch_stall_ratio,
            "retire_utilization": self.pipeline.ipc / 4.0,
            "offcore_read_pki": self.offcore_read_pki,
            "offcore_write_pki": self.offcore_write_pki,
            "offcore_bandwidth_gbps": self.offcore_bandwidth_gbps,
            "snoop_hit_ratio": self.snoop_hit_ratio,
            "snoop_hitm_ratio": self.snoop_hitm_ratio,
            "ilp": self.ilp,
            "mlp": self.pipeline.mlp,
            "tlp": self.tlp,
            "speculation_ratio": self.speculation_ratio,
            "int_ops_per_byte": self.int_ops_per_byte,
            "fp_ops_per_byte": self.fp_ops_per_byte,
            "instructions_per_byte": self.instructions_per_byte,
            "gflops": self.gflops,
        }
        return values

    def metric_vector(self) -> np.ndarray:
        """The 45 metrics as a float vector in canonical order."""
        values = self.metric_dict()
        return np.array([values[name] for name in METRIC_NAMES])

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
        return cls(
            workload=data["workload"],
            platform=data["platform"],
            instructions=float(data["instructions"]),
            mix=mix,
            int_breakdown=IntBreakdown(**data["int_breakdown"]),
            branch_stats=BranchStats(**data["branch_stats"]),
            pipeline=PipelineStats(**data["pipeline"]),
            **{name: float(data[name]) for name in _SCALAR_FIELDS},
        )


#: The flat float attributes of :class:`PerfCounters` (everything except
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


def characterize(
    profile: BehaviorProfile,
    platform: Platform,
    seed: int = 1234,
    sample_instructions: int = DEFAULT_SAMPLE_INSTRUCTIONS,
) -> PerfCounters:
    """Characterize ``profile`` on ``platform``.

    Runs a warm-up phase (mirroring the paper's 30-second ramp-up before
    sampling) followed by a measured phase through fresh cache, TLB and
    branch-predictor simulators, then composes the measured event counts
    into the 45-metric sample.
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

    fetch_trace = generate_fetch_trace(
        profile.code, n_fetch_warm + n_fetch, seed=seed
    )
    data_trace = generate_data_trace(
        profile.data, n_data_warm + n_data, seed=seed + 1
    )

    # --- Resident-region LLC pre-warm ------------------------------------
    # The paper samples after a 30-second ramp-up, by which time the code
    # and resident data state have long been pulled into the last-level
    # cache.  The sampled trace window is far too short to reproduce that
    # history, so touch each resident line once in the LLC (streams stay
    # cold: their misses are genuinely compulsory).
    llc_prewarm = np.zeros(0, dtype=np.int64)
    if platform.l3 is not None:
        budget = 2 * platform.l3.num_sets * platform.l3.ways
        prewarm_ranges = list(code_line_ranges(profile.code))
        data_ranges = data_line_ranges(profile.data)
        prewarm_ranges.append(data_ranges["hot"])
        prewarm_ranges.append(data_ranges["state"])
        llc_prewarm = np.concatenate([
            np.arange(base, base + min(n_lines, budget), dtype=np.int64)
            for base, n_lines in prewarm_ranges
        ])

    # --- Warm-up, then measured phase -------------------------------------
    hierarchy = platform.make_hierarchy()
    hierarchy.walk(
        fetch_trace, data_trace, n_fetch_warm, n_data_warm, llc_prewarm
    )
    itlb_misses = tlb_misses(fetch_trace, platform.itlb, start=n_fetch_warm)
    dtlb_misses = tlb_misses(data_trace, platform.dtlb, start=n_data_warm)

    # --- Branch predictor -----------------------------------------------
    predictor = platform.make_predictor()
    generator = BranchStreamGenerator(profile.branches, seed=seed + 2)
    warm_events = generator.generate(n_branch)
    simulate_branches(warm_events, predictor)
    events = generator.generate(n_branch)
    branch_stats = simulate_branches(events, predictor)

    instructions = float(sample_instructions)

    pipeline = model_pipeline(
        profile,
        platform,
        hierarchy,
        branch_stats,
        itlb_misses,
        dtlb_misses,
        instructions,
    )

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
    instr_per_second = pipeline.ipc * platform.frequency_ghz * 1e9
    offcore_bandwidth_gbps = (
        (offcore_read_pki + offcore_write_pki)
        / 1000.0
        * LINE_BYTES
        * instr_per_second
        / 1e9
    )
    # Snoop hits scale with the number of threads sharing the LLC.
    snoop_hit_ratio = min(0.6, 0.05 * profile.threads)
    snoop_hitm_ratio = profile.snoop_hitm_rate

    # --- Parallelism and operation intensity -----------------------------
    tlp = min(float(platform.cores), float(profile.threads))
    speculation_ratio = (
        branch_stats.mispredictions_pki(instructions)
        / 1000.0
        * platform.branch_penalty
        * pipeline.ipc
    )
    total_instr = profile.instructions
    int_ops = total_instr * mix_ratios[InstructionClass.INTEGER]
    fp_ops = profile.fp_ops
    int_ops_per_byte = int_ops / profile.bytes_processed
    fp_ops_per_byte = fp_ops / profile.bytes_processed
    instructions_per_byte = total_instr / profile.bytes_processed
    fp_per_instr = mix_ratios[InstructionClass.FP]
    gflops = (
        fp_per_instr
        * pipeline.ipc
        * platform.frequency_ghz
        * tlp
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
        branch_stats=branch_stats,
        pipeline=pipeline,
        offcore_read_pki=offcore_read_pki,
        offcore_write_pki=offcore_write_pki,
        offcore_bandwidth_gbps=offcore_bandwidth_gbps,
        snoop_hit_ratio=snoop_hit_ratio,
        snoop_hitm_ratio=snoop_hitm_ratio,
        tlp=tlp,
        speculation_ratio=speculation_ratio,
        int_ops_per_byte=int_ops_per_byte,
        fp_ops_per_byte=fp_ops_per_byte,
        instructions_per_byte=instructions_per_byte,
        gflops=gflops,
        ilp=profile.ilp,
    )
