"""Stack-independent metering and the per-stack trait models.

The pipeline from real execution to a characterizable profile:

1. Workload kernels process generated records and report *abstract
   operations* (compares, hashes, array accesses, string scanning, ...)
   to a :class:`Meter`.
2. Each abstract operation expands into instruction-class counts via the
   :data:`OP_EXPANSION` cost table — this is the kernel's contribution to
   the instruction mix.
3. The software stack adds *framework instructions* per record moved
   through it (:class:`StackTraits`: dispatch depth, per-byte buffer
   handling), with the branch-heavy, load-heavy mix characteristic of
   layered middleware.
4. The combined mix, code-footprint and branch models form a
   :class:`repro.uarch.profile.BehaviorProfile` which the simulators
   measure.

The §5.5 software-stack findings (MPI ≈ PARSEC-sized instruction
footprints; Hadoop/Spark an order of magnitude larger L1I miss rates)
follow from the trait constants at the bottom of this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.stacks.scheduler import RecoveryPolicy, policy_for, run_waves
from repro.uarch.isa import InstructionClass, InstructionMix, IntBreakdown
from repro.uarch.profile import (
    LINE_BYTES,
    BehaviorProfile,
    BranchProfile,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
)

def stable_hash(key: object) -> int:
    """Partition hash that is identical across interpreter invocations.

    The builtin ``hash()`` is salted per-process for str/bytes
    (PYTHONHASHSEED), which would make shuffle partition sizes — and
    every downstream scheduler/IO metric — differ between runs.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


#: Expansion of one abstract kernel operation into instruction classes.
#: Each entry also carries the share of its integer instructions doing
#: integer-array / floating-point-array address calculation (Figure 2).
OP_EXPANSION: Dict[str, dict] = {
    "compare": {
        "load": 1.0, "int": 1.0, "branch": 1.0,
        "int_addr": 0.5, "fp_addr": 0.0,
    },
    "hash": {
        "load": 1.0, "store": 0.5, "int": 4.0, "branch": 0.5,
        "int_addr": 0.4, "fp_addr": 0.0,
    },
    "int_op": {
        "int": 1.0,
        "int_addr": 0.0, "fp_addr": 0.0,
    },
    "fp_op": {
        "fp": 1.0, "int": 0.7, "load": 0.8,
        "int_addr": 0.0, "fp_addr": 1.0,
    },
    "array_access": {
        "load": 1.0, "int": 1.0,
        "int_addr": 1.0, "fp_addr": 0.0,
    },
    "field_store": {
        "store": 1.0, "int": 0.5,
        "int_addr": 1.0, "fp_addr": 0.0,
    },
    "str_byte": {
        "load": 0.3, "int": 0.4, "branch": 0.2,
        "int_addr": 0.7, "fp_addr": 0.0,
    },
    "call": {
        "load": 1.5, "store": 1.5, "branch": 1.0, "int": 1.0, "other": 0.5,
        "int_addr": 0.6, "fp_addr": 0.0,
    },
    "alloc": {
        "load": 2.0, "store": 4.0, "int": 4.0, "branch": 1.0,
        "int_addr": 0.7, "fp_addr": 0.0,
    },
    # Pure-class ballast ops: x86 folds address arithmetic into its
    # memory and branch instructions, so suites use these to shape mixes
    # without inflating the integer class.
    "branch_op": {
        "branch": 1.0,
        "int_addr": 0.0, "fp_addr": 0.0,
    },
    "mem_op": {
        "load": 0.72, "store": 0.28,
        "int_addr": 0.0, "fp_addr": 0.0,
    },
}


class Meter:
    """Accumulates abstract operations and data-flow volumes.

    Kernels report batched operation counts (one call per record or per
    record batch, not per element) so that metering does not dominate
    Python runtime while remaining data-dependent.
    """

    def __init__(self):
        self.op_counts: Dict[str, float] = {op: 0.0 for op in OP_EXPANSION}
        self.records_in = 0
        self.records_out = 0
        self.records_shuffled = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_shuffled = 0
        self.fp_ops = 0.0

    def ops(self, **counts: float) -> None:
        """Record abstract operations, e.g. ``ops(compare=10, hash=10)``."""
        for op, count in counts.items():
            if op not in self.op_counts:
                raise KeyError(f"unknown abstract operation {op!r}")
            if count < 0:
                raise ValueError(f"count for {op!r} must be non-negative")
            self.op_counts[op] += count
            if op == "fp_op":
                self.fp_ops += count

    def record_in(self, nbytes: int, records: int = 1) -> None:
        """Account ``records`` input records totalling ``nbytes``."""
        self.records_in += records
        self.bytes_in += nbytes

    def record_out(self, nbytes: int, records: int = 1) -> None:
        """Account ``records`` output records totalling ``nbytes``."""
        self.records_out += records
        self.bytes_out += nbytes

    def record_shuffle(self, nbytes: int, records: int = 1) -> None:
        """Account intermediate records crossing the shuffle/exchange."""
        self.records_shuffled += records
        self.bytes_shuffled += nbytes

    def merge(self, other: "Meter") -> None:
        """Fold another meter (e.g. a task's) into this one."""
        for op, count in other.op_counts.items():
            self.op_counts[op] += count
        self.records_in += other.records_in
        self.records_out += other.records_out
        self.records_shuffled += other.records_shuffled
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.bytes_shuffled += other.bytes_shuffled
        self.fp_ops += other.fp_ops

    def kernel_mix(self) -> InstructionMix:
        """The kernel-side instruction mix implied by the recorded ops."""
        mix = InstructionMix()
        for op, count in self.op_counts.items():
            if count == 0:
                continue
            expansion = OP_EXPANSION[op]
            for klass in ("load", "store", "branch", "int", "fp", "other"):
                amount = expansion.get(klass, 0.0) * count
                if amount:
                    target = {
                        "load": InstructionClass.LOAD,
                        "store": InstructionClass.STORE,
                        "branch": InstructionClass.BRANCH,
                        "int": InstructionClass.INTEGER,
                        "fp": InstructionClass.FP,
                        "other": InstructionClass.OTHER,
                    }[klass]
                    mix.add(target, amount)
        return mix

    def kernel_int_breakdown(self) -> IntBreakdown:
        """Figure-2 style breakdown of the kernel's integer instructions."""
        total_int = 0.0
        int_addr = 0.0
        fp_addr = 0.0
        for op, count in self.op_counts.items():
            if count == 0:
                continue
            expansion = OP_EXPANSION[op]
            ints = expansion.get("int", 0.0) * count
            total_int += ints
            int_addr += ints * expansion.get("int_addr", 0.0)
            fp_addr += ints * expansion.get("fp_addr", 0.0)
        if total_int == 0:
            return IntBreakdown(int_addr=0.5, fp_addr=0.1, other=0.4)
        other = max(0.0, total_int - int_addr - fp_addr)
        return IntBreakdown(
            int_addr=int_addr / total_int,
            fp_addr=fp_addr / total_int,
            other=other / total_int,
        )


@dataclass(frozen=True)
class KernelTraits:
    """Algorithm-intrinsic behaviour, independent of the hosting stack.

    Attributes:
        code_kb: Static size of the compiled kernel inner loops.
        ilp: Inherent instruction-level parallelism of the kernel.
        loop_fraction / pattern_fraction / data_dependent_fraction:
            Branch-kind composition of the kernel's branches.
        taken_prob: Taken bias of the data-dependent branches.
        loop_trip: Mean trip count of kernel loops.
        state_zipf: Access skew into the kernel's resident state.
    """

    code_kb: float = 24.0
    ilp: float = 2.2
    loop_fraction: float = 0.40
    pattern_fraction: float = 0.10
    data_dependent_fraction: float = 0.50
    taken_prob: float = 0.04
    loop_trip: int = 24
    state_zipf: float = 0.6


@dataclass(frozen=True)
class StackTraits:
    """Micro-architecturally relevant constants of one software stack.

    Attributes:
        name: Stack name as used in workload IDs ("Hadoop", "MPI", ...).
        dispatch_in / dispatch_out / shuffle_per_byte: Framework
            instructions charged per record read / emitted / shuffled
            (the layering depth the paper blames for front-end stalls).
        per_byte: Framework instructions per payload byte (buffer copies,
            (de)serialisation, checksumming).
        framework_mix: Instruction-class ratios of framework code.
        framework_int_breakdown: Figure-2 breakdown of framework integers.
        region_kb: Sizes of the (hot, warm, cold) framework code regions.
        region_split: Shares of framework instructions executed in each.
        indirect_fraction: Indirect-branch share (virtual dispatch; high
            on JVM stacks, negligible for MPI/C++).
        static_sites: Static branch-site population (code-size driven).
        ilp_factor: Multiplier on kernel ILP (layering lengthens
            dependence chains).
        shuffle_is_streaming: Whether per-shuffled-record work runs in
            tight byte-copy loops (Hadoop's raw sort/spill path, Impala's
            exchanges, MPI packing) or in sprawling object-dispatch code
            (Spark 1.x / Shark generic aggregation) — the distinction
            behind Spark's *higher* L1I miss rates than Hadoop for the
            same algorithm in Figure 4.
        startup_instructions: One-off per-task framework startup cost.
        instruction_rate: Effective instructions/second/core used for
            discrete-event task timing.
        hot_data_kb: Stack/locals working set.
        framework_state_kb: Resident framework data (buffers, metadata).
    """

    name: str
    dispatch_in: float
    dispatch_out: float
    shuffle_per_byte: float
    per_byte: float
    framework_mix: Dict[str, float]
    framework_int_breakdown: IntBreakdown
    region_kb: tuple
    region_split: tuple
    indirect_fraction: float
    static_sites: int
    ilp_factor: float
    shuffle_is_streaming: bool = True
    startup_instructions: float = 2e8
    instruction_rate: float = 2.6e9
    #: Multiplier applied to metered instructions when charging CPU time
    #: in the discrete-event cluster.  The abstract-operation meter counts
    #: semantic work; managed runtimes retire several times that in
    #: charset decoding, boxing and GC, which matters for the §3.2.1
    #: CPU/IO balance but not for the per-instruction-mix statistics.
    des_cpu_factor: float = 1.0
    hot_data_kb: float = 16.0
    framework_state_kb: float = 512.0

    def framework_components(self, meter: Meter) -> tuple:
        """(dispatch, streaming) framework instruction counts.

        *Dispatch* instructions wander the warm/cold framework regions
        (RPC, task management, operator trees, virtual call chains) and
        are charged per record; *streaming* instructions run tight
        serialisation/copy loops in the hot region and are charged per
        byte.  Shuffle handling is per byte either way, but lands on the
        streaming side only for stacks whose exchange path is raw
        byte-copy code (``shuffle_is_streaming``).
        """
        shuffle_instr = meter.bytes_shuffled * self.shuffle_per_byte
        dispatch = (
            meter.records_in * self.dispatch_in
            + meter.records_out * self.dispatch_out
        )
        streaming = (meter.bytes_in + meter.bytes_out) * self.per_byte
        if self.shuffle_is_streaming:
            streaming += shuffle_instr
        else:
            dispatch += shuffle_instr
        return dispatch, streaming

    def framework_instructions(self, meter: Meter) -> float:
        """Total framework instruction count for a metered execution."""
        dispatch, streaming = self.framework_components(meter)
        return dispatch + streaming


#: Branch behaviour of framework code: record-pump loops plus highly
#: biased error/validity checks.
_FRAMEWORK_BRANCHES = {
    "loop_fraction": 0.38,
    "pattern_fraction": 0.12,
    "data_dependent_fraction": 0.50,
    "taken_prob": 0.03,
    "loop_trip": 20,
}

_JVM_MIX = {
    "load": 0.27, "store": 0.12, "branch": 0.20,
    "integer": 0.355, "fp": 0.005, "other": 0.05,
}
_NATIVE_MIX = {
    "load": 0.26, "store": 0.11, "branch": 0.17,
    "integer": 0.40, "fp": 0.01, "other": 0.05,
}
_JVM_INT_BREAKDOWN = IntBreakdown(int_addr=0.64, fp_addr=0.16, other=0.20)
_NATIVE_INT_BREAKDOWN = IntBreakdown(int_addr=0.60, fp_addr=0.14, other=0.26)


HADOOP_TRAITS = StackTraits(
    name="Hadoop",
    dispatch_in=2000.0,
    dispatch_out=120.0,
    shuffle_per_byte=0.8,
    per_byte=0.5,
    framework_mix=_JVM_MIX,
    framework_int_breakdown=_JVM_INT_BREAKDOWN,
    region_kb=(12.0, 128.0, 896.0),
    region_split=(0.76, 0.18, 0.06),
    indirect_fraction=0.045,
    static_sites=3072,
    ilp_factor=1.00,
    shuffle_is_streaming=True,  # raw byte-oriented sort/spill path
    startup_instructions=5e8,
    instruction_rate=2.6e9,
    framework_state_kb=1024.0,
    des_cpu_factor=55.0,
)

SPARK_TRAITS = StackTraits(
    name="Spark",
    dispatch_in=1800.0,
    dispatch_out=1200.0,
    shuffle_per_byte=0.8,
    per_byte=0.3,
    framework_mix=_JVM_MIX,
    framework_int_breakdown=_JVM_INT_BREAKDOWN,
    region_kb=(12.0, 144.0, 768.0),
    region_split=(0.805, 0.15, 0.045),
    indirect_fraction=0.055,
    static_sites=4096,
    ilp_factor=0.95,
    shuffle_is_streaming=False,  # Spark 1.x object-based aggregation
    startup_instructions=3e8,
    instruction_rate=2.7e9,
    framework_state_kb=1536.0,
    des_cpu_factor=10.0,
)

MPI_TRAITS = StackTraits(
    name="MPI",
    dispatch_in=250.0,
    dispatch_out=70.0,
    shuffle_per_byte=0.06,
    per_byte=0.06,
    framework_mix=_NATIVE_MIX,
    framework_int_breakdown=_NATIVE_INT_BREAKDOWN,
    region_kb=(6.0, 72.0, 96.0),
    region_split=(0.85, 0.13, 0.02),
    indirect_fraction=0.004,
    static_sites=384,
    ilp_factor=1.05,
    shuffle_is_streaming=True,  # message packing is tight loops
    startup_instructions=5e7,
    instruction_rate=3.2e9,
    framework_state_kb=256.0,
    des_cpu_factor=4.0,
)

HIVE_TRAITS = StackTraits(
    name="Hive",
    dispatch_in=3800.0,
    dispatch_out=2200.0,
    shuffle_per_byte=1.0,
    per_byte=0.55,
    framework_mix=_JVM_MIX,
    framework_int_breakdown=_JVM_INT_BREAKDOWN,
    region_kb=(14.0, 128.0, 1024.0),
    region_split=(0.90, 0.08, 0.02),
    indirect_fraction=0.05,
    static_sites=4096,
    ilp_factor=1.00,
    shuffle_is_streaming=True,  # rides Hadoop's shuffle
    startup_instructions=6e8,
    instruction_rate=2.5e9,
    framework_state_kb=1536.0,
    des_cpu_factor=8.0,
)

SHARK_TRAITS = StackTraits(
    name="Shark",
    dispatch_in=3000.0,
    dispatch_out=2000.0,
    shuffle_per_byte=0.9,
    per_byte=0.4,
    framework_mix=_JVM_MIX,
    framework_int_breakdown=_JVM_INT_BREAKDOWN,
    region_kb=(14.0, 192.0, 896.0),
    region_split=(0.86, 0.105, 0.035),
    indirect_fraction=0.055,
    static_sites=4096,
    ilp_factor=1.00,
    shuffle_is_streaming=False,  # rides Spark's object shuffle
    startup_instructions=4e8,
    instruction_rate=2.7e9,
    framework_state_kb=1536.0,
    des_cpu_factor=6.0,
)

IMPALA_TRAITS = StackTraits(
    name="Impala",
    dispatch_in=420.0,
    dispatch_out=320.0,
    shuffle_per_byte=0.25,
    per_byte=0.1,
    framework_mix=_NATIVE_MIX,
    framework_int_breakdown=_NATIVE_INT_BREAKDOWN,
    region_kb=(12.0, 96.0, 320.0),
    region_split=(0.90, 0.085, 0.015),
    indirect_fraction=0.015,
    static_sites=1024,
    ilp_factor=1.15,
    shuffle_is_streaming=True,  # vectorised native exchanges
    startup_instructions=1e8,
    instruction_rate=3.0e9,
    framework_state_kb=768.0,
    des_cpu_factor=2.0,
)

HBASE_TRAITS = StackTraits(
    name="HBase",
    dispatch_in=9000.0,
    dispatch_out=7000.0,
    shuffle_per_byte=1.0,
    per_byte=0.8,
    framework_mix=_JVM_MIX,
    framework_int_breakdown=_JVM_INT_BREAKDOWN,
    region_kb=(20.0, 224.0, 2560.0),
    region_split=(0.60, 0.285, 0.115),
    indirect_fraction=0.06,
    static_sites=8192,
    ilp_factor=0.80,
    shuffle_is_streaming=False,
    startup_instructions=8e8,
    instruction_rate=2.2e9,
    framework_state_kb=2048.0,
    des_cpu_factor=10.0,
)


@dataclass
class WorkloadResult:
    """Everything a workload execution yields.

    Attributes:
        name: Workload identifier (e.g. ``"S-WordCount"``).
        output: The functional result (counts, sorted keys, rows, ...).
        profile: Behaviour profile for the uarch simulators.
        meter: The merged meter (data-flow volumes for §3.2.2).
        system: Cluster system metrics (None for unclustered runs).
        elapsed: Simulated wall-clock seconds (None for unclustered runs).
        segments: Optional per-phase ``(profile, weight)`` samples, one
            per phase, each weighted by the phase's instruction count.
            The paper's §5.4 study samples Hadoop runs at five points
            (Map 0-1%, 50-51% and 99-100%; Reduce 0-1% and 99-100%) and
            takes the weighted mean of their simulations; behaviour here
            is stationary within a phase, so one sample per phase gives
            the same mean.
    """

    name: str
    output: object
    profile: BehaviorProfile
    meter: Meter
    system: Optional[object] = None
    elapsed: Optional[float] = None
    segments: Optional[list] = None


def build_profile(
    name: str,
    meter: Meter,
    stack: StackTraits,
    kernel: KernelTraits,
    data: DataFootprint,
    threads: int = 6,
    offcore_write_share: float = 0.3,
) -> BehaviorProfile:
    """Compose a kernel execution and a stack model into a profile.

    The framework-instruction share determines both the instruction mix
    blend and the dynamic weight of the framework code regions — the
    mechanism behind the paper's footprint findings.
    """
    kernel_mix = meter.kernel_mix()
    if kernel_mix.total <= 0:
        # Pure-dispatch executions (e.g. a LIMIT-only query, a collective
        # that only moves data) still retire a sliver of user code.
        kernel_mix = InstructionMix.from_ratios(
            1000.0, load=0.25, store=0.1, branch=0.15, integer=0.4,
            fp=0.02, other=0.08,
        )
    kernel_instr = kernel_mix.total
    dispatch_instr, streaming_instr = stack.framework_components(meter)
    framework_instr = dispatch_instr + streaming_instr
    framework_mix = InstructionMix.from_ratios(
        framework_instr, **stack.framework_mix
    )
    mix = kernel_mix + framework_mix
    total_instr = mix.total
    framework_share = framework_instr / total_instr
    dispatch_share = dispatch_instr / total_instr
    streaming_share = streaming_instr / total_instr

    kernel_breakdown = meter.kernel_int_breakdown()
    kernel_ints = kernel_mix.counts[InstructionClass.INTEGER]
    framework_ints = framework_mix.counts[InstructionClass.INTEGER]
    int_total = max(1e-9, kernel_ints + framework_ints)
    breakdown = IntBreakdown(
        int_addr=(
            kernel_breakdown.int_addr * kernel_ints
            + stack.framework_int_breakdown.int_addr * framework_ints
        )
        / int_total,
        fp_addr=(
            kernel_breakdown.fp_addr * kernel_ints
            + stack.framework_int_breakdown.fp_addr * framework_ints
        )
        / int_total,
        other=(
            kernel_breakdown.other * kernel_ints
            + stack.framework_int_breakdown.other * framework_ints
        )
        / int_total,
    )

    hot_kb, warm_kb, cold_kb = stack.region_kb
    hot_split, warm_split, cold_split = stack.region_split
    kernel_weight = 1.0 - framework_share
    # Streaming framework instructions execute in the hot region;
    # dispatch instructions spread per the stack's region split.
    regions = [
        CodeRegion(
            "kernel",
            int(kernel.code_kb * 1024),
            weight=kernel_weight,
            sequentiality=8.0,
        ),
        CodeRegion(
            "framework-hot",
            int(hot_kb * 1024),
            weight=streaming_share + dispatch_share * hot_split,
            sequentiality=6.0,
        ),
        # Code popularity inside the warm framework region is itself
        # skewed: a hot core (a third of the region) takes most fetches
        # and stays L2-resident, the tail churns — without this split the
        # whole warm region thrashes the 256 KB L2, which real JVMs do
        # not do.
        CodeRegion(
            "framework-warm-core",
            max(LINE_BYTES, int(warm_kb * 1024 * 0.4)),
            weight=dispatch_share * warm_split * 0.76,
            sequentiality=5.0,
        ),
        CodeRegion(
            "framework-warm-tail",
            max(LINE_BYTES, int(warm_kb * 1024 * 0.6)),
            weight=dispatch_share * warm_split * 0.24,
            sequentiality=5.0,
        ),
        CodeRegion(
            "framework-cold",
            int(cold_kb * 1024),
            weight=dispatch_share * cold_split,
            sequentiality=4.0,
        ),
    ]

    # Blend branch behaviour by instruction share.
    def blend(kernel_value: float, framework_value: float) -> float:
        return (
            kernel_value * (1.0 - framework_share)
            + framework_value * framework_share
        )

    fw = _FRAMEWORK_BRANCHES
    loop_f = blend(kernel.loop_fraction, fw["loop_fraction"])
    pattern_f = blend(kernel.pattern_fraction, fw["pattern_fraction"])
    datadep_f = blend(kernel.data_dependent_fraction, fw["data_dependent_fraction"])
    norm = loop_f + pattern_f + datadep_f
    branches = BranchProfile(
        loop_fraction=loop_f / norm,
        pattern_fraction=pattern_f / norm,
        data_dependent_fraction=datadep_f / norm,
        taken_prob=blend(kernel.taken_prob, fw["taken_prob"]),
        loop_trip=max(4, int(round(blend(kernel.loop_trip, fw["loop_trip"])))),
        indirect_fraction=stack.indirect_fraction,
        indirect_targets=4,
        static_sites=stack.static_sites,
    )

    return BehaviorProfile(
        name=name,
        mix=mix,
        int_breakdown=breakdown,
        code=CodeFootprint(regions=regions),
        data=data,
        branches=branches,
        ilp=kernel.ilp * stack.ilp_factor,
        instructions=total_instr,
        fp_ops=meter.fp_ops,
        bytes_processed=max(1, meter.bytes_in),
        threads=threads,
        offcore_write_share=offcore_write_share,
    )


class SoftwareStack:
    """Base class for stack engines.

    Concrete engines (Hadoop, Spark, MPI, SQL engines, HBase) execute
    real kernels over generated data and meter the work; they differ
    only in how they shape that work into task waves.  :meth:`result`
    is the shared tail: it builds the profile and, given a cluster,
    replays the engine's waves on it.
    """

    traits: StackTraits

    def __init__(self, traits: StackTraits):
        self.traits = traits

    def data_footprint(
        self,
        meter: Meter,
        kernel: KernelTraits,
        state_bytes: int,
        state_fraction: float = 0.03,
        stream_fraction: float = 0.01,
    ) -> DataFootprint:
        """Standard data-footprint construction.

        The stream region is sized from the metered input bytes (capped
        to a sampling window); resident state combines the workload's
        structures with the stack's framework buffers.
        """
        stream_bytes = max(64 * 1024, min(meter.bytes_in, 64 * 1024 * 1024))
        total_state = state_bytes + int(self.traits.framework_state_kb * 1024)
        hot_fraction = max(0.0, 1.0 - state_fraction - stream_fraction)
        return DataFootprint(
            stream_bytes=stream_bytes,
            state_bytes=total_state,
            state_fraction=state_fraction,
            hot_bytes=int(self.traits.hot_data_kb * 1024),
            hot_fraction=hot_fraction,
            stream_reuse=2.0,
            state_zipf=kernel.state_zipf,
        )

    def profile(
        self,
        name: str,
        meter: Meter,
        kernel: KernelTraits,
        *,
        state_bytes: int,
        state_fraction: float,
        stream_fraction: float,
        threads: int = 6,
        offcore_write_share: float = 0.3,
    ) -> BehaviorProfile:
        """The behaviour profile of a metered execution on this stack."""
        data = self.data_footprint(
            meter, kernel, state_bytes, state_fraction, stream_fraction
        )
        return build_profile(
            name, meter, self.traits, kernel, data,
            threads=threads, offcore_write_share=offcore_write_share,
        )

    def des_instructions(self, meter: Meter) -> float:
        """Instructions a metered execution charges as cluster CPU time.

        Startup costs are excluded: the paper measures after a 30 s
        ramp-up, past JVM start and task-tracker spin-up.
        """
        return (
            meter.kernel_mix().total + self.traits.framework_instructions(meter)
        ) * self.traits.des_cpu_factor

    def result(
        self,
        name: str,
        output: object,
        meter: Meter,
        kernel: KernelTraits,
        *,
        state_bytes: int,
        state_fraction: float,
        stream_fraction: float,
        threads: int = 6,
        offcore_write_share: float = 0.3,
        segments: Optional[list] = None,
        cluster: Optional[Cluster] = None,
        waves: Optional[Callable[[], Tuple[List[str], list]]] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Profile a metered execution and, given a ``cluster``, replay it.

        ``waves()`` returns the engine's wave names and the
        :class:`~repro.stacks.scheduler.TaskDescriptor` list of each
        wave; it is called only with a cluster, after the replay's start
        time is read.  ``faults`` injects a fault plan into the replay;
        lost tasks are recovered under ``recovery`` (the stack's own
        :func:`~repro.stacks.scheduler.policy_for` policy by default).
        """
        profile = self.profile(
            name, meter, kernel,
            state_bytes=state_bytes, state_fraction=state_fraction,
            stream_fraction=stream_fraction, threads=threads,
            offcore_write_share=offcore_write_share,
        )
        system = None
        elapsed = None
        if cluster is not None:
            start = cluster.sim.now
            wave_names, task_waves = waves()
            system = run_waves(
                cluster, task_waves, self.traits.instruction_rate,
                faults=faults,
                policy=recovery if recovery is not None
                else policy_for(self.traits.name),
                job_name=name, wave_names=wave_names,
            )
            elapsed = cluster.sim.now - start
        return WorkloadResult(
            name=name,
            output=output,
            profile=profile,
            meter=meter,
            system=system,
            elapsed=elapsed,
            segments=segments,
        )
