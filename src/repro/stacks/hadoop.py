"""A functional MapReduce engine (the Hadoop 1.0.2 stand-in).

Jobs really execute: mappers emit key-value pairs from input records,
an optional combiner folds map outputs, the shuffle hash-partitions and
*sorts* intermediate data (Hadoop always sorts), and reducers fold each
key group.  Alongside the functional run, the engine meters data flow
and schedules equivalent map/reduce task waves onto the discrete-event
cluster for system-behaviour measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.filesystem import DistributedFileSystem
from repro.stacks.base import (
    HADOOP_TRAITS,
    KernelTraits,
    Meter,
    SoftwareStack,
    StackTraits,
    WorkloadResult,
    stable_hash,
)
from repro.stacks.scheduler import RecoveryPolicy, TaskDescriptor

#: (key, value) pair type emitted by mappers and reducers.
Pair = Tuple[object, object]

Mapper = Callable[[object, Callable[[object, object], None], Meter], None]
Reducer = Callable[[object, list, Callable[[object, object], None], Meter], None]


def _pair_bytes(key: object, value: object) -> int:
    """Rough serialised size of a pair (framework byte accounting)."""
    key_len = len(key) if isinstance(key, (str, bytes)) else 8
    value_len = len(value) if isinstance(value, (str, bytes)) else 8
    return key_len + value_len + 8


def _record_bytes(record: object) -> int:
    if isinstance(record, (str, bytes)):
        return len(record)
    if isinstance(record, tuple):
        return sum(_record_bytes(part) for part in record)
    return 8


@dataclass
class MapReduceJob:
    """A MapReduce program plus its kernel behaviour model.

    Attributes:
        name: Job name (becomes the workload ID).
        mapper: ``mapper(record, emit, meter)``.
        reducer: ``reducer(key, values, emit, meter)``; None = identity.
        combiner: Optional map-side reducer.
        kernel: Algorithm-intrinsic traits for profile assembly.
        state_bytes: Resident state estimate (hash tables, buffers); may
            be a callable of the merged meter for data-dependent sizing.
        state_fraction: Fraction of data references into that state.
        n_maps / n_reduces: Task parallelism.
    """

    name: str
    mapper: Mapper
    reducer: Optional[Reducer] = None
    combiner: Optional[Reducer] = None
    kernel: KernelTraits = field(default_factory=KernelTraits)
    state_bytes: object = 4 * 1024 * 1024
    state_fraction: float = 0.03
    stream_fraction: float = 0.01
    n_maps: int = 30
    n_reduces: int = 10
    #: Map-side sort buffer (Hadoop's io.sort.mb).  Map output beyond
    #: this spills to disk in runs that a final merge pass re-reads —
    #: extra disk traffic the §3.2.1 classification sees.
    sort_buffer_bytes: int = 4 * 1024 * 1024

    def resident_bytes(self, meter: Meter) -> int:
        """``state_bytes``, evaluated against ``meter`` when callable."""
        state = self.state_bytes
        return int(state(meter) if callable(state) else state)


class Hadoop(SoftwareStack):
    """The MapReduce engine."""

    def __init__(self, traits: StackTraits = HADOOP_TRAITS):
        super().__init__(traits)

    def run(
        self,
        job: MapReduceJob,
        records: Sequence[object],
        cluster: Optional[Cluster] = None,
        dfs: Optional[DistributedFileSystem] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Execute ``job`` over ``records``.

        Returns the functional output (list of reducer-emitted pairs),
        the behaviour profile, and — when a cluster is supplied — the
        simulated system metrics.  ``faults`` injects an infrastructure
        fault plan into the cluster simulation; lost tasks are
        re-executed under ``recovery`` (Hadoop's JobTracker policy by
        default: retries with backoff plus speculative execution).
        """
        if not records:
            raise ValueError(f"{job.name}: no input records")
        meter = Meter()

        # ---- Map phase ---------------------------------------------------
        splits = self._split(records, job.n_maps)
        map_outputs: List[List[Pair]] = []
        map_task_stats: List[dict] = []
        for split in splits:
            task_meter = Meter()
            emitted: List[Pair] = []

            def emit(key: object, value: object, _sink=emitted) -> None:
                _sink.append((key, value))

            in_bytes = 0
            for record in split:
                nbytes = _record_bytes(record)
                in_bytes += nbytes
                task_meter.record_in(nbytes)
                job.mapper(record, emit, task_meter)

            if job.combiner is not None:
                emitted = self._combine(job.combiner, emitted, task_meter)
            shuffle_bytes = 0
            for key, value in emitted:
                shuffle_bytes += _pair_bytes(key, value)
            task_meter.record_shuffle(shuffle_bytes, records=len(emitted))
            map_outputs.append(emitted)
            map_task_stats.append(
                {"in_bytes": in_bytes, "shuffle_bytes": shuffle_bytes,
                 "meter": task_meter}
            )
            meter.merge(task_meter)

        # ---- Shuffle: hash partition + sort (Hadoop always sorts) --------
        partitions: List[List[Pair]] = [[] for _ in range(job.n_reduces)]
        for output in map_outputs:
            for key, value in output:
                partitions[stable_hash(key) % job.n_reduces].append((key, value))
        for partition in partitions:
            partition.sort(key=lambda pair: repr(pair[0]))
            # Sorting cost: ~n log n compares through the raw comparator.
            n = len(partition)
            if n > 1:
                meter.ops(compare=n * math.log2(n), array_access=n * math.log2(n))

        # ---- Reduce phase -------------------------------------------------
        output: List[Pair] = []
        reduce_task_stats: List[dict] = []
        for partition in partitions:
            task_meter = Meter()
            emitted: List[Pair] = []

            def emit(key: object, value: object, _sink=emitted) -> None:
                _sink.append((key, value))

            grouped = self._group_sorted(partition)
            for key, values in grouped:
                task_meter.ops(compare=len(values), array_access=len(values))
                if job.reducer is not None:
                    job.reducer(key, values, emit, task_meter)
                else:
                    for value in values:
                        emit(key, value)
            out_bytes = sum(_pair_bytes(k, v) for k, v in emitted)
            task_meter.record_out(out_bytes, records=len(emitted))
            output.extend(emitted)
            reduce_task_stats.append({"out_bytes": out_bytes, "meter": task_meter})
            meter.merge(task_meter)

        return self.result(
            job.name, output, meter, job.kernel,
            state_bytes=job.resident_bytes(meter),
            state_fraction=job.state_fraction,
            stream_fraction=job.stream_fraction,
            segments=self._phase_segments(job, map_task_stats, reduce_task_stats),
            cluster=cluster,
            waves=lambda: self._waves(
                job, map_task_stats, reduce_task_stats, dfs
            ),
            faults=faults,
            recovery=recovery,
        )

    def _phase_segments(self, job, map_stats, reduce_stats):
        """One ``(profile, weight)`` sample per phase: ``<job>/map`` and
        ``<job>/reduce``, each weighted by the phase's instruction count
        (kernel + framework).

        The paper samples Map at three points and Reduce at two, each
        point weighted by its share of its phase.  This engine is
        stationary within a phase, so those points share one profile and
        their weighted mean equals this one sample per phase.
        """
        segments = []
        for phase, stats in (("map", map_stats), ("reduce", reduce_stats)):
            phase_meter = Meter()
            for task in stats:
                phase_meter.merge(task["meter"])
            weight = (
                phase_meter.kernel_mix().total
                + self.traits.framework_instructions(phase_meter)
            )
            if weight <= 0:
                continue
            phase_profile = self.profile(
                f"{job.name}/{phase}", phase_meter, job.kernel,
                state_bytes=job.resident_bytes(phase_meter),
                state_fraction=job.state_fraction,
                stream_fraction=job.stream_fraction,
            )
            segments.append((phase_profile, weight))
        return segments

    # ------------------------------------------------------------------
    @staticmethod
    def _split(records: Sequence[object], n_splits: int) -> List[Sequence[object]]:
        n = max(1, min(n_splits, len(records)))
        size = (len(records) + n - 1) // n
        return [records[i * size:(i + 1) * size] for i in range(n) if records[i * size:(i + 1) * size]]

    @staticmethod
    def _group_sorted(pairs: List[Pair]) -> List[Tuple[object, list]]:
        grouped: List[Tuple[object, list]] = []
        current_key: object = object()
        current_values: list = []
        for key, value in pairs:
            if key != current_key:
                if current_values:
                    grouped.append((current_key, current_values))
                current_key = key
                current_values = []
            current_values.append(value)
        if current_values:
            grouped.append((current_key, current_values))
        return grouped

    def _combine(
        self, combiner: Reducer, pairs: List[Pair], meter: Meter
    ) -> List[Pair]:
        by_key: Dict[object, list] = {}
        for key, value in pairs:
            meter.ops(hash=1)
            by_key.setdefault(key, []).append(value)
        combined: List[Pair] = []

        def emit(key: object, value: object) -> None:
            combined.append((key, value))

        for key, values in by_key.items():
            combiner(key, values, emit, meter)
        return combined

    def _waves(
        self,
        job: MapReduceJob,
        map_stats: List[dict],
        reduce_stats: List[dict],
        dfs: Optional[DistributedFileSystem] = None,
    ) -> tuple:
        """The map and reduce task waves of a job.

        With a :class:`DistributedFileSystem`, the input is placed as
        replicated blocks and map tasks are scheduled *data-locally* on
        a replica holder (Hadoop's locality-first scheduling); reduce
        outputs are written back with pipeline replication, which adds
        the corresponding network and remote-disk traffic.
        """
        map_nodes = list(range(len(map_stats)))
        replicate_output = 1
        if dfs is not None:
            total_in = sum(stats["in_bytes"] for stats in map_stats)
            handle = dfs.create(f"/{job.name}/input-{id(map_stats)}", max(1, total_in))
            # One logical split per map task; place each task on its
            # split's primary replica holder.
            map_nodes = [
                handle.blocks[i % handle.n_blocks].replicas[0]
                for i in range(len(map_stats))
            ]
            replicate_output = dfs.replication

        def spill_write_bytes(shuffle_bytes: int) -> int:
            """Map output written to disk, including multi-spill merges.

            Output that fits the sort buffer is written once.  Larger
            output spills in buffer-sized runs and a merge pass rewrites
            everything — i.e. roughly twice the bytes touch disk.
            """
            if shuffle_bytes <= job.sort_buffer_bytes:
                return shuffle_bytes
            return 2 * shuffle_bytes

        map_wave = [
            TaskDescriptor(
                cpu_instructions=self.des_instructions(stats["meter"]),
                read_bytes=stats["in_bytes"],
                write_bytes=spill_write_bytes(stats["shuffle_bytes"]),
                net_bytes=0,
                preferred_node=map_nodes[i],
            )
            for i, stats in enumerate(map_stats)
        ]
        total_shuffle = sum(s["shuffle_bytes"] for s in map_stats)
        per_reduce_shuffle = total_shuffle // max(1, len(reduce_stats))
        reduce_wave = [
            TaskDescriptor(
                cpu_instructions=self.des_instructions(stats["meter"]),
                read_bytes=per_reduce_shuffle,
                write_bytes=stats["out_bytes"] * replicate_output,
                net_bytes=per_reduce_shuffle
                + stats["out_bytes"] * max(0, replicate_output - 1),
                preferred_node=i,
            )
            for i, stats in enumerate(reduce_stats)
        ]
        return ["map", "reduce"], [map_wave, reduce_wave]
