"""A functional RDD engine (the Spark 1.0.2 stand-in).

RDDs carry lazy lineage; actions trigger evaluation.  Narrow
transformations (map/flatMap/filter) fuse into one pass per stage; wide
ones (reduceByKey, groupByKey, sortBy) introduce a shuffle boundary and
start a new stage, exactly as Spark's DAG scheduler splits stages.
Caching keeps a materialised partition list in memory, so re-used
lineage is not recomputed (and costs no re-read) — the in-memory
advantage the paper contrasts with Hadoop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.stacks.base import (
    SPARK_TRAITS,
    KernelTraits,
    Meter,
    SoftwareStack,
    StackTraits,
    WorkloadResult,
    stable_hash,
)
from repro.stacks.scheduler import RecoveryPolicy, TaskDescriptor


def _value_bytes(value: object) -> int:
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, tuple):
        return sum(_value_bytes(part) for part in value)
    if isinstance(value, list):
        return sum(_value_bytes(part) for part in value)
    return 8


@dataclass
class _Op:
    """One lineage step."""

    kind: str  # "map" | "flat_map" | "filter" | "reduce_by_key" | ...
    fn: Optional[Callable] = None
    meter_fn: Optional[Callable] = None


class Rdd:
    """A lazy, partitioned dataset with lineage."""

    def __init__(
        self,
        spark: "Spark",
        partitions: Optional[List[list]] = None,
        lineage: Optional[List[_Op]] = None,
        parent: Optional["Rdd"] = None,
    ):
        self.spark = spark
        self._partitions = partitions
        self._lineage: List[_Op] = lineage or []
        self._parent = parent
        self._cached: Optional[List[list]] = None
        self.cache_requested = False

    # ---- transformations (lazy) ------------------------------------------
    def _derive(self, op: _Op) -> "Rdd":
        return Rdd(self.spark, lineage=self._lineage + [op], parent=self._parent or self)

    def map(self, fn: Callable, meter_fn: Optional[Callable] = None) -> "Rdd":
        """Element-wise transform; ``meter_fn(element, meter)`` accounts
        the kernel work per element batch."""
        return self._derive(_Op("map", fn, meter_fn))

    def flat_map(self, fn: Callable, meter_fn: Optional[Callable] = None) -> "Rdd":
        return self._derive(_Op("flat_map", fn, meter_fn))

    def filter(self, fn: Callable, meter_fn: Optional[Callable] = None) -> "Rdd":
        return self._derive(_Op("filter", fn, meter_fn))

    def reduce_by_key(self, fn: Callable) -> "Rdd":
        """Wide transformation: hash-shuffle then per-key fold."""
        return self._derive(_Op("reduce_by_key", fn))

    def group_by_key(self) -> "Rdd":
        return self._derive(_Op("group_by_key"))

    def sort_by(self, key_fn: Callable) -> "Rdd":
        return self._derive(_Op("sort_by", key_fn))

    def cache(self) -> "Rdd":
        """Request materialisation on first evaluation."""
        self.cache_requested = True
        return self

    # ---- actions (eager) ---------------------------------------------------
    def collect(self) -> list:
        partitions = self.spark._evaluate(self)
        return [element for partition in partitions for element in partition]

    def count(self) -> int:
        partitions = self.spark._evaluate(self)
        total = 0
        for partition in partitions:
            self.spark._meter.ops(int_op=len(partition), compare=len(partition))
            total += len(partition)
        return total

    def reduce(self, fn: Callable):
        elements = self.collect()
        if not elements:
            raise ValueError("reduce of empty RDD")
        self.spark._meter.ops(int_op=len(elements))
        accumulator = elements[0]
        for element in elements[1:]:
            accumulator = fn(accumulator, element)
        return accumulator


class Spark(SoftwareStack):
    """The RDD engine: holds the driver-side meter and task statistics."""

    def __init__(self, traits: StackTraits = SPARK_TRAITS, n_partitions: int = 30):
        super().__init__(traits)
        self.n_partitions = n_partitions
        self._meter = Meter()
        self._stage_stats: List[dict] = []

    # ---- construction ---------------------------------------------------
    def parallelize(self, records: Sequence[object]) -> Rdd:
        """Create a source RDD of ``records`` split into partitions."""
        if not records:
            raise ValueError("cannot parallelize an empty collection")
        n = max(1, min(self.n_partitions, len(records)))
        size = (len(records) + n - 1) // n
        partitions = [
            list(records[i * size:(i + 1) * size])
            for i in range(n)
            if records[i * size:(i + 1) * size]
        ]
        for partition in partitions:
            nbytes = sum(_value_bytes(r) for r in partition)
            self._meter.record_in(nbytes, records=len(partition))
        return Rdd(self, partitions=partitions)

    # ---- evaluation -------------------------------------------------------
    def _evaluate(self, rdd: Rdd) -> List[list]:
        source = rdd._parent if rdd._parent is not None else rdd
        if source._cached is not None:
            partitions = [list(p) for p in source._cached]
        else:
            partitions = [list(p) for p in (source._partitions or [])]
            if source.cache_requested:
                source._cached = [list(p) for p in partitions]

        for op in rdd._lineage:
            if op.kind in ("map", "flat_map", "filter"):
                partitions = self._narrow(op, partitions)
            elif op.kind in ("reduce_by_key", "group_by_key", "sort_by"):
                partitions = self._wide(op, partitions)
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op.kind!r}")
        return partitions

    def _narrow(self, op: _Op, partitions: List[list]) -> List[list]:
        out: List[list] = []
        for partition in partitions:
            result: list = []
            for element in partition:
                if op.meter_fn is not None:
                    op.meter_fn(element, self._meter)
                else:
                    self._meter.ops(compare=1, array_access=1)
                if op.kind == "map":
                    result.append(op.fn(element))
                elif op.kind == "flat_map":
                    result.extend(op.fn(element))
                else:  # filter
                    if op.fn(element):
                        result.append(element)
            out.append(result)
        self._stage_stats.append(
            {"kind": "narrow", "shuffle_bytes": 0, "n_tasks": len(partitions)}
        )
        return out

    def _wide(self, op: _Op, partitions: List[list]) -> List[list]:
        # Shuffle: hash (or range) partition all elements.
        n_out = max(1, len(partitions))
        shuffle_bytes = 0
        buckets: List[list] = [[] for _ in range(n_out)]
        all_elements = [e for p in partitions for e in p]
        n_elements = len(all_elements)
        if op.kind == "sort_by":
            all_elements.sort(key=op.fn)
            if n_elements > 1:
                cost = n_elements * math.log2(n_elements)
                self._meter.ops(compare=cost, array_access=cost)
            size = (n_elements + n_out - 1) // n_out
            buckets = [
                all_elements[i * size:(i + 1) * size] for i in range(n_out)
            ]
        else:
            for element in all_elements:
                key = element[0]
                self._meter.ops(hash=1)
                buckets[stable_hash(key) % n_out].append(element)
        for element in all_elements:
            shuffle_bytes += _value_bytes(element)
        self._meter.record_shuffle(shuffle_bytes, records=n_elements)

        out: List[list] = []
        for bucket in buckets:
            if op.kind == "reduce_by_key":
                folded: dict = {}
                for key, value in bucket:
                    self._meter.ops(hash=1, compare=1, int_op=1)
                    if key in folded:
                        folded[key] = op.fn(folded[key], value)
                    else:
                        folded[key] = value
                out.append(list(folded.items()))
            elif op.kind == "group_by_key":
                grouped: dict = {}
                for key, value in bucket:
                    self._meter.ops(hash=1, compare=1)
                    grouped.setdefault(key, []).append(value)
                out.append(list(grouped.items()))
            else:  # sort_by buckets are already the output
                out.append(bucket)
        self._stage_stats.append(
            {"kind": "wide", "shuffle_bytes": shuffle_bytes, "n_tasks": n_out}
        )
        return out

    # ---- workload finalisation ---------------------------------------------
    def finish(
        self,
        name: str,
        output: object,
        kernel: KernelTraits,
        state_bytes: int = 8 * 1024 * 1024,
        state_fraction: float = 0.035,
        stream_fraction: float = 0.008,
        output_bytes: Optional[int] = None,
        cluster: Optional[Cluster] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Assemble the WorkloadResult after the driver program ran.

        ``faults`` injects an infrastructure fault plan into the
        cluster replay; lost tasks are recomputed from lineage under
        ``recovery`` (Spark's task-retry policy by default).
        """
        meter = self._meter
        if output_bytes is None:
            output_bytes = _value_bytes(output) if output is not None else 0
        if meter.records_out == 0 and output_bytes:
            meter.record_out(
                output_bytes,
                records=len(output) if isinstance(output, list) else 1,
            )
        return self.result(
            name, output, meter, kernel,
            state_bytes=state_bytes,
            state_fraction=state_fraction,
            stream_fraction=stream_fraction,
            cluster=cluster,
            waves=self._waves,
            faults=faults,
            recovery=recovery,
        )

    def _waves(self) -> tuple:
        """The job's stages as task waves.

        Spark reads input once from the DFS, keeps intermediate data in
        memory, and spills only shuffle data — hence lower disk traffic
        than Hadoop for the same job.
        """
        meter = self._meter
        total_instr = self.des_instructions(meter)
        stage_stats = self._stage_stats or [
            {"kind": "narrow", "shuffle_bytes": meter.bytes_shuffled,
             "n_tasks": self.n_partitions}
        ]
        waves = []
        n_stages = len(stage_stats)
        instr_per_stage = total_instr / n_stages
        for i, stage in enumerate(stage_stats):
            n_tasks = max(1, stage["n_tasks"])
            read_bytes = meter.bytes_in if i == 0 else 0
            shuffle = stage["shuffle_bytes"]
            wave = [
                TaskDescriptor(
                    cpu_instructions=instr_per_stage / n_tasks,
                    read_bytes=read_bytes // n_tasks,
                    write_bytes=shuffle // n_tasks,
                    net_bytes=shuffle // n_tasks,
                    # Spark 1.x writes one file per map x reduce pair;
                    # seeks only matter once those files are material.
                    random_writes=(shuffle // n_tasks) > 8 * 1024,
                    preferred_node=t,
                )
                for t in range(n_tasks)
            ]
            waves.append(wave)
        stage_names = [
            f"stage{i} ({stage['kind']})"
            for i, stage in enumerate(stage_stats)
        ]
        return stage_names, waves
