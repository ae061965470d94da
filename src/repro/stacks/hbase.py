"""An LSM-tree key-value store (the HBase 0.94.5 stand-in).

Writes land in a sorted in-memory *memstore* that flushes to immutable
sorted *SSTables*; reads consult the memstore, then each SSTable newest
first, skipping files whose Bloom filter rejects the key.  The H-Read
service workload issues Zipf-distributed random gets over the
ProfSearch resumé table through a deep RPC/regionserver dispatch path —
the paper's highest-L1I-MPKI workload (51) and its only low-IPC service
representative.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.stacks.base import (
    HBASE_TRAITS,
    KernelTraits,
    Meter,
    SoftwareStack,
    StackTraits,
    WorkloadResult,
)
from repro.stacks.scheduler import RecoveryPolicy, TaskDescriptor


class _BloomFilter:
    """A compact Bloom filter over integer keys (k=3 hash functions)."""

    def __init__(self, capacity: int, bits_per_key: int = 10):
        self._size = max(64, capacity * bits_per_key)
        self._bits = bytearray((self._size + 7) // 8)

    def _hashes(self, key: int) -> Tuple[int, int, int]:
        h1 = (key * 0x9E3779B1) % self._size
        h2 = (key * 0x85EBCA77 + 0x165667B1) % self._size
        h3 = (h1 + 3 * h2) % self._size
        return h1, h2, h3

    def add(self, key: int) -> None:
        for h in self._hashes(key):
            self._bits[h // 8] |= 1 << (h % 8)

    def may_contain(self, key: int) -> bool:
        return all(
            self._bits[h // 8] & (1 << (h % 8)) for h in self._hashes(key)
        )


class _SsTable:
    """An immutable sorted run of (key, value) pairs with a Bloom filter."""

    def __init__(self, items: List[Tuple[int, object]]):
        self.keys = [k for k, _ in items]
        self.values = [v for _, v in items]
        self.bloom = _BloomFilter(len(items))
        for key in self.keys:
            self.bloom.add(key)

    def get(self, key: int, meter: Meter) -> Optional[object]:
        meter.ops(hash=3, compare=3)  # bloom probes
        if not self.bloom.may_contain(key):
            return None
        index = bisect.bisect_left(self.keys, key)
        meter.ops(
            compare=max(1, int(np.log2(max(2, len(self.keys))))),
            array_access=max(1, int(np.log2(max(2, len(self.keys))))),
        )
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None


#: The get path's kernel: short loops, data-dependent branches.
READ_KERNEL = KernelTraits(
    code_kb=16.0,
    ilp=1.6,
    loop_fraction=0.22,
    pattern_fraction=0.10,
    data_dependent_fraction=0.68,
    taken_prob=0.08,
    loop_trip=10,
    state_zipf=0.75,  # hot rows dominate the request stream
)


class HBase(SoftwareStack):
    """A single region server holding one table."""

    def __init__(
        self,
        traits: StackTraits = HBASE_TRAITS,
        memstore_limit: int = 2048,
    ):
        super().__init__(traits)
        self.memstore_limit = memstore_limit
        self._memstore: Dict[int, object] = {}
        self._sstables: List[_SsTable] = []
        self.value_bytes = 1128  # ProfSearch record size (Table 2)

    # ---- write path -------------------------------------------------------
    def put(self, key: int, value: object, meter: Optional[Meter] = None) -> None:
        """Insert into the memstore, flushing when full."""
        if meter is not None:
            meter.ops(hash=1, field_store=1, alloc=1)
        self._memstore[key] = value
        if len(self._memstore) >= self.memstore_limit:
            self.flush()

    #: Minor compaction triggers when this many SSTables accumulate.
    COMPACTION_THRESHOLD = 6

    def flush(self) -> None:
        """Freeze the memstore into a new SSTable (newest first)."""
        if not self._memstore:
            return
        items = sorted(self._memstore.items())
        self._sstables.insert(0, _SsTable(items))
        self._memstore = {}
        if len(self._sstables) >= self.COMPACTION_THRESHOLD:
            self.compact()

    def compact(self) -> None:
        """Minor compaction: merge the oldest half of the SSTables.

        Newer tables shadow older ones for duplicate keys, exactly as
        the read path resolves them.
        """
        if len(self._sstables) < 2:
            return
        split = len(self._sstables) // 2
        keep, merge = self._sstables[:split], self._sstables[split:]
        merged: Dict[int, object] = {}
        for sstable in reversed(merge):  # oldest first; newer overwrite
            for key, value in zip(sstable.keys, sstable.values):
                merged[key] = value
        self._sstables = keep + [_SsTable(sorted(merged.items()))]

    def load(self, rows: Sequence[Tuple[int, object]]) -> None:
        """Bulk-load a table."""
        for key, value in rows:
            self.put(key, value)
        self.flush()

    # ---- read path ----------------------------------------------------------
    def get(self, key: int, meter: Meter) -> Optional[object]:
        """The LSM read path: memstore, then SSTables newest first."""
        meter.ops(hash=1, compare=1)
        if key in self._memstore:
            return self._memstore[key]
        for sstable in self._sstables:
            value = sstable.get(key, meter)
            if value is not None:
                return value
        return None

    @property
    def n_sstables(self) -> int:
        return len(self._sstables)

    # ---- the H-Read service workload -----------------------------------------
    def run_read_workload(
        self,
        name: str,
        keys: Sequence[int],
        cluster: Optional[Cluster] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Issue ``keys`` as client gets; every request crosses the RPC
        and region-server layers (heavy dispatch per record).

        Under a ``faults`` plan, requests to a dead region server are
        retried after the master reassigns the region (the default
        ``recovery`` is HBase's quick-redetect/retry policy).
        """
        meter = Meter()
        hits = 0
        for key in keys:
            meter.record_in(64)  # the request itself
            value = self.get(int(key), meter)
            if value is not None:
                hits += 1
                meter.record_out(self.value_bytes)
        table_bytes = (
            sum(len(t.keys) for t in self._sstables) + len(self._memstore)
        ) * self.value_bytes
        return self.result(
            name, hits, meter, READ_KERNEL,
            state_bytes=min(max(table_bytes, 6 * 1024 * 1024), 8 * 1024 * 1024),
            state_fraction=0.045,
            stream_fraction=0.004,
            cluster=cluster,
            waves=lambda: self.request_waves(meter, cluster),
            faults=faults,
            recovery=recovery,
        )

    def request_waves(
        self, meter: Meter, cluster: Cluster, writes: bool = False
    ) -> tuple:
        """One wave serving every metered request, one task per core.

        Each request is a small non-sequential disk access (block-cache
        misses dominate for a table this large): a read, or with
        ``writes`` a write of the same size.
        """
        total_instr = self.des_instructions(meter)
        n_tasks = len(cluster) * cluster.nodes[0].spec.cores
        request_bytes = meter.records_in * 8 * 1024 // n_tasks
        wave = [
            TaskDescriptor(
                cpu_instructions=total_instr / n_tasks,
                read_bytes=0 if writes else request_bytes,
                write_bytes=request_bytes if writes else 0,
                net_bytes=meter.bytes_out // n_tasks,
                preferred_node=t,
            )
            for t in range(n_tasks)
        ]
        return ["requests"], [wave]
