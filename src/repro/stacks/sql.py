"""SQL engines: Hive (on MapReduce), Shark (on Spark), Impala (native MPP).

A :class:`Query` is a small logical plan of relational operators — the
paper's interactive-analysis workloads use exactly the five basic
relational-algebra operators (select/filter, project, order-by, set
difference, join) plus grouping/aggregation for the TPC-DS queries.

All three engines execute the same plans over the same row dicts and
produce identical results; what differs is the *stack model*: Hive and
Shark interpret operators on JVM engines with per-row dispatch and
shuffles for wide operators, Impala scans natively with vectorised
batches — which is why the paper's Impala workloads show thin-stack
micro-architecture behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.stacks.base import (
    HIVE_TRAITS,
    IMPALA_TRAITS,
    SHARK_TRAITS,
    KernelTraits,
    Meter,
    SoftwareStack,
    WorkloadResult,
)
from repro.stacks.scheduler import RecoveryPolicy, TaskDescriptor

Rows = List[dict]


@dataclass(frozen=True)
class Operator:
    """One step of a logical plan."""

    kind: str
    args: tuple = ()

    #: Operators that force a data exchange (shuffle) on MapReduce/RDD
    #: engines.
    WIDE = ("order_by", "group_by", "difference", "join")


@dataclass
class Query:
    """A logical plan: a scan followed by operators.

    Build fluently::

        Query("web_sales").filter(pred).join("item", "ws_item_sk",
        "i_item_sk").group_by(("i_brand",), {"sum_price": (...)})
    """

    table: str
    operators: List[Operator] = field(default_factory=list)

    def filter(self, predicate: Callable[[dict], bool]) -> "Query":
        """SELECT ... WHERE predicate (the 'filter' basic operator)."""
        self.operators.append(Operator("filter", (predicate,)))
        return self

    def project(self, columns: Sequence[str]) -> "Query":
        """Keep only ``columns`` (the 'project' basic operator)."""
        self.operators.append(Operator("project", (tuple(columns),)))
        return self

    def order_by(self, column: str, descending: bool = False) -> "Query":
        """Total order on ``column`` (the 'sort' operator)."""
        self.operators.append(Operator("order_by", (column, descending)))
        return self

    def difference(self, other_table: str, key: str) -> "Query":
        """Rows whose ``key`` does not appear in ``other_table``."""
        self.operators.append(Operator("difference", (other_table, key)))
        return self

    def join(self, right_table: str, left_key: str, right_key: str) -> "Query":
        """Hash equi-join against ``right_table``."""
        self.operators.append(Operator("join", (right_table, left_key, right_key)))
        return self

    def group_by(
        self, keys: Sequence[str], aggregates: Dict[str, tuple]
    ) -> "Query":
        """Group on ``keys``; ``aggregates`` maps output column to
        ``(function_name, input_column)`` with functions sum/count/avg."""
        self.operators.append(Operator("group_by", (tuple(keys), dict(aggregates))))
        return self

    def limit(self, n: int) -> "Query":
        self.operators.append(Operator("limit", (n,)))
        return self


def _row_bytes(row: dict) -> int:
    return sum(
        (len(v) if isinstance(v, str) else 8) + len(k) for k, v in row.items()
    )


class SqlEngine(SoftwareStack):
    """Shared executor; subclasses fix the stack traits and kernel."""

    def execute(
        self,
        name: str,
        query: Query,
        tables: Dict[str, Rows],
        kernel: Optional[KernelTraits] = None,
        state_fraction: float = 0.035,
        cluster: Optional[Cluster] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Run ``query`` against ``tables``; returns rows + profile."""
        if query.table not in tables:
            raise KeyError(f"unknown table {query.table!r}")
        meter = Meter()
        kernel = kernel or KernelTraits(
            code_kb=28.0, ilp=2.3, data_dependent_fraction=0.55,
            loop_fraction=0.35, pattern_fraction=0.10, taken_prob=0.04,
        )

        rows = list(tables[query.table])
        in_bytes = sum(_row_bytes(r) for r in rows)
        meter.record_in(in_bytes, records=len(rows))

        shuffle_events: List[int] = []
        state_bytes = 1536 * 1024
        for op in query.operators:
            rows, op_state = self._apply(op, rows, tables, meter, shuffle_events)
            state_bytes = max(state_bytes, op_state)

        out_bytes = sum(_row_bytes(r) for r in rows)
        meter.record_out(out_bytes, records=len(rows))

        return self.result(
            name, rows, meter, kernel,
            state_bytes=state_bytes,
            state_fraction=state_fraction,
            stream_fraction=0.012,
            cluster=cluster,
            waves=lambda: self._waves(meter, shuffle_events, cluster),
            faults=faults,
            recovery=recovery,
        )

    # ------------------------------------------------------------------
    def _apply(
        self,
        op: Operator,
        rows: Rows,
        tables: Dict[str, Rows],
        meter: Meter,
        shuffle_events: List[int],
    ) -> tuple:
        """Execute one operator; returns (rows, resident_state_bytes)."""
        n = len(rows)
        state_bytes = 0
        if op.kind == "filter":
            predicate = op.args[0]
            meter.ops(compare=n, array_access=n, int_op=n)
            rows = [row for row in rows if predicate(row)]
        elif op.kind == "project":
            columns = op.args[0]
            meter.ops(array_access=n * len(columns), field_store=n * len(columns))
            rows = [{c: row[c] for c in columns} for row in rows]
        elif op.kind == "order_by":
            column, descending = op.args
            if n > 1:
                cost = n * math.log2(n)
                meter.ops(compare=cost, array_access=cost)
            rows = sorted(rows, key=lambda r: r[column], reverse=descending)
            self._shuffle(rows, meter, shuffle_events)
            state_bytes = sum(_row_bytes(r) for r in rows)
        elif op.kind == "difference":
            other_table, key = op.args
            other = tables[other_table]
            meter.ops(hash=len(other) + n, compare=n)
            exclude = {row[key] for row in other}
            rows = [row for row in rows if row[key] not in exclude]
            self._shuffle(rows, meter, shuffle_events)
            state_bytes = 64 * len(exclude)
        elif op.kind == "join":
            right_table, left_key, right_key = op.args
            right = tables[right_table]
            meter.ops(hash=len(right) + n, compare=n, array_access=n)
            index: Dict[object, dict] = {}
            for row in right:
                index[row[right_key]] = row
            joined = []
            for row in rows:
                match = index.get(row[left_key])
                if match is not None:
                    merged = dict(match)
                    merged.update(row)
                    joined.append(merged)
            rows = joined
            self._shuffle(rows, meter, shuffle_events)
            state_bytes = sum(_row_bytes(r) for r in right)
        elif op.kind == "group_by":
            keys, aggregates = op.args
            meter.ops(hash=n, compare=n, int_op=n * max(1, len(aggregates)))
            groups: Dict[tuple, dict] = {}
            counts: Dict[tuple, int] = {}
            for row in rows:
                group_key = tuple(row[k] for k in keys)
                bucket = groups.setdefault(group_key, {})
                counts[group_key] = counts.get(group_key, 0) + 1
                for out_col, (fn, in_col) in aggregates.items():
                    if fn == "count":
                        bucket[out_col] = bucket.get(out_col, 0) + 1
                    elif fn in ("sum", "avg"):
                        bucket[out_col] = bucket.get(out_col, 0.0) + row[in_col]
                        meter.ops(fp_op=1)
                    else:
                        raise ValueError(f"unknown aggregate {fn!r}")
            output = []
            for group_key, bucket in groups.items():
                row = {k: v for k, v in zip(keys, group_key)}
                for out_col, (fn, _in_col) in aggregates.items():
                    value = bucket[out_col]
                    if fn == "avg":
                        value /= counts[group_key]
                    row[out_col] = value
                output.append(row)
            rows = output
            self._shuffle(rows, meter, shuffle_events)
            state_bytes = 128 * len(groups)
        elif op.kind == "limit":
            rows = rows[: op.args[0]]
        else:  # pragma: no cover
            raise ValueError(f"unknown operator {op.kind!r}")
        return rows, state_bytes

    def _shuffle(self, rows: Rows, meter: Meter, shuffle_events: List[int]) -> None:
        """Wide operators exchange data on Hive/Shark; Impala streams
        between plan fragments with far less serialisation."""
        nbytes = sum(_row_bytes(r) for r in rows)
        meter.record_shuffle(nbytes, records=len(rows))
        shuffle_events.append(nbytes)

    def _waves(
        self, meter: Meter, shuffle_events: List[int], cluster: Cluster
    ) -> tuple:
        """A scan wave, then one exchange wave per shuffle."""
        total_instr = self.des_instructions(meter)
        n_waves = 1 + len(shuffle_events)
        # One task per core: the paper deploys with matching scale, so
        # every node runs cores-many workers sharing one disk.
        n_tasks = len(cluster) * cluster.nodes[0].spec.cores
        instr_per_task = total_instr / n_waves / n_tasks
        waves = []
        for wave_index in range(n_waves):
            shuffle = shuffle_events[wave_index - 1] if wave_index > 0 else 0
            waves.append(
                [
                    TaskDescriptor(
                        cpu_instructions=instr_per_task,
                        read_bytes=meter.bytes_in // n_tasks
                        if wave_index == 0
                        else 0,
                        write_bytes=(
                            (shuffle + (meter.bytes_out if wave_index == n_waves - 1 else 0))
                            * (3 if self.traits.shuffle_is_streaming else 1)
                        )
                        // n_tasks,
                        net_bytes=shuffle // n_tasks,
                        random_writes=not self.traits.shuffle_is_streaming,
                        preferred_node=t,
                    )
                    for t in range(n_tasks)
                ]
            )
        wave_names = ["scan"] + [
            f"exchange{i}" for i in range(len(shuffle_events))
        ]
        return wave_names, waves


class HiveEngine(SqlEngine):
    """Hive 0.9: SQL compiled to MapReduce jobs on the JVM."""

    def __init__(self):
        super().__init__(HIVE_TRAITS)


class SharkEngine(SqlEngine):
    """Shark: SQL compiled to Spark RDD operations."""

    def __init__(self):
        super().__init__(SHARK_TRAITS)


class ImpalaEngine(SqlEngine):
    """Impala: a native C++ MPP engine with vectorised scans."""

    def __init__(self):
        super().__init__(IMPALA_TRAITS)
