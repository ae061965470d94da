"""A message-passing runtime (the MPICH2 stand-in).

Rank programs are Python generators that *yield* collective requests
(allreduce, alltoall, gather, broadcast); the runtime advances every
rank to its next collective, combines the contributions, and resumes
the ranks with their results — a bulk-synchronous-parallel execution
that is deadlock-free by construction and exactly fits the paper's six
MPI data-analysis workloads (Bayes, K-means, PageRank, Grep, WordCount,
Sort).

The thin-stack traits (:data:`repro.stacks.base.MPI_TRAITS`) give these
programs their PARSEC-like instruction footprints (§5.5, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultPlan
from repro.errors import SimulationError
from repro.stacks.base import (
    MPI_TRAITS,
    KernelTraits,
    Meter,
    SoftwareStack,
    StackTraits,
    WorkloadResult,
)
from repro.stacks.scheduler import RecoveryPolicy, TaskDescriptor


@dataclass
class _Collective:
    """A pending collective operation request from one rank."""

    op: str  # "allreduce" | "alltoall" | "gather" | "broadcast"
    payload: object
    combine: Optional[Callable] = None


class MpiCommunicator:
    """Per-rank handle used inside rank programs to request collectives."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size

    def allreduce(self, value, combine: Callable) -> _Collective:
        """All ranks contribute ``value``; everyone receives the fold."""
        return _Collective("allreduce", value, combine)

    def alltoall(self, buckets: List[object]) -> _Collective:
        """Rank *i* sends ``buckets[j]`` to rank *j*; receives a list."""
        if len(buckets) != self.size:
            raise ValueError("alltoall needs one bucket per rank")
        return _Collective("alltoall", buckets)

    def gather(self, value) -> _Collective:
        """Everyone receives the list of all ranks' values."""
        return _Collective("gather", value)

    def broadcast(self, value, root: int = 0) -> _Collective:
        """Everyone receives rank ``root``'s value."""
        return _Collective("broadcast", (value, root))


def _payload_bytes(payload: object) -> int:
    if isinstance(payload, (str, bytes)):
        return len(payload)
    if isinstance(payload, dict):
        return sum(
            _payload_bytes(k) + _payload_bytes(v) for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(p) for p in payload)
    return 8


class MpiRuntime(SoftwareStack):
    """Runs rank generators in lockstep supersteps."""

    def __init__(self, n_ranks: int = 6, traits: StackTraits = MPI_TRAITS):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        super().__init__(traits)
        self.n_ranks = n_ranks

    def run(
        self,
        name: str,
        program: Callable,
        partitions: Sequence[Sequence[object]],
        kernel: KernelTraits,
        state_bytes: int = 2 * 1024 * 1024,
        state_fraction: float = 0.03,
        stream_fraction: float = 0.01,
        cluster: Optional[Cluster] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadResult:
        """Execute ``program(rank, comm, data, meter)`` on every rank.

        ``partitions`` supplies each rank's local data (padded with empty
        lists when shorter than the rank count).  Returns per-rank return
        values as the functional output.

        MPI has no task-level fault tolerance: under a ``faults`` plan
        that kills a node, the default ``recovery`` policy aborts the
        whole job with :class:`~repro.stacks.scheduler.JobFailedError` —
        the contrast with Hadoop/Spark the paper's stack comparison
        turns on.
        """
        padded: List[list] = [
            list(partitions[r]) if r < len(partitions) else []
            for r in range(self.n_ranks)
        ]
        meters = [Meter() for _ in range(self.n_ranks)]
        for rank, data in enumerate(padded):
            nbytes = sum(_payload_bytes(r) for r in data)
            meters[rank].record_in(nbytes, records=len(data))

        generators = []
        for rank in range(self.n_ranks):
            comm = MpiCommunicator(rank, self.n_ranks)
            generators.append(program(rank, comm, padded[rank], meters[rank]))

        results: List[object] = [None] * self.n_ranks
        inbox: List[object] = [None] * self.n_ranks
        live = set(range(self.n_ranks))
        supersteps = 0
        net_bytes_total = 0

        while live:
            pending: dict = {}
            for rank in sorted(live):
                try:
                    request = generators[rank].send(inbox[rank])
                except StopIteration as stop:
                    results[rank] = stop.value
                    live.discard(rank)
                    continue
                if not isinstance(request, _Collective):
                    raise TypeError(
                        f"rank {rank} yielded {request!r}; expected a collective"
                    )
                pending[rank] = request
            if not pending:
                break
            ops = {request.op for request in pending.values()}
            if len(ops) != 1 or set(pending) != live:
                raise SimulationError(
                    "collective mismatch: all live ranks must join the same "
                    f"collective (got {sorted(ops)} from {sorted(pending)})"
                )
            op = ops.pop()
            supersteps += 1
            net_bytes_total += self._execute_collective(
                op, pending, inbox, meters
            )

        merged = Meter()
        for rank_meter in meters:
            merged.merge(rank_meter)

        return self.result(
            name, results, merged, kernel,
            state_bytes=state_bytes,
            state_fraction=state_fraction,
            stream_fraction=stream_fraction,
            threads=self.n_ranks,
            cluster=cluster,
            waves=lambda: self._waves(merged, supersteps, net_bytes_total),
            faults=faults,
            recovery=recovery,
        )

    def _execute_collective(
        self,
        op: str,
        pending: dict,
        inbox: List[object],
        meters: List[Meter],
    ) -> int:
        """Perform one collective; returns bytes moved over the network."""
        total_bytes = 0
        for rank, request in pending.items():
            nbytes = _payload_bytes(request.payload)
            total_bytes += nbytes
            meters[rank].record_shuffle(nbytes)
        if op == "allreduce":
            combine = next(iter(pending.values())).combine
            ranks = sorted(pending)
            accumulator = pending[ranks[0]].payload
            for rank in ranks[1:]:
                accumulator = combine(accumulator, pending[rank].payload)
            for rank in ranks:
                inbox[rank] = accumulator
        elif op == "alltoall":
            ranks = sorted(pending)
            for receiver in ranks:
                inbox[receiver] = [
                    pending[sender].payload[receiver] for sender in ranks
                ]
        elif op == "gather":
            ranks = sorted(pending)
            everything = [pending[rank].payload for rank in ranks]
            for rank in ranks:
                inbox[rank] = everything
        elif op == "broadcast":
            ranks = sorted(pending)
            roots = {request.payload[1] for request in pending.values()}
            if len(roots) != 1:
                raise SimulationError(
                    "broadcast root mismatch", roots=sorted(roots)
                )
            root = roots.pop()
            value = pending[root].payload[0]
            for rank in ranks:
                inbox[rank] = value
        else:  # pragma: no cover
            raise ValueError(f"unknown collective {op!r}")
        return total_bytes

    def _waves(self, meter: Meter, supersteps: int, net_bytes: int) -> tuple:
        """One wave of one task per rank for every superstep."""
        total_instr = self.des_instructions(meter)
        n_waves = max(1, supersteps)
        per_rank_instr = total_instr / self.n_ranks / n_waves
        per_rank_net = net_bytes // max(1, self.n_ranks * n_waves)
        read_bytes = meter.bytes_in // self.n_ranks
        waves = []
        for step in range(n_waves):
            waves.append(
                [
                    TaskDescriptor(
                        cpu_instructions=per_rank_instr,
                        read_bytes=read_bytes if step == 0 else 0,
                        write_bytes=meter.bytes_out // self.n_ranks
                        if step == n_waves - 1
                        else 0,
                        net_bytes=per_rank_net,
                        preferred_node=rank,
                    )
                    for rank in range(self.n_ranks)
                ]
            )
        return [f"superstep{i}" for i in range(n_waves)], waves
