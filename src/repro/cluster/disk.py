"""Disk model with weighted-I/O-time accounting.

The paper's §3.2.1 classifies workloads using, among others, the
*average weighted disk I/O time ratio*: "the number of I/O in progress
times the number of milliseconds spent doing I/O since the last update"
divided by running time (the Linux ``/proc/diskstats`` field 11
semantics).  This model reproduces that accounting: every in-flight
request accumulates queue-weighted time.
"""

from __future__ import annotations

from repro.cluster.events import Event, Interrupted, Resource, Simulation


class Disk:
    """A single spindle with limited bandwidth and seek latency.

    Requests are serialised through a channel resource (one transfer at a
    time, as on the paper's SATA disks); transfer time is
    ``bytes / bandwidth + seek``.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "disk",
        bandwidth_mbps: float = 120.0,
        seek_ms: float = 4.0,
    ):
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if seek_ms < 0:
            raise ValueError("seek time must be non-negative")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_mbps * 1e6
        self.seek_s = seek_ms / 1e3
        self._channel = Resource(sim, capacity=1, name=f"{name}-channel")
        self.bytes_read = 0
        self.bytes_written = 0
        # Integral of (requests in flight) over time — the numerator of
        # the weighted I/O time metric.
        self._inflight = 0
        self._weighted_io_time = 0.0
        self._last_change = sim.now

    def _account(self) -> None:
        elapsed = self.sim.now - self._last_change
        self._weighted_io_time += elapsed * self._inflight
        self._last_change = self.sim.now

    def _transfer_time(self, nbytes: int, sequential: bool) -> float:
        seek = 0.0 if sequential else self.seek_s
        return seek + nbytes / self.bandwidth_bps

    def _partial_credit(self, nbytes: int, elapsed: float, duration: float) -> int:
        """Bytes that crossed the channel in ``elapsed`` of ``duration``.

        Separated out so the credit rule is auditable (and mutable by
        the chaos suite's deliberate-bug tests): an interrupted transfer
        may never be credited more than time-proportional progress.
        """
        if duration <= 0:
            return 0
        return int(nbytes * elapsed / duration)

    def _io(self, nbytes: int, is_write: bool, sequential: bool):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._account()
        self._inflight += 1
        grant = self._channel.request()
        try:
            yield grant
        except Interrupted:
            # Killed while queued for the channel: withdraw the request.
            self._channel.cancel(grant)
            self._account()
            self._inflight -= 1
            raise
        duration = self._transfer_time(nbytes, sequential)
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "write" if is_write else "read",
                "disk",
                track=self.name,
                bytes=nbytes,
                sequential=sequential,
            )
        started = self.sim.now
        done = 0
        try:
            yield self.sim.timeout(duration)
            done = nbytes
        except Interrupted:
            # Transfer cut short (node crash): credit the bytes that
            # actually crossed the channel before the kill.
            elapsed = self.sim.now - started
            done = self._partial_credit(nbytes, elapsed, duration)
            auditor = self.sim.auditor
            if auditor is not None:
                auditor.observe_disk_interrupt(
                    self.name, nbytes, done, elapsed, duration
                )
            raise
        finally:
            self._channel.release()
            self._account()
            self._inflight -= 1
            if is_write:
                self.bytes_written += done
            else:
                self.bytes_read += done
            if span is not None:
                tracer.end(span, transferred=done)

    def read(self, nbytes: int, sequential: bool = True) -> Event:
        """Process event for reading ``nbytes`` from this disk."""
        return self.sim.process(self._io(nbytes, is_write=False, sequential=sequential))

    def write(self, nbytes: int, sequential: bool = True) -> Event:
        """Process event for writing ``nbytes`` to this disk."""
        return self.sim.process(self._io(nbytes, is_write=True, sequential=sequential))

    def weighted_io_time(self) -> float:
        """Queue-weighted I/O seconds so far (diskstats field-11 analogue)."""
        self._account()
        return self._weighted_io_time

    def peek_weighted_io_time(self) -> float:
        """:meth:`weighted_io_time` without flushing the lazy integral
        (non-mutating; safe for mid-run telemetry samples)."""
        elapsed = self.sim.now - self._last_change
        return self._weighted_io_time + elapsed * self._inflight

    def busy_time(self) -> float:
        """Seconds the disk channel spent transferring."""
        return self._channel.busy_time()

    def peek_busy_time(self) -> float:
        """:meth:`busy_time` without flushing the channel's integral."""
        return self._channel.peek_busy_time()

    @property
    def inflight(self) -> int:
        """Requests currently in progress (queued or transferring)."""
        return self._inflight

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written
