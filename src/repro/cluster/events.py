"""A compact discrete-event simulation core.

Processes are Python generators that yield :class:`Event` objects; the
:class:`Simulation` advances virtual time and resumes processes when the
events they wait on trigger.  :class:`Resource` provides FIFO contention
(cores, disk channels, network links).

The design follows the familiar SimPy shape but is self-contained —
the paper's testbed is replaced by models built on this core, and
depending on nothing external keeps the substrate auditable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Generator, List, Optional

from repro.errors import SimulationError


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` describes why the process was killed (a node crash, a
    speculative duplicate winning the race, ...).  Processes that hold
    resources should release them in ``try/finally`` blocks — the
    interrupt unwinds through them like any exception.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """Something that will happen at a simulated time.

    Processes wait on events by yielding them; callbacks fire when the
    event triggers.  An event carries an optional ``value``.
    """

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.triggered = False
        self.value = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def trigger(self, value=None) -> None:
        """Fire the event immediately (at the current simulation time)."""
        if self.triggered:
            raise SimulationError(
                "event already triggered",
                time=self.sim.now,
                event=type(self).__name__,
            )
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    def __init__(self, sim: "Simulation", delay: float, value=None):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        super().__init__(sim)
        sim._schedule(delay, self, value)


class Process(Event):
    """A running coroutine; itself an event that triggers on completion.

    The generator yields :class:`Event` objects; the process resumes when
    each yielded event triggers, receiving the event's value.  The
    process's own value is the generator's return value.
    """

    def __init__(self, sim: "Simulation", generator: Generator):
        super().__init__(sim)
        self._generator = generator
        self.interrupted = False
        self.interrupt_cause = None
        self._target: Optional[Event] = None
        self._wait_token: Optional[object] = None
        # Kick off on the next simulation step.
        sim._schedule(0.0, _Resume(self, None), None)

    def _step(self, send_value, throw: Optional[BaseException] = None) -> None:
        if self.triggered:
            return
        self._target = None
        self._wait_token = None
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupted as exc:
            # The interrupt unwound the generator; the process completes
            # with the exception as its value so waiters (all_of gates,
            # supervising processes) still drain.
            self.interrupted = True
            self.interrupt_cause = exc.cause
            self.trigger(exc)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {target!r}; processes must yield Events"
            )
        self._target = target
        token = self._wait_token = object()

        def resume(event: Event, _token=token) -> None:
            # Stale wakeup from an event this process abandoned when it
            # was interrupted (or re-yielded after catching Interrupted).
            if self._wait_token is _token:
                self._step(event.value)

        target.add_callback(resume)

    def interrupt(self, cause=None) -> bool:
        """Kill the process mid-yield by throwing :class:`Interrupted`.

        The exception unwinds the generator (running its ``finally``
        blocks, so held resources are released) and, if it propagates
        out, cascades into any child :class:`Process` this one was
        waiting on — an in-flight compute or disk transfer dies with the
        task that issued it.  Returns False if the process had already
        finished.
        """
        if self.triggered:
            return False
        target = self._target
        self._step(None, throw=Interrupted(cause))
        if self.interrupted and isinstance(target, Process):
            target.interrupt(cause)
        return True


class _Resume:
    """Internal bootstrap token for starting a process."""

    def __init__(self, process: Process, value):
        self.process = process
        self.value = value


class Simulation:
    """The event loop: a time-ordered queue of pending events.

    ``tracer`` is an optional :class:`repro.obs.tracer.Tracer`; every
    instrumented component reaches it through its ``sim`` reference and
    skips all recording when it is ``None``, keeping untraced runs on
    the exact pre-observability event schedule.

    ``auditor`` is an optional :class:`repro.chaos.audit.InvariantAuditor`
    reached the same way: processes and resources register themselves
    with it and the run loop reports every event timestamp, so the
    auditor can check for stranded processes, leaked grants and a
    non-monotonic clock.  With no auditor the hooks cost one ``None``
    test each and the event schedule is untouched.
    """

    def __init__(self, tracer=None, auditor=None):
        self.now = 0.0
        self._queue: list = []
        self._sequence = 0
        self.tracer = tracer
        self.auditor = auditor
        if tracer is not None:
            tracer.bind_clock(lambda: self.now)

    def _schedule(self, delay: float, item, value) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, item, value))

    def timeout(self, delay: float, value=None) -> Timeout:
        """An event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register a generator as a running process."""
        process = Process(self, generator)
        if self.auditor is not None:
            self.auditor.register_process(process)
        return process

    def run(
        self,
        until: Optional[float] = None,
        until_event: Optional[Event] = None,
    ) -> float:
        """Run until the queue drains (or simulated time passes ``until``,
        or ``until_event`` triggers).

        ``until_event`` lets a caller stop at a completion gate without
        draining stale bookkeeping events (heartbeat monitors, pending
        fault injections) scheduled beyond it.  Returns the final
        simulation time.
        """
        if until_event is not None and until_event.triggered:
            return self.now
        while self._queue:
            time, _, item, value = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            if self.auditor is not None:
                self.auditor.observe_time(time)
            self.now = time
            if isinstance(item, _Resume):
                item.process._step(item.value)
            elif isinstance(item, Event):
                item.trigger(value)
            else:  # pragma: no cover - queue only holds the above
                raise TypeError(f"unexpected queue item {item!r}")
            if until_event is not None and until_event.triggered:
                return self.now
        return self.now

    def all_of(self, events: List[Event]) -> Event:
        """An event that triggers once every event in ``events`` has."""
        gate = Event(self)
        if not events:
            self._schedule(0.0, gate, None)
            return gate
        remaining = [len(events)]

        def on_done(_event: Event) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                gate.trigger([e.value for e in events])

        for event in events:
            event.add_callback(on_done)
        return gate


class Resource:
    """A capacity-limited resource with a FIFO wait queue.

    Usage inside a process::

        grant = resource.request()
        yield grant
        try:
            yield sim.timeout(holding_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[Event] = deque()
        # Accounting for utilization metrics.
        self._busy_integral = 0.0
        self._last_change = sim.now
        if sim.auditor is not None:
            sim.auditor.register_resource(self)

    def _account(self) -> None:
        elapsed = self.sim.now - self._last_change
        self._busy_integral += elapsed * self.in_use
        self._last_change = self.sim.now

    def request(self) -> Event:
        """An event that triggers when one capacity unit is granted."""
        self._account()
        grant = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            self.sim._schedule(0.0, grant, None)
        else:
            self._waiting.append(grant)
        return grant

    @property
    def waiters(self) -> int:
        """Requests queued behind the in-use capacity units."""
        return len(self._waiting)

    def release(self) -> None:
        """Return one capacity unit, waking the next waiter if any."""
        self._account()
        if self.in_use <= 0:
            raise SimulationError(
                f"{self.name}: release without request",
                time=self.sim.now,
                in_use=self.in_use,
                waiters=len(self._waiting),
            )
        if self._waiting:
            grant = self._waiting.popleft()
            self.sim._schedule(0.0, grant, None)
        else:
            self.in_use -= 1

    def cancel(self, grant: Event) -> None:
        """Withdraw a request made with :meth:`request`.

        A still-queued waiter is removed from the FIFO (so an
        interrupted task does not leave a phantom waiter that a later
        release would grant); a request that was already granted is
        treated as a release.
        """
        self._account()
        try:
            self._waiting.remove(grant)
            return
        except ValueError:
            pass
        self.release()

    def busy_time(self) -> float:
        """Capacity-unit-seconds of busy time so far."""
        self._account()
        return self._busy_integral

    def peek_busy_time(self) -> float:
        """:meth:`busy_time` without flushing the lazy integral.

        Telemetry samples use this so that observing the resource
        mid-run never changes the float-accumulation order of the
        integral (reads stay bit-identical to an unobserved run).
        """
        elapsed = self.sim.now - self._last_change
        return self._busy_integral + elapsed * self.in_use
