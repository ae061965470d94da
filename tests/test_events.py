"""Tests for the discrete-event simulation core."""

import pytest

from repro.cluster.events import Interrupted, Resource, Simulation


class TestTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulation()
        fired = []

        def process():
            yield sim.timeout(5.0)
            fired.append(sim.now)

        sim.process(process())
        sim.run()
        assert fired == [5.0]

    def test_ordering(self):
        sim = Simulation()
        order = []

        def process(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(process(3.0, "c"))
        sim.process(process(1.0, "a"))
        sim.process(process(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_until(self):
        sim = Simulation()

        def process():
            yield sim.timeout(10.0)

        sim.process(process())
        final = sim.run(until=4.0)
        assert final == 4.0


class TestProcesses:
    def test_return_value_becomes_event_value(self):
        sim = Simulation()

        def inner():
            yield sim.timeout(1.0)
            return 42

        results = []

        def outer():
            value = yield sim.process(inner())
            results.append(value)

        sim.process(outer())
        sim.run()
        assert results == [42]

    def test_bad_yield_type(self):
        sim = Simulation()

        def process():
            yield "not an event"

        sim.process(process())
        with pytest.raises(TypeError):
            sim.run()

    def test_all_of(self):
        sim = Simulation()
        done = []

        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def coordinator():
            gate = sim.all_of([
                sim.process(worker(2.0)),
                sim.process(worker(5.0)),
            ])
            values = yield gate
            done.append((sim.now, values))

        sim.process(coordinator())
        sim.run()
        assert done == [(5.0, [2.0, 5.0])]


class TestResource:
    def test_contention_serialises(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        finish = []

        def worker(tag):
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(2.0)
            finally:
                resource.release()
            finish.append((tag, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert finish == [("a", 2.0), ("b", 4.0)]

    def test_capacity_parallelism(self):
        sim = Simulation()
        resource = Resource(sim, capacity=2)
        finish = []

        def worker():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(3.0)
            finally:
                resource.release()
            finish.append(sim.now)

        for _ in range(2):
            sim.process(worker())
        sim.run()
        assert finish == [3.0, 3.0]

    def test_utilization_accounting(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)

        def worker():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(4.0)
            finally:
                resource.release()
            yield sim.timeout(4.0)  # idle tail

        sim.process(worker())
        sim.run()
        # Busy for 4 of the 8 simulated seconds.
        assert sim.now == pytest.approx(8.0)
        assert resource.busy_time() == pytest.approx(4.0)

    def test_release_without_request(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_waiters_are_granted_in_request_order(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        granted = []

        def worker(tag):
            grant = resource.request()
            yield grant
            granted.append((tag, sim.now))
            try:
                yield sim.timeout(2.0)
            finally:
                resource.release()

        for tag in "abc":
            sim.process(worker(tag))
        sim.run(until=1.0)
        assert resource.waiters == 2
        sim.run()
        assert granted == [("a", 0.0), ("b", 2.0), ("c", 4.0)]
        assert resource.waiters == 0
        assert resource.in_use == 0


class TestInterrupt:
    def test_interrupt_mid_timeout(self):
        sim = Simulation()
        seen = []

        def worker():
            try:
                yield sim.timeout(10.0)
                seen.append("finished")
            except Interrupted as exc:
                seen.append(exc.cause)
                raise

        process = sim.process(worker())
        sim.run(until=3.0)
        assert process.interrupt("node died") is True
        assert process.interrupted
        assert process.interrupt_cause == "node died"
        assert isinstance(process.value, Interrupted)
        assert seen == ["node died"]

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulation()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(worker())
        sim.run()
        assert process.interrupt("too late") is False
        assert not process.interrupted
        assert process.value == "done"

    def test_double_interrupt_same_process(self):
        # The first interrupt kills the process; the second must be a
        # clean no-op (report False, preserve the original cause) — the
        # fault injector and a losing speculation race can both try to
        # kill the same attempt at one simulated instant.
        sim = Simulation()
        unwound = []

        def worker():
            try:
                yield sim.timeout(10.0)
            finally:
                unwound.append(sim.now)

        process = sim.process(worker())
        sim.run(until=2.0)
        assert process.interrupt("first cause") is True
        assert process.interrupt("second cause") is False
        assert process.interrupt_cause == "first cause"
        assert unwound == [2.0]  # finally ran exactly once

    def test_double_interrupt_does_not_double_release_resource(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)

        def holder():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(100.0)
            finally:
                resource.release()

        process = sim.process(holder())
        sim.run(until=1.0)
        process.interrupt("crash")
        # A second kill must not re-run the finally: in_use would go
        # negative (caught as SimulationError by release()).
        process.interrupt("crash again")
        sim.run()
        assert resource.in_use == 0

    def test_stale_event_does_not_resume_interrupted_process(self):
        # The abandoned timeout still fires later; the dead process must
        # not be stepped again.
        sim = Simulation()
        resumed = []

        def worker():
            yield sim.timeout(10.0)
            resumed.append(sim.now)

        process = sim.process(worker())
        sim.run(until=1.0)
        process.interrupt()
        sim.run()
        assert resumed == []
        assert sim.now == 10.0  # the stale timeout drained harmlessly

    def test_interrupt_releases_held_resource(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        finish = []

        def holder():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(100.0)
            finally:
                resource.release()

        def waiter():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(1.0)
            finally:
                resource.release()
            finish.append(sim.now)

        holding = sim.process(holder())
        sim.process(waiter())
        sim.run(until=5.0)
        holding.interrupt("killed")
        sim.run()
        # The waiter got the freed unit at t=5 and ran for 1s.
        assert finish == [6.0]
        assert resource.in_use == 0

    def test_interrupt_cascades_into_child_process(self):
        sim = Simulation()
        outcomes = []

        def child():
            try:
                yield sim.timeout(50.0)
                outcomes.append("child finished")
            except Interrupted:
                outcomes.append("child interrupted")
                raise

        def parent():
            yield sim.process(child())
            outcomes.append("parent finished")

        parent_proc = sim.process(parent())
        sim.run(until=2.0)
        parent_proc.interrupt("crash")
        sim.run()
        assert outcomes == ["child interrupted"]

    def test_catching_interrupt_keeps_process_alive(self):
        sim = Simulation()
        log = []

        def worker():
            try:
                yield sim.timeout(100.0)
            except Interrupted:
                log.append("caught")
            yield sim.timeout(2.0)
            log.append(sim.now)

        process = sim.process(worker())
        sim.run(until=1.0)
        process.interrupt()
        sim.run()
        assert not process.interrupted  # it survived
        assert log == ["caught", 3.0]


class TestResourceCancel:
    def test_cancel_queued_request_removes_waiter(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)

        def holder():
            grant = resource.request()
            yield grant
            try:
                yield sim.timeout(10.0)
            finally:
                resource.release()

        cancelled = {}

        def canceller():
            grant = resource.request()
            cancelled["grant"] = grant
            try:
                yield grant
            except Interrupted:
                resource.cancel(grant)
                raise

        sim.process(holder())
        process = sim.process(canceller())
        sim.run(until=2.0)
        assert resource.waiters == 1
        process.interrupt()
        # No phantom waiter: the cancel empties the queue at 2 s, and
        # the holder's release at 10 s grants nobody.
        assert resource.waiters == 0
        sim.run()
        assert not cancelled["grant"].triggered
        assert resource.in_use == 0

    def test_cancel_granted_request_releases(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)

        def worker():
            grant = resource.request()
            yield grant
            resource.cancel(grant)  # already granted: acts as release

        sim.process(worker())
        sim.run()
        assert resource.in_use == 0

    def test_cancel_granted_slot_promotes_waiter(self):
        # Cancelling an already-granted request must hand the slot to
        # the next FIFO waiter, exactly like a release would — a task
        # killed at the instant its grant fired must not strand the
        # queue behind a phantom holder.
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        served = []

        def canceller():
            grant = resource.request()
            yield grant
            yield sim.timeout(1.0)
            resource.cancel(grant)

        def waiter():
            grant = resource.request()
            yield grant
            served.append(sim.now)
            resource.release()

        sim.process(canceller())
        sim.process(waiter())
        sim.run()
        assert served == [1.0]
        assert resource.in_use == 0
        assert resource.waiters == 0


class TestRunUntilEvent:
    def test_stops_at_gate_with_later_events_pending(self):
        sim = Simulation()

        def fast():
            yield sim.timeout(2.0)

        def slow_monitor():
            yield sim.timeout(500.0)

        gate = sim.all_of([sim.process(fast())])
        sim.process(slow_monitor())
        sim.run(until_event=gate)
        assert gate.triggered
        assert sim.now == 2.0  # the stale monitor did not inflate time

    def test_already_triggered_gate_returns_immediately(self):
        sim = Simulation()

        def fast():
            yield sim.timeout(1.0)

        gate = sim.all_of([sim.process(fast())])
        sim.run(until_event=gate)
        at = sim.now
        assert sim.run(until_event=gate) == at
