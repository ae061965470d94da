"""Span records, and the tracer that makes them on the simulated clock.

The paper's methodology is observation: counters, logs and sampled
system metrics turn opaque executions into explainable behaviour.  One
record type, :class:`Span`, carries every observation on either clock:
intervals (``kind="span"``: job → stage → wave → task → attempt, plus
per-node compute and I/O operations), instant marks (fault injections,
failure detections, retries) and counter readings (per-node utilization
samples taken by :class:`repro.obs.metrics.ClusterTelemetry`).  The
simulated-clock :class:`Tracer` builds them in memory; the sweep
executor's span files parse into the same records on the host clock
(:func:`repro.exec.tracing.read_spans`), and one exporter
(:mod:`repro.obs.export`) turns either into a Chrome trace.

Everything is default-off: components look up ``sim.tracer`` and skip
all recording when it is ``None``, so a traced run and an untraced run
execute the identical event schedule and the fault-free bit-identity
guarantee of the scheduler is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Span categories in nesting order (outermost first).  Node-operation
#: categories ("cpu", "io", "disk", "net") hang off attempts.
SPAN_CATEGORIES = (
    "job", "stage", "wave", "task", "attempt", "cpu", "io", "disk", "net",
)


@dataclass
class Span:
    """One trace record: an interval, an instant mark or a counter reading.

    Attributes:
        kind: ``"span"``, ``"instant"`` or ``"counter"``.
        lane: The process the record belongs to (a Chrome process): the
            traced run for simulated records, ``supervisor-<pid>`` /
            ``worker-<pid>-<id>`` for sweep records.
        track: Timeline within the lane (a Chrome thread) — "scheduler"
            for job/stage/wave, a node name for attempts, ``"<node>.cpu"``
            etc. for node operations; sweep records use their lane.
        name: Human-readable label ("map", "task3.attempt1", ...).
        cat: Category (:data:`SPAN_CATEGORIES` on the simulated clock).
        t0: Start time (the only time of an instant or counter).
        t1: End time; None while a span is still open.
        args: Annotations (node, bytes, outcome, ...; a counter's values).
            Simulated spans carry their ``span_id`` and ``parent_id`` here.
        clock: ``"sim"`` (simulated seconds) or ``"host"`` (epoch seconds).
    """

    kind: str
    lane: str
    track: str
    name: str
    cat: str
    t0: float
    t1: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)
    clock: str = "sim"

    @property
    def duration(self) -> float:
        """Interval length in seconds (0 while open, and for marks)."""
        if self.t1 is None:
            return 0.0
        return max(0.0, self.t1 - self.t0)


class Tracer:
    """Records spans, instants and counter samples against a sim clock.

    The clock is bound lazily (:meth:`bind_clock`) because the tracer is
    usually constructed before the :class:`~repro.cluster.events.Simulation`
    it observes.  ``sample_interval`` is the cadence, in simulated
    seconds, at which the scheduler's telemetry sampler takes per-node
    utilization readings; ``None`` disables periodic sampling (wave
    boundaries are always sampled).  ``lane`` names the traced run.
    """

    def __init__(self, sample_interval: Optional[float] = None,
                 lane: str = "repro-sim"):
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.sample_interval = sample_interval
        self.lane = lane
        #: Every record, in the order it was made.
        self.records: List[Span] = []
        self._clock: Optional[Callable[[], float]] = None
        self._next_id = 0

    # ---- clock -----------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source (idempotent)."""
        self._clock = clock

    @property
    def now(self) -> float:
        if self._clock is None:
            return 0.0
        return self._clock()

    def _record(self, kind: str, name: str, cat: str, track: str,
                t0: float, t1: Optional[float], args: dict) -> Span:
        record = Span(kind, self.lane, track, name, cat, t0, t1, args)
        self.records.append(record)
        return record

    # ---- spans -----------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        track: str = "scheduler",
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Open a span at the current simulated time."""
        ids: Dict[str, object] = {"span_id": self._next_id}
        if parent is not None:
            ids["parent_id"] = parent.args["span_id"]
        self._next_id += 1
        return self._record("span", name, category, track, self.now, None,
                            {**ids, **args})

    def end(self, span: Span, **args: object) -> Span:
        """Close ``span`` at the current simulated time."""
        if span.t1 is not None:
            raise SimulationError(
                f"span {span.name!r} already ended",
                span_id=span.args["span_id"],
            )
        span.t1 = self.now
        span.args.update(args)
        return span

    # ---- instants and counters ------------------------------------------
    def instant(
        self, name: str, category: str, track: str = "scheduler", **args: object
    ) -> Span:
        now = self.now
        return self._record("instant", name, category, track, now, now,
                            dict(args))

    def sample(
        self,
        name: str,
        track: str,
        time: Optional[float] = None,
        **values: float,
    ) -> Span:
        when = self.now if time is None else time
        return self._record("counter", name, "telemetry", track, when, when,
                            dict(values))

    # ---- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> List[Span]:
        """Records of one kind, in the order they were made."""
        return [r for r in self.records if r.kind == kind]

    def spans_of(self, *categories: str) -> List[Span]:
        """Spans whose category is one of ``categories``."""
        wanted = set(categories)
        return [s for s in self.of_kind("span") if s.cat in wanted]
