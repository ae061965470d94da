"""Observability for the simulated cluster: spans, telemetry, profiling.

The measurement substrate the source paper had on real hardware —
performance counters, framework logs, sampled system metrics — rebuilt
for the simulator.  Everything is default-off: with no tracer attached
the instrumented code paths record nothing and schedules stay
bit-identical.  The package re-exports only the names its callers
import from it; everything else lives in its submodule.
"""

from repro.obs.dashboard import render_site
from repro.obs.export import (
    render_trace_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.hostprof import (
    HostProfile,
    HotFunction,
    module_of,
    profile_call,
)
from repro.obs.metrics import ClusterTelemetry
from repro.obs.observatory import build_model
from repro.obs.registry import SCHEMA_VERSION, RunRegistry
from repro.obs.report import history
from repro.obs.stream import (
    PROGRESS_SCHEMA_VERSION,
    ProgressStream,
    TerminalRenderer,
    read_progress,
    render_openmetrics,
)
from repro.obs.tracer import Tracer

__all__ = [
    "PROGRESS_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "ClusterTelemetry",
    "HostProfile",
    "HotFunction",
    "ProgressStream",
    "RunRegistry",
    "TerminalRenderer",
    "Tracer",
    "build_model",
    "history",
    "module_of",
    "profile_call",
    "read_progress",
    "render_openmetrics",
    "render_site",
    "render_trace_summary",
    "to_chrome_trace",
    "write_chrome_trace",
]
