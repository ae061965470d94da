"""Observability for the simulated cluster: spans, telemetry, profiling.

The measurement substrate the source paper had on real hardware —
performance counters, framework logs, sampled system metrics — rebuilt
for the simulator.  Everything is default-off: with no tracer attached
the instrumented code paths record nothing and schedules stay
bit-identical.  The package re-exports the names its callers use
most; each is imported from its submodule on first use
(:mod:`repro._lazy`), so importing ``repro.obs`` loads no submodule.
Code inside ``repro`` imports from the submodule itself.
"""

from repro._lazy import lazy_exports

#: re-exported name -> the module that defines it, imported on first use.
_EXPORTS = {
    "SCHEMA_VERSION": "repro.obs.registry",
    "ClusterTelemetry": "repro.obs.metrics",
    "HostProfile": "repro.obs.hostprof",
    "HotFunction": "repro.obs.hostprof",
    "RunRegistry": "repro.obs.registry",
    "TerminalRenderer": "repro.obs.stream",
    "Tracer": "repro.obs.tracer",
    "build_model": "repro.obs.observatory",
    "history": "repro.obs.report",
    "module_of": "repro.obs.hostprof",
    "profile_call": "repro.obs.hostprof",
    "render_openmetrics": "repro.obs.stream",
    "render_site": "repro.obs.dashboard",
    "render_trace_summary": "repro.obs.export",
    "to_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
