"""Trace-driven micro-architecture simulation substrate.

This package stands in for the hardware performance counters (Intel PMU +
Perf) and the MARSSx86 simulator used by the paper.  Workload behaviour
models (instruction mix, code footprint, data working sets, branch
behaviour) are turned into synthetic instruction/address/branch streams,
and set-associative cache, TLB and branch-predictor simulators *measure*
miss rates from those streams the same way a PMU would.

Public entry points:

- :class:`repro.uarch.platforms.Platform` — machine configs (Xeon E5645,
  Atom D510 per Tables 3 and 4 of the paper).
- :func:`repro.uarch.counters.characterize` — run a
  :class:`repro.uarch.profile.BehaviorProfile` on a platform and obtain a
  :class:`repro.uarch.counters.PerfCounters` sample.
- :class:`repro.uarch.simulator.CacheSweepSimulator` — the MARSSx86-like
  miss-ratio-versus-capacity sweep used for Figures 6-9.

Each name below is imported from its submodule on first use
(:mod:`repro._lazy`), so importing one submodule loads only what that
submodule needs.
"""

from repro._lazy import lazy_exports

#: re-exported name -> the module that defines it, imported on first use.
_EXPORTS = {
    "InstructionClass": "repro.uarch.isa",
    "InstructionMix": "repro.uarch.isa",
    "IntBreakdown": "repro.uarch.isa",
    "BehaviorProfile": "repro.uarch.profile",
    "BranchProfile": "repro.uarch.profile",
    "CodeFootprint": "repro.uarch.profile",
    "CodeRegion": "repro.uarch.profile",
    "DataFootprint": "repro.uarch.profile",
    "Platform": "repro.uarch.platforms",
    "XEON_E5645": "repro.uarch.platforms",
    "ATOM_D510": "repro.uarch.platforms",
    "PerfCounters": "repro.uarch.counters",
    "characterize": "repro.uarch.counters",
    "CacheSweepSimulator": "repro.uarch.simulator",
    "SweepResult": "repro.uarch.simulator",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
