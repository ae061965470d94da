"""Per-layer host-time attribution for one figure regeneration.

Spans are recorded from the benchmark side only: :class:`LayerSpans`
rebinds each layer's entry point (listed in :data:`LAYERS`) to a timed
wrapper for the duration of a traced regeneration and restores the
originals afterwards.  A span's *self* time is its duration minus the
spans nested inside it, so the per-layer self times of one
regeneration add up exactly to its total; the regeneration itself is
the root span, whose self time is reported as ``unattributed``.

The cache/TLB walk has no function boundary of its own (it is the inner
loop of ``characterize`` and of the capacity-sweep curves), so it is
measured as the self time of those callers once trace generation,
branch replay and the pipeline model nested inside them are taken out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as ``"module:attribute"`` or
#: ``"module:Class.method"``.  An entry point that no longer exists is
#: skipped, and its time falls to the enclosing span.
LAYERS: Dict[str, Tuple[str, ...]] = {
    # Functional execution: dataset generation plus the stack engines,
    # and the comparison suites' profile synthesis.
    "workload": (
        "repro.experiments.runner:ExperimentContext.result",
        "repro.comparison.base:NativeBenchmark.profile",
        "repro.system.classify:characterize_system",
    ),
    # The discrete-event cluster model behind §3.2.
    "cluster_sim": ("repro.cluster.events:Simulation.run",),
    "trace_gen": (
        "repro.uarch.trace:generate_fetch_trace",
        "repro.uarch.trace:generate_data_trace",
    ),
    "cache_walk": (
        "repro.uarch.counters:characterize",
        "repro.uarch.simulator:CacheSweepSimulator.instruction_curve",
        "repro.uarch.simulator:CacheSweepSimulator.data_curve",
        "repro.uarch.simulator:CacheSweepSimulator.unified_curve",
    ),
    "branch": (
        "repro.uarch.branch:BranchStreamGenerator.generate",
        "repro.uarch.branch:simulate_branches",
    ),
    "pipeline": ("repro.uarch.pipeline:model_pipeline",),
    "registry_io": ("repro.obs.registry:RunRegistry.save",),
}

#: The root span's layer name.
UNATTRIBUTED = "unattributed"


def layer_names() -> List[str]:
    return list(LAYERS) + [UNATTRIBUTED]


class LayerSpans:
    """Accumulates per-layer self time in memory."""

    def __init__(self):
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Elements of generated traces (fetch + data references).
        self.trace_refs = 0
        self._children: List[float] = []
        self._restore: List[Callable[[], None]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                self.self_seconds[layer] += elapsed - nested
                if self._children:
                    self._children[-1] += elapsed
            if layer == "trace_gen":
                self.trace_refs += len(result)
            return result

        return timed

    def install(self) -> None:
        """Rebind every layer entry point to its timed wrapper."""
        for layer, targets in LAYERS.items():
            for target in targets:
                self._install_one(layer, target)

    def _install_one(self, layer: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = owner.__dict__.get(attr) if owner else None
            if original is None:
                return
            setattr(owner, attr, self.wrap(layer, original))
            self._restore.append(
                lambda: setattr(owner, attr, original)
            )
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.wrap(layer, original)
        # A function imported by name elsewhere is bound in that
        # module's globals too; rebind every such binding.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, name,
                                          original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def run_root(self, fn: Callable):
        """Run ``fn()`` as the root span, with every layer traced."""
        self.install()
        try:
            return self.wrap(UNATTRIBUTED, fn)()
        finally:
            self.uninstall()
