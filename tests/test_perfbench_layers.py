"""Every perfbench layer entry point still names a function, and is timed.

``perfbench/layers.py`` skips an entry point it cannot find, so a moved
or renamed function would silently push its time into another layer
(``cache_walk`` into ``unattributed``, say).  The first test resolves
each one the way ``LayerSpans`` installs it.

``LayerSpans`` rebinds an entry point in the modules loaded when a
traced regeneration starts and restores only those, so a module first
imported later that bound an entry point by name would keep the first
regeneration's wrapper.  Callers therefore call entry points through
their module; the traced runs below check every regeneration is
attributed.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "layers.py",
)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


ENTRY_POINTS = [(layer, target)
                for layer, targets in _layers().items()
                for target in targets]


@pytest.mark.parametrize("layer,target", ENTRY_POINTS,
                         ids=[target for _, target in ENTRY_POINTS])
def test_entry_point_resolves(layer, target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # A method is rebound on the class that defines it.
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), f"{layer}: {target}"
    else:
        assert callable(getattr(module, attr, None)), f"{layer}: {target}"



RUN_PATH = os.path.join(os.path.dirname(LAYERS_PATH), "run.py")


def _traced(workload, seconds):
    """``perfbench/run.py --trace 1`` for ``workload`` at seed 3."""
    done = subprocess.run(
        [sys.executable, RUN_PATH, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    # A layer whose wrapper outlived its regeneration reads 0 from the
    # second regeneration on, so only a median over three shows it.
    assert result["attempted"] >= 3, done.stderr
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def test_traced_system_attributes_every_regeneration():
    metrics = _traced("system", 2)
    assert metrics["workload_s"] > 0
    assert metrics["cluster_sim_s"] > 0
    assert metrics["unattributed_s"] < 0.05


def test_traced_locality_attributes_every_regeneration():
    metrics = _traced("locality", 5)
    assert metrics["trace_gen_s"] > 0
    assert metrics["cache_walk_s"] > 0
    assert metrics["trace_refs"] == 4160000
