"""Every perfbench layer entry point still names a function.

``perfbench/layers.py`` skips an entry point it cannot find, so a moved
or renamed function would silently push its time into another layer
(``cache_walk`` into ``unattributed``, say).  This test resolves each
one the way ``LayerSpans`` installs it.
"""

import importlib
import importlib.util
import os

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

