"""What ``repro`` imports before and while a verb runs.

``repro.cli`` keeps its verb table and parser at module level and
imports what each verb runs inside its handler, and the re-exporting
package ``__init__`` files resolve names on first use
(:mod:`repro._lazy`).  The test session has imported everything, so
each start-up check runs a fresh interpreter and reads back the module
names it loaded.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Runs ``python -m repro <argv>`` (or, with no argv, ``import
#: repro.cli``) and writes the loaded module names to the file named by
#: ``sys.argv[1]`` at exit, whatever the exit status.
PROBE = """
import atexit, json, runpy, sys
out, argv = sys.argv[1], sys.argv[2:]

@atexit.register
def dump():
    with open(out, "w") as handle:
        json.dump(sorted(sys.modules), handle)

if argv:
    sys.argv = ["repro", *argv]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
else:
    import repro.cli
"""

#: Every repro module ``import repro.cli`` may load.
CLI_MODULES = {"repro", "repro._lazy", "repro.cli", "repro.errors"}

#: ``--help`` also reads the registry directory's default.
HELP_MODULES = CLI_MODULES | {"repro.fsio", "repro.obs",
                              "repro.obs.registry"}

#: Modules a ``system`` regeneration never runs.
NOT_FOR_SYSTEM = (
    "repro.comparison",
    "repro.uarch.counters",
    "repro.uarch.branch",
    "repro.exec.supervisor",
    "repro.exec.pool",
    "repro.core.pca",
    "repro.obs.dashboard",
    "repro.obs.observatory",
    "repro.obs.perf",
    "repro.obs.hostprof",
)

LAZY_PACKAGES = ("repro", "repro.obs", "repro.exec", "repro.uarch")


def _loaded(tmp_path, *argv):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        cwd=tmp_path, env=env, check=False, capture_output=True,
        timeout=120,
    )
    return set(json.loads(out.read_text()))


def _repro(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


class TestStartup:
    def test_import_cli_loads_only_the_parser(self, tmp_path):
        modules = _loaded(tmp_path)
        assert "numpy" not in modules
        assert _repro(modules) <= CLI_MODULES

    def test_help_loads_only_the_parser(self, tmp_path):
        modules = _loaded(tmp_path, "--help")
        assert "numpy" not in modules
        assert _repro(modules) <= HELP_MODULES

    def test_system_loads_no_executor_or_observatory(self, tmp_path):
        modules = _loaded(tmp_path, "--scale", "0.1", "--no-record",
                          "system", "--seed", "3")
        # The verb ran: its experiment module was imported.
        assert "repro.experiments.system_behaviors" in modules
        assert sorted(m for m in NOT_FOR_SYSTEM if m in modules) == []

    def test_registry_verbs_load_no_numpy(self, tmp_path):
        runs = str(tmp_path / "runs")
        for argv in (["report"], ["metrics"], ["history", "fig4"],
                     ["diff", "fig4", "fig4"]):
            modules = _loaded(tmp_path, "--runs-dir", runs, *argv)
            assert "repro.obs.registry" in modules, argv
            assert "numpy" not in modules, argv


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_name_resolves_to_its_module_object(self, package):
        module = importlib.import_module(package)
        exports = module._EXPORTS
        assert set(module.__all__) - {"__version__"} == set(exports)
        for name, source in exports.items():
            defined = getattr(importlib.import_module(source), name)
            assert getattr(module, name) is defined, f"{package}.{name}"
            owner = getattr(defined, "__module__", source)
            if callable(defined):
                assert owner == source, f"{package}.{name}: {owner}"
        assert set(exports) <= set(dir(module))

    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(module, "no_such_export")
