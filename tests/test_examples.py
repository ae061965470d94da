"""The scripts under ``examples/`` must run as their docstrings document."""

import os
import subprocess
import sys

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_example(name, *args):
    """Run one example script from the repo root; return its stdout lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join("examples", name), *args],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quickstart_prints_all_45_metrics():
    lines = run_example("quickstart.py", "0.1")
    metrics = lines[lines.index("all 45 metrics:") + 1:]
    assert len(metrics) == 45


def test_independent_characterization_compares_partitions():
    lines = run_example("independent_characterization.py")
    assert lines[-1].startswith("adjusted Rand index between the partitions:")
