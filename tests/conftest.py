"""Shared fixtures: one characterization sweep reused across test modules."""

import pytest

from repro.experiments import ExperimentContext


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Keep CLI-written run records inside each test's tmp dir."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture(scope="session")
def ctx():
    """A session-wide experiment context at test scale."""
    return ExperimentContext(scale=0.35)
