"""Registry-destination audit: every recording verb honours --runs-dir.

One parametrized matrix over (recording verb) x (configuration
channel).  Each case runs the verb with the registry pointed at a
fresh directory — once via the ``--runs-dir`` flag (with
``$REPRO_RUNS_DIR`` deliberately aimed elsewhere, proving flag
precedence) and once via the environment variable alone — and asserts
the run record lands there and nowhere else, with the ``recorded``
line naming that file.  Over the cheapest recording verbs,
``--no-record`` writes and names nothing, and a closed stdout cannot
cost the record, because it is saved before anything is printed.  A
final case proves the read side: ``repro metrics`` scrapes the
directory it is pointed at.
"""

import glob
import io
import json
import os
import sys

import pytest

from repro.cli import main
from repro.obs.registry import RunRegistry
from repro.obs.report import scorecard


def _invocation(verb, tmp_path):
    """argv for one cheap recording invocation of ``verb``."""
    if verb == "run":
        return ["--scale", "0.1", "run", "H-Grep"]
    if verb == "trace":
        return [
            "--scale", "0.1", "trace", "H-Grep",
            "--out", str(tmp_path / "trace-out.json"),
        ]
    if verb == "sweep":
        return [
            "--scale", "0.1", "sweep", "--workloads", "H-Grep",
            "--jobs", "1", "--name", "audit",
        ]
    if verb == "faults":
        return ["--scale", "0.1", "faults"]
    if verb == "chaos":
        return [
            "--scale", "0.1", "chaos", "--seeds", "1",
            "--workloads", "wordcount", "--stacks", "Spark",
            "--artifact-dir", str(tmp_path / "chaos-artifacts"),
        ]
    if verb == "fig":
        return ["--scale", "0.1", "fig", "2", "--jobs", "1"]
    if verb == "table":
        return ["table", "1"]
    if verb == "profile":
        return ["--scale", "0.1", "profile", "H-Grep"]
    raise AssertionError(f"unknown verb {verb}")


RECORDING_VERBS = [
    "run", "trace", "sweep", "faults", "chaos", "fig", "table", "profile",
]


#: The cheapest recording verbs, for the record-then-print contract.
CONTRACT_VERBS = ["run", "table", "faults", "trace"]


def records_in(path):
    return sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(path, "*.json"))
    )


@pytest.mark.parametrize("verb", RECORDING_VERBS)
@pytest.mark.parametrize("channel", ["flag", "env"])
def test_record_lands_in_requested_dir(verb, channel, tmp_path, monkeypatch,
                                       capsys):
    target = tmp_path / "target-runs"
    decoy = tmp_path / "decoy-runs"
    if channel == "flag":
        # The flag must win over a conflicting environment variable.
        monkeypatch.setenv("REPRO_RUNS_DIR", str(decoy))
        argv = ["--runs-dir", str(target)] + _invocation(verb, tmp_path)
    else:
        monkeypatch.setenv("REPRO_RUNS_DIR", str(target))
        argv = _invocation(verb, tmp_path)
    monkeypatch.chdir(tmp_path)  # any relative-path writes stay in tmp

    assert main(argv) == 0
    assert records_in(str(target)), f"{verb} wrote no record to {target}"
    out = capsys.readouterr().out
    if verb == "fig":
        # The figure's text ends with the scorecard `repro report`
        # prints for the saved record.
        card = scorecard(RunRegistry(str(target)), ["fig2"])
        assert card.checks and card.render() in out
    # Text mode ends by naming the record, and that file holds the run id.
    recorded = [line for line in out.splitlines()
                if line.startswith("recorded ")]
    assert len(recorded) == 1
    run_id, path = recorded[0][len("recorded "):].split(" -> ")
    assert os.path.dirname(os.path.abspath(path)) == str(target)
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["run_id"] == run_id
    assert not os.path.isdir(decoy) or not records_in(str(decoy))
    # No stray default registry next to the working directory either.
    assert not os.path.isdir(tmp_path / ".repro-runs")


def test_no_record_suppresses_registry(tmp_path, monkeypatch, capsys):
    target = tmp_path / "target-runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    for verb in CONTRACT_VERBS:
        assert main(["--no-record"] + _invocation(verb, tmp_path)) == 0
        assert not os.path.isdir(target) or not records_in(str(target))
        assert "recorded" not in capsys.readouterr().out, verb


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader went away (``repro ... | head``)."""

    def __init__(self, sink):
        self._sink = sink  # the descriptor main() points at devnull

    def fileno(self):
        return self._sink.fileno()

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("verb", CONTRACT_VERBS)
def test_closed_stdout_cannot_cost_the_record(verb, tmp_path, monkeypatch):
    # The record is saved before the first write to stdout, and the
    # command then exits as a SIGPIPE'd one does (128 + 13).
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "target-runs"
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink))
        assert main(
            ["--runs-dir", str(target)] + _invocation(verb, tmp_path)
        ) == 141
    assert records_in(str(target))


def test_metrics_reads_requested_dir(tmp_path, monkeypatch, capsys):
    first = tmp_path / "first-runs"
    second = tmp_path / "second-runs"
    assert main(
        ["--scale", "0.1", "--runs-dir", str(first), "run", "H-Grep"]
    ) == 0
    capsys.readouterr()

    assert main(["--runs-dir", str(first), "metrics"]) == 0
    assert 'experiment="run.H-Grep"' in capsys.readouterr().out

    monkeypatch.setenv("REPRO_RUNS_DIR", str(second))
    assert main(["metrics"]) == 0
    text = capsys.readouterr().out
    assert 'experiment="run.H-Grep"' not in text
    assert text.endswith("# EOF\n")
