"""Deliberately misbehaving cell callables for executor failure tests.

Workers resolve these by dotted path (``tests.test_exec_cells.<name>``), so
each function must be importable in a fresh process.  Cross-process
state (attempt counts) lives in files under ``spec["extra"]["dir"]`` —
a cell is never executed twice concurrently (the supervisor kills a
worker before requeueing its cell), so plain files are race-free.

The ``test_*`` functions at the bottom exercise the benign cells
in-process; the signal-sending cells (SIGKILL/SIGSTOP) are only ever
run inside sacrificial workers by ``test_exec_supervisor.py``.
"""

import os
import signal
import time


def _extra(spec):
    return spec.get("extra", {})


def _attempt_count(spec):
    """Count this cell's executions across all processes (1-based)."""
    state_dir = _extra(spec)["dir"]
    name = spec["cell_id"].replace("/", "_").replace("@", "_")
    path = os.path.join(state_dir, f"{name}.attempts")
    count = 1
    if os.path.exists(path):
        with open(path) as handle:
            count = int(handle.read() or 0) + 1
    with open(path, "w") as handle:
        handle.write(str(count))
    return count


def ok_cell(spec):
    """Deterministic metrics from the spec alone (counts attempts too)."""
    if "dir" in _extra(spec):
        _attempt_count(spec)
    return {
        "metrics": {
            "value": float(spec["seed"]) * 10.0 + len(spec["workload"]),
            "scale": float(spec["scale"]),
        }
    }


def crash_cell(spec):
    """Fails identically every time: the poison-cell shape."""
    _attempt_count(spec)
    raise RuntimeError(f"deterministic boom in {spec['workload']}")


def flaky_cell(spec):
    """Fails the first ``fail_times`` attempts, then succeeds."""
    attempt = _attempt_count(spec)
    fail_times = int(_extra(spec).get("fail_times", 1))
    if attempt <= fail_times:
        raise RuntimeError(f"transient failure, attempt {attempt}")
    return {"metrics": {"value": 42.0}}


def sigkill_once_cell(spec):
    """SIGKILLs its own worker on the first attempt: a mid-cell crash."""
    attempt = _attempt_count(spec)
    if attempt <= int(_extra(spec).get("kill_times", 1)):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"metrics": {"value": 7.0}}


def hang_once_cell(spec):
    """Sleeps past any cell timeout on the first attempt.

    Heartbeats keep flowing while it sleeps, so this exercises the
    wall-clock deadline specifically, not stall detection.
    """
    attempt = _attempt_count(spec)
    if attempt <= 1:
        time.sleep(600)
    return {"metrics": {"value": 5.0}}


def freeze_once_cell(spec):
    """SIGSTOPs its own worker on the first attempt.

    A stopped process sends no heartbeats: this exercises stall
    detection (the supervisor's SIGKILL also fells stopped processes).
    """
    attempt = _attempt_count(spec)
    if attempt <= 1:
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"metrics": {"value": 9.0}}


def kill_worker_cell(spec):
    """SIGKILLs every process except the supervisor itself.

    Drives worker restarts until the executor degrades to serial
    execution, where (running in the supervisor's process) it succeeds.
    """
    main_pid = int(_extra(spec)["main_pid"])
    if os.getpid() != main_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"metrics": {"value": 3.0}}


def slow_cell(spec):
    """Takes a bounded but non-trivial time; used for kill/resume."""
    time.sleep(float(_extra(spec).get("seconds", 0.5)))
    return ok_cell(spec)


# --------------------------------------------------------------------------
# In-process tests for the benign cells (the supervisor suite only ever
# observes these through worker processes; here we pin their contracts).
# --------------------------------------------------------------------------

def _spec(tmp_path=None, **extra):
    spec = {
        "cell_id": "S-WordCount@s0.2/seed3",
        "workload": "S-WordCount",
        "scale": 0.2,
        "seed": 3,
    }
    if tmp_path is not None:
        extra["dir"] = str(tmp_path)
    if extra:
        spec["extra"] = extra
    return spec


def test_ok_cell_metrics_are_deterministic():
    first = ok_cell(_spec())
    second = ok_cell(_spec())
    assert first == second
    assert first["metrics"]["value"] == 3 * 10.0 + len("S-WordCount")
    assert first["metrics"]["scale"] == 0.2


def test_attempt_count_increments_across_calls(tmp_path):
    spec = _spec(tmp_path)
    assert _attempt_count(spec) == 1
    assert _attempt_count(spec) == 2
    assert _attempt_count(spec) == 3


def test_attempt_count_is_per_cell(tmp_path):
    a = _spec(tmp_path)
    b = dict(_spec(tmp_path), cell_id="H-Grep@s0.2/seed0")
    assert _attempt_count(a) == 1
    assert _attempt_count(b) == 1
    assert _attempt_count(a) == 2


def test_crash_cell_always_raises(tmp_path):
    import pytest

    spec = _spec(tmp_path)
    for _ in range(3):
        with pytest.raises(RuntimeError, match="deterministic boom"):
            crash_cell(spec)


def test_flaky_cell_fails_then_succeeds(tmp_path):
    import pytest

    spec = _spec(tmp_path, fail_times=2)
    for attempt in (1, 2):
        with pytest.raises(RuntimeError, match=f"attempt {attempt}"):
            flaky_cell(spec)
    assert flaky_cell(spec) == {"metrics": {"value": 42.0}}


def test_slow_cell_returns_ok_metrics(tmp_path):
    spec = _spec(tmp_path, seconds=0.01)
    assert slow_cell(spec)["metrics"]["value"] == ok_cell(_spec())["metrics"]["value"]


def test_cell_id_round_trips():
    from repro.exec.cells import SweepCell

    for cell in (SweepCell("H-Grep", "e5645", 0.2, 0),
                 SweepCell("S-Project+s1@x", "d510", 0.5, 12)):
        assert SweepCell.from_cell_id(cell.cell_id, cell.scale) == cell
    for bad in ("H-Grep+s0", "H-Grep@e5645", "H-Grep@e5645+sx", "c0"):
        assert SweepCell.from_cell_id(bad, 0.2) is None
