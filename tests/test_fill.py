"""``ExperimentContext.fill``: the threaded characterization of a
figure's cells and suites fills the cache with what the serial calls
would have put there."""

import dataclasses

import pytest

from repro.comparison import SUITES
from repro.experiments.runner import ExperimentContext
from repro.uarch.platforms import ATOM_D510, XEON_E5645
from repro.workloads import workload

WORKLOADS = ("H-Grep", "S-WordCount", "M-Kmeans", "H-Read")
PAIRS = [(w, p) for w in WORKLOADS for p in (XEON_E5645, ATOM_D510)]


def test_samples_equal_serial_samples():
    filled = ExperimentContext(scale=0.1, seed=2)
    filled.fill(PAIRS, ("HPCC",))
    serial = ExperimentContext(scale=0.1, seed=2)
    for workload_id, platform in PAIRS:
        got = filled.counters(workload_id, platform)
        want = serial.counters(workload_id, platform)
        # Both replay their branches before the comparison.
        assert got.branch_phase == want.branch_phase
        assert got.to_dict() == want.to_dict()
    got = filled.suite_counters("HPCC")
    assert len(got) == len(SUITES["HPCC"])
    for sample, expected in zip(got, serial.suite_counters("HPCC")):
        sample.branch_phase
        assert sample.to_dict() == expected.to_dict()


def counting(definition, calls, fail=False):
    """``definition`` under a new id whose runner counts its calls."""

    def runner(**kwargs):
        calls.append(kwargs)
        if fail:
            raise RuntimeError("runner failed")
        return definition.runner(**kwargs)

    return dataclasses.replace(
        definition, workload_id=f"{definition.workload_id}-counted",
        runner=runner)


def test_runner_runs_once_for_two_platforms():
    calls = []
    definition = counting(workload("H-Grep"), calls)
    context = ExperimentContext(scale=0.1)
    context.fill([(definition, XEON_E5645), (definition, ATOM_D510)])
    assert len(calls) == 1
    context.counters(definition, ATOM_D510)
    context.counters(definition, XEON_E5645)
    assert len(calls) == 1


def test_fill_replays_no_branch():
    context = ExperimentContext(scale=0.1)
    context.fill([("H-Grep", XEON_E5645)], ("PARSEC",))
    samples = [context.counters("H-Grep")] + context.suite_counters("PARSEC")
    assert all("branch_phase" not in vars(s) for s in samples)


def test_failing_runner_raises_what_serial_raises():
    definition = counting(workload("H-Grep"), [], fail=True)
    with pytest.raises(RuntimeError) as serial:
        ExperimentContext(scale=0.1).counters(definition)
    with pytest.raises(type(serial.value)):
        ExperimentContext(scale=0.1).fill(
            [("M-Grep", XEON_E5645), (definition, XEON_E5645)])


def test_fill_skips_what_is_cached():
    context = ExperimentContext(scale=0.1)
    cached = context.counters("H-Grep")
    context.fill([("H-Grep", XEON_E5645)])
    assert context.counters("H-Grep") is cached
