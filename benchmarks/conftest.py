"""Shared benchmark fixtures.

Every bench regenerates one of the paper's tables or figures, prints the
rows/series next to the paper's reference numbers, and times the
regeneration via pytest-benchmark (rounds kept minimal: these are
experiment harnesses, not micro-benchmarks).

Each bench also appends a ``kind="bench"`` run record to the registry
(``.repro-runs/`` or ``$REPRO_RUNS_DIR``) carrying the experiment's
deterministic fidelity metrics plus the measured wall time.
"""

import pytest

from repro.experiments import ExperimentContext
from repro.obs.registry import RunRecord, RunRegistry, build_provenance

BENCH_SCALE = 0.4


@pytest.fixture(scope="session")
def ctx():
    """One characterization sweep shared by all figure benches."""
    return ExperimentContext(scale=BENCH_SCALE)


def _bench_seconds(benchmark) -> float:
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        return 0.0


def _record_bench(name: str, benchmark, result, extra_timings=None) -> None:
    metrics = {}
    fidelity = getattr(result, "fidelity_metrics", None)
    if callable(fidelity):
        metrics = fidelity()
    timings = {"bench.seconds": _bench_seconds(benchmark)}
    if extra_timings:
        timings.update(extra_timings)
    record = RunRecord(
        experiment=f"bench.{name}",
        kind="bench",
        metrics=metrics,
        provenance=build_provenance(
            experiment=f"bench.{name}",
            seed=0,
            scale=BENCH_SCALE,
            platforms=["Xeon E5645"],
        ),
        timings=timings,
    )
    RunRegistry().save(record)


def run_once(benchmark, fn, *args, extra_timings=None, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    ``extra_timings`` merges additional quarantined wall-clock entries
    (e.g. the tracing-overhead guardrail's traced/untraced split) into
    the bench record's ``timings``.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    _record_bench(
        getattr(benchmark, "name", None) or fn.__module__,
        benchmark,
        result,
        extra_timings=extra_timings,
    )
    return result
