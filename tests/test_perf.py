"""The noise-aware bench harness and the CI perf gate.

Covers the three layers separately: the pure robust statistics
(:mod:`repro.obs.stats`), the timing harness with an injected fake
timer (:func:`repro.obs.perf.run_bench`), and the budget gate
(:func:`repro.obs.perf.perfdiff`) — plus one real micro-kernel bench
to pin the ``kind="bench"`` record schema end to end.
"""

import json

import pytest

from repro.cli import main
from repro.errors import BudgetManifestError, PerfError
from repro.obs import RunRegistry
from repro.obs.perf import (
    BENCH_RECORD_SCHEMA,
    BUDGET_SCHEMA_VERSION,
    BenchTarget,
    bench_experiment,
    bench_targets,
    load_budgets,
    perfdiff,
    run_bench,
    stats_from_timings,
    update_budgets,
)
from repro.obs.stats import (
    bootstrap_ci_median,
    intervals_separated,
    mad,
    median,
    robust_summary,
)


class TestRobustStats:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_mad_known_values(self):
        # values 1..5: median 3, |v-3| = [2,1,0,1,2], MAD = 1
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
        assert mad([7.0, 7.0, 7.0]) == 0.0

    def test_bootstrap_ci_is_deterministic(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert bootstrap_ci_median(values) == bootstrap_ci_median(values)
        lo, hi = bootstrap_ci_median(values)
        assert min(values) <= lo <= hi <= max(values)

    def test_bootstrap_single_sample_is_point_interval(self):
        assert bootstrap_ci_median([2.5]) == (2.5, 2.5)

    def test_intervals_separated(self):
        assert intervals_separated((0.0, 1.0), (2.0, 3.0))
        assert intervals_separated((2.0, 3.0), (0.0, 1.0))
        assert not intervals_separated((0.0, 1.5), (1.0, 2.0))

    def test_robust_summary_fields(self):
        stats = robust_summary([2.0, 1.0, 3.0])
        assert stats.n == 3
        assert stats.median == 2.0
        assert stats.min == 1.0 and stats.max == 3.0
        assert stats.ci_lo <= stats.median <= stats.ci_hi
        payload = stats.to_dict()
        assert payload["median"] == 2.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            robust_summary([])


def fake_timer(step=0.5):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"t": 0.0}

    def tick():
        state["t"] += step
        return state["t"]

    return tick


def make_target(payload=None, name="toy"):
    payloads = payload if payload is not None else {"x": 1.0}

    def factory(scale, seed):
        calls = {"n": 0}

        def run():
            calls["n"] += 1
            if isinstance(payloads, list):
                return payloads[min(calls["n"] - 1, len(payloads) - 1)]
            return dict(payloads)

        return run

    return BenchTarget(name, "toy target", "micro", factory)


class TestRunBench:
    def test_fake_timer_yields_exact_stats(self):
        result = run_bench(
            make_target(), reps=3, warmup=2, scale=0.1, seed=0,
            timer=fake_timer(0.5),
        )
        # Each rep spans exactly one tick: 0.5s per sample.
        assert result.samples_s == [0.5, 0.5, 0.5]
        assert result.stats.median == 0.5
        assert result.stats.mad == 0.0
        assert result.metrics == {"x": 1.0}

    def test_record_schema(self):
        result = run_bench(
            make_target(), reps=2, warmup=0, scale=0.1, seed=7,
            timer=fake_timer(),
        )
        record = result.to_record()
        assert record.experiment == "bench.toy"
        assert record.kind == "bench"
        assert record.metrics == {"x": 1.0}
        # Every wall-clock number is quarantined under bench.*.
        assert not any(k.startswith("bench.") for k in record.metrics)
        timings = record.timings
        assert timings["bench.schema"] == float(BENCH_RECORD_SCHEMA)
        assert timings["bench.reps"] == 2.0
        for key in ("bench.median_s", "bench.mad_s", "bench.ci_lo_s",
                    "bench.ci_hi_s", "bench.rep_s.0", "bench.rep_s.1"):
            assert key in timings
        assert record.series["bench"]["target"] == "toy"
        assert record.series["bench"]["target_kind"] == "micro"
        assert record.provenance["scale"] == 0.1

    def test_nondeterministic_payload_is_refused(self):
        flaky = make_target(payload=[{"x": 1.0}, {"x": 2.0}])
        with pytest.raises(PerfError):
            run_bench(flaky, reps=2, warmup=0, timer=fake_timer())

    def test_unknown_target_and_bad_reps(self):
        with pytest.raises(PerfError):
            run_bench("no-such-target", timer=fake_timer())
        with pytest.raises(PerfError):
            run_bench(make_target(), reps=0, timer=fake_timer())
        with pytest.raises(PerfError):
            run_bench(make_target(), warmup=-1, timer=fake_timer())

    def test_catalogue_names_every_paper_verb(self):
        targets = bench_targets()
        for name in ("fig1", "fig4", "table2", "locality",
                     "uarch.characterize", "uarch.trace-gen"):
            assert name in targets
        assert bench_experiment("fig4") == "bench.fig4"

    def test_real_micro_kernel_round_trip(self):
        # One real inner-loop kernel at tiny scale: the record's
        # metrics are the kernel's deterministic payload.
        a = run_bench("uarch.trace-gen", reps=2, warmup=0, scale=0.1, seed=0)
        b = run_bench("uarch.trace-gen", reps=2, warmup=0, scale=0.1, seed=0)
        assert a.metrics and a.metrics == b.metrics
        record = a.to_record()
        assert record.kind == "bench"
        assert record.metrics["trace.fetch_lines"] > 0


class TestObsOverheadTarget:
    def test_catalogued_beside_fig4(self):
        # CI benches both targets and diffs their records at zero
        # thresholds; test_sweep_tracing proves the executor-level
        # bit-identity the zero-threshold diff relies on.
        targets = bench_targets()
        assert targets["obs-overhead"].kind == targets["fig4"].kind
        assert bench_experiment("obs-overhead") == "bench.obs-overhead"


def bench_into(tmp_path, *, slowdown=1.0, name="toy"):
    """Record one fake-timer bench into a registry under tmp_path."""
    registry = RunRegistry(str(tmp_path / "runs"))
    result = run_bench(
        make_target(name=name), reps=3, warmup=0, scale=0.1, seed=0,
        timer=fake_timer(0.5 * slowdown),
    )
    registry.save(result.to_record())
    return registry


class TestPerfGate:
    def test_identical_rerun_exits_zero(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        manifest = load_budgets(budgets)
        result = perfdiff(registry, manifest, budgets_path=budgets)
        assert [v.status for v in result.verdicts] == ["ok"]
        assert result.exit_code == 0

    def test_separated_slowdown_is_a_regression(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        # Re-bench 2x slower: the fake timer makes both CIs points, so
        # the intervals separate and the gate must fail.
        bench_into(tmp_path, slowdown=2.0)
        manifest = load_budgets(budgets)
        result = perfdiff(registry, manifest, budgets_path=budgets)
        assert [v.status for v in result.verdicts] == ["regression"]
        assert result.exit_code == 1
        assert result.verdicts[0].ratio == pytest.approx(2.0)

    def test_speedup_is_flagged_faster_not_failing(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        bench_into(tmp_path, slowdown=0.5)
        result = perfdiff(
            registry, load_budgets(budgets), budgets_path=budgets
        )
        assert [v.status for v in result.verdicts] == ["faster"]
        assert result.exit_code == 0

    def test_missing_record_never_fails_the_gate(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        empty = RunRegistry(str(tmp_path / "other-runs"))
        result = perfdiff(
            empty, load_budgets(budgets), budgets_path=budgets
        )
        assert [v.status for v in result.verdicts] == ["no-record"]
        assert result.exit_code == 0

    def test_scale_mismatch_is_incomparable(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        manifest = load_budgets(budgets)
        manifest["budgets"]["toy"]["scale"] = 0.9
        result = perfdiff(registry, manifest, budgets_path=budgets)
        assert [v.status for v in result.verdicts] == ["incomparable"]
        assert result.exit_code == 0

    def test_manifest_validation(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(BudgetManifestError):
            load_budgets(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope", encoding="utf-8")
        with pytest.raises(BudgetManifestError):
            load_budgets(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(
            json.dumps({"schema_version": 99, "budgets": {}}),
            encoding="utf-8",
        )
        with pytest.raises(BudgetManifestError):
            load_budgets(str(wrong))
        assert BUDGET_SCHEMA_VERSION == 1

    def test_stats_from_timings_requires_ci(self):
        assert stats_from_timings({"bench.median_s": 1.0}) is None
        stats = stats_from_timings({
            "bench.median_s": 1.0, "bench.ci_lo_s": 0.9,
            "bench.ci_hi_s": 1.1, "bench.reps": 3.0,
        })
        assert stats["reps"] == 3

    def test_update_budgets_preserves_annotations(self, tmp_path):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        manifest = load_budgets(budgets)
        manifest["budgets"]["toy"]["hot_functions"] = ["run"]
        manifest["budgets"]["toy"]["note"] = "hand-written"
        with open(budgets, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        update_budgets(registry, budgets, targets=["toy"])
        reloaded = load_budgets(budgets)
        assert reloaded["budgets"]["toy"]["hot_functions"] == ["run"]
        assert reloaded["budgets"]["toy"]["note"] == "hand-written"

    def test_update_budgets_for_some_targets_keeps_the_rest(self, tmp_path):
        registry = bench_into(tmp_path)
        bench_into(tmp_path, name="other")
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy", "other"])
        before = load_budgets(budgets)["budgets"]["other"]
        bench_into(tmp_path, slowdown=0.5)
        update_budgets(registry, budgets, targets=["toy"])
        reloaded = load_budgets(budgets)["budgets"]
        assert reloaded["other"] == before
        assert reloaded["toy"]["median_s"] == pytest.approx(0.25)


class TestBenchCli:
    def test_bench_records_and_perfdiff_round_trip(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        budgets = str(tmp_path / "budgets.json")
        assert main([
            "--runs-dir", runs, "--scale", "0.1", "bench",
            "uarch.trace-gen", "--reps", "2", "--warmup", "0",
        ]) == 0
        records = RunRegistry(runs).records("bench.uarch.trace-gen")
        assert len(records) == 1
        assert records[0].kind == "bench"
        assert "bench.median_s" in records[0].timings
        assert main([
            "--runs-dir", runs, "perfdiff", "--budgets", budgets,
            "--update-budgets",
        ]) == 0
        assert main([
            "--runs-dir", runs, "perfdiff", "--budgets", budgets,
        ]) == 0
        capsys.readouterr()

    def test_bench_unknown_target_is_a_usage_error(self, tmp_path, capsys):
        assert main(
            ["--runs-dir", str(tmp_path / "r"), "bench", "nope"]
        ) == 2
        capsys.readouterr()

    def test_bench_list_needs_no_target(self, tmp_path, capsys):
        assert main(
            ["--runs-dir", str(tmp_path / "r"), "bench", "--list"]
        ) == 0
        out = capsys.readouterr().out
        assert "uarch.trace-gen" in out

    def test_perfdiff_missing_manifest_is_a_usage_error(
        self, tmp_path, capsys
    ):
        assert main([
            "--runs-dir", str(tmp_path / "r"), "perfdiff",
            "--budgets", str(tmp_path / "nope.json"),
        ]) == 2
        capsys.readouterr()

    def test_perfdiff_warn_only_masks_regressions(self, tmp_path, capsys):
        registry = bench_into(tmp_path)
        budgets = str(tmp_path / "budgets.json")
        update_budgets(registry, budgets, targets=["toy"])
        bench_into(tmp_path, slowdown=2.0)
        runs = str(tmp_path / "runs")
        assert main([
            "--runs-dir", runs, "perfdiff", "--budgets", budgets,
        ]) == 1
        assert main([
            "--runs-dir", runs, "perfdiff", "--budgets", budgets,
            "--warn-only",
        ]) == 0
        out = capsys.readouterr().out
        assert "::warning" in out
