"""Run registry, paper anchors and cross-run reporting."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.anchors import (
    FAIL,
    PAPER_ANCHORS,
    PASS,
    WARN,
    Anchor,
    Ordering,
    evaluate_record,
)
from repro.obs.registry import (
    SCHEMA_VERSION,
    RunRecord,
    RunRegistry,
    build_provenance,
    flatten_rows,
)
from repro.obs.report import (
    diff_records,
    history,
    scorecard,
    sparkline,
)


def make_record(experiment="fig3", metrics=None, **provenance_overrides):
    provenance = build_provenance(
        experiment=experiment, seed=0, scale=0.3, platforms=["Xeon E5645"]
    )
    provenance.update(provenance_overrides)
    return RunRecord(
        experiment=experiment,
        kind="experiment",
        metrics=metrics if metrics is not None else {"bigdata.ipc": 1.3},
        provenance=provenance,
    )


class TestRunRecord:
    def test_round_trip(self):
        record = make_record(metrics={"a.b": 1.5, "c": 2.0})
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.experiment == record.experiment
        assert clone.metrics == record.metrics
        assert clone.provenance == record.provenance
        assert clone.schema_version == SCHEMA_VERSION

    def test_future_schema_rejected(self):
        data = make_record().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            RunRecord.from_dict(data)

    def test_provenance_fields_populated(self):
        provenance = make_record().provenance
        for field in ("git_sha", "seed", "scale", "platforms", "python",
                      "config_hash"):
            assert provenance[field] not in (None, "")
        assert provenance["seed"] == 0
        assert provenance["scale"] == 0.3

    def test_config_hash_is_deterministic_and_config_sensitive(self):
        a = build_provenance(experiment="e", seed=1, scale=0.5,
                             platforms=["P"])
        b = build_provenance(experiment="e", seed=1, scale=0.5,
                             platforms=["P"])
        c = build_provenance(experiment="e", seed=2, scale=0.5,
                             platforms=["P"])
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != c["config_hash"]

    def test_flatten_rows_skips_non_numeric(self):
        metrics = flatten_rows(
            "w", ["name", "x", "label", "y"],
            [["A", 1.5, "CPU", 2], ["B", 0.25, "IO", True]],
        )
        assert metrics == {"w.A.x": 1.5, "w.A.y": 2.0, "w.B.x": 0.25}


class TestRegistry:
    def test_save_load_round_trip(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        record = make_record(metrics={"m": 1.0})
        path = registry.save(record)
        assert os.path.exists(path)
        assert record.run_id and record.created_at
        loaded = registry.load_path(path)
        assert loaded.metrics == {"m": 1.0}
        assert loaded.run_id == record.run_id

    def test_same_second_saves_get_distinct_ids(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        first, second = make_record(), make_record()
        second.created_at = first.created_at = "2026-01-01T00:00:00Z"
        registry.save(first)
        registry.save(second)
        assert first.run_id != second.run_id
        assert len(registry.records("fig3")) == 2

    def test_latest_and_resolve(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        old = make_record(metrics={"m": 1.0})
        old.created_at = "2026-01-01T00:00:00Z"
        new = make_record(metrics={"m": 2.0})
        new.created_at = "2026-01-02T00:00:00Z"
        registry.save(old)
        path = registry.save(new)
        assert registry.latest("fig3").metrics["m"] == 2.0
        assert registry.resolve("fig3").metrics["m"] == 2.0
        assert registry.resolve("fig3~1").metrics["m"] == 1.0
        assert registry.resolve(new.run_id).metrics["m"] == 2.0
        assert registry.resolve(path).metrics["m"] == 2.0
        with pytest.raises(KeyError):
            registry.resolve("nonesuch")
        with pytest.raises(KeyError):
            registry.resolve("fig3~9")

    def test_missing_dir_is_empty(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "nope"))
        assert registry.records() == []
        assert registry.latest("fig3") is None


class TestAnchors:
    def test_band_edges(self):
        anchor = Anchor("e", "m", 10.0, rel_tol=0.1, warn_factor=2.0)
        assert anchor.status(10.0) == PASS
        assert anchor.status(11.0) == PASS      # exactly on the band
        assert anchor.status(11.0001) == WARN   # just beyond
        assert anchor.status(12.0) == WARN      # exactly on the warn band
        assert anchor.status(12.0001) == FAIL
        assert anchor.status(None) == FAIL

    def test_abs_tol_dominates_for_small_references(self):
        anchor = Anchor("e", "m", 0.0, rel_tol=0.5, abs_tol=0.2)
        assert anchor.band == 0.2
        assert anchor.status(0.15) == PASS
        assert anchor.status(0.3) == WARN
        assert anchor.status(0.5) == FAIL

    def test_evaluate_record_flags_missing_metric(self):
        record = make_record(metrics={})
        checks = evaluate_record(record)
        assert checks and all(c.status == FAIL for c in checks)
        assert all(c.value is None for c in checks)


class TestOrdering:
    def test_pass_and_fail(self):
        ordering = Ordering("e", "a", "b")
        assert ordering.metric == "a < b"
        assert ordering.evaluate({"a": 1.0, "b": 1.5}) == (0.5, PASS)
        assert ordering.evaluate({"a": 2.0, "b": 1.5}) == (-0.5, FAIL)
        assert ordering.evaluate({"a": 1.5, "b": 1.5}) == (0.0, FAIL)

    def test_missing_metric_fails(self):
        assert Ordering("e", "a", "b").evaluate({"a": 1.0}) == (None, FAIL)

    def test_star_matching_nothing_fails(self):
        ordering = Ordering("e", "w.*.x", "w.*.y")
        assert ordering.evaluate({"other.q.x": 1.0}) == (None, FAIL)

    def test_star_needs_both_sides_for_every_key(self):
        ordering = Ordering("e", "w.*.x", "w.*.y")
        metrics = {"w.A.x": 1.0, "w.A.y": 2.0, "w.B.x": 1.0}
        assert ordering.evaluate(metrics) == (None, FAIL)

    def test_for_all_with_one_violating_workload(self):
        ordering = Ordering("e", "w.*.x", "w.*.y")
        metrics = {f"w.{name}.x": 1.0 for name in "ABCD"}
        metrics.update({f"w.{name}.y": 2.0 for name in "ABCD"})
        assert ordering.evaluate(metrics) == (1.0, PASS)
        metrics["w.C.y"] = 0.75
        assert ordering.evaluate(metrics) == (-0.25, FAIL)

    def test_scorecard_and_dashboard_show_ordering_rows(self, tmp_path):
        from repro.obs import build_model, render_site

        registry = RunRegistry(str(tmp_path / "runs"))
        registry.save(make_record("fig3", metrics={
            "suite.SPECINT.ipc": 0.9, "suite.PARSEC.ipc": 1.2,
            "suite.HPCC.ipc": 1.1,
        }))
        card = scorecard(registry, experiments=["fig3"])
        rows = {row["metric"]: row for row in card.to_dict()["checks"]}
        good = rows["suite.SPECINT.ipc < suite.PARSEC.ipc"]
        bad = rows["suite.PARSEC.ipc < suite.HPCC.ipc"]
        assert good["status"] == PASS and good["paper"] is None
        assert good["value"] == pytest.approx(0.3)
        assert bad["status"] == FAIL and bad["value"] == pytest.approx(-0.1)
        assert "margin > 0" in card.render()
        site = str(tmp_path / "site")
        render_site(build_model(str(tmp_path / "runs")), site)
        with open(os.path.join(site, "index.html"), encoding="utf-8") as page:
            index = page.read()
        assert "suite.PARSEC.ipc &lt; suite.HPCC.ipc" in index


EXPERIMENTS_MD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "EXPERIMENTS.md"
)
SCORECARD_HEADER = "| metric | paper | ours | band | status | source |"


def documented_scorecard_rows():
    """``(metric, paper, band, source)`` of every EXPERIMENTS.md scorecard row."""
    rows, in_table = [], False
    with open(EXPERIMENTS_MD, encoding="utf-8") as doc:
        for line in doc:
            line = line.rstrip("\n")
            if line == SCORECARD_HEADER:
                in_table = True
            elif in_table and line.startswith("|") and not line.startswith("|---"):
                metric, paper, _ours, band, _status, source = (
                    cell.strip() for cell in line.strip("|").split("|")
                )
                rows.append((metric.strip("`"), paper, band, source))
            elif not line.startswith("|"):
                in_table = False
    return rows


class TestExperimentsDoc:
    def test_scorecard_rows_quote_paper_anchors(self):
        # Each paper value, band and source EXPERIMENTS.md prints is the
        # anchor's own, and every anchor has its row.
        anchors = [
            (anchor.metric,
             "-" if anchor.paper_value is None else f"{anchor.paper_value:.3f}",
             anchor.band_label,
             anchor.source)
            for anchor in PAPER_ANCHORS
        ]
        assert sorted(documented_scorecard_rows()) == sorted(anchors)


class TestDiff:
    def test_identical_records_are_clean(self):
        a = make_record(metrics={"x": 1.0, "y": 2.0})
        b = make_record(metrics={"x": 1.0, "y": 2.0})
        result = diff_records(a, b)
        assert result.clean
        assert result.exit_code == 0

    def test_drift_beyond_threshold(self):
        a = make_record(metrics={"x": 1.0})
        b = make_record(metrics={"x": 1.1})
        result = diff_records(a, b, rel_threshold=0.05)
        assert [d.metric for d in result.drifted] == ["x"]
        assert result.exit_code == 1

    def test_drift_within_threshold_is_clean(self):
        a = make_record(metrics={"x": 1.0})
        b = make_record(metrics={"x": 1.001})
        assert diff_records(a, b, rel_threshold=0.01).exit_code == 0

    def test_missing_metric_wins_over_drift(self):
        a = make_record(metrics={"x": 1.0, "gone": 3.0})
        b = make_record(metrics={"x": 99.0})
        result = diff_records(a, b)
        assert result.exit_code == 2
        assert [d.metric for d in result.missing] == ["gone"]

    def test_zero_baseline_to_nonzero_counts_as_drift(self):
        a = make_record(metrics={"x": 0.0})
        b = make_record(metrics={"x": 0.5})
        assert diff_records(a, b).exit_code == 1


class TestScorecardAndHistory:
    def test_scorecard_names_missing_experiments(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        card = scorecard(registry)
        assert not card.checks
        assert "fig1" in card.missing_experiments
        assert not card.ok

    def test_scorecard_scores_latest_record(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.save(make_record("fig3", metrics={"bigdata.ipc": 1.30}))
        card = scorecard(registry, experiments=["fig3"])
        by_metric = {c.anchor.metric: c for c in card.checks}
        assert by_metric["bigdata.ipc"].status == PASS
        rendered = card.render()
        assert "bigdata.ipc" in rendered and "pass" in rendered

    def test_history_series_and_sparkline(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for day, value in (("01", 1.0), ("02", 2.0), ("03", 1.5)):
            record = make_record(metrics={"bigdata.ipc": value})
            record.created_at = f"2026-01-{day}T00:00:00Z"
            registry.save(record)
        result = history(registry, "fig3")
        assert result.series["bigdata.ipc"] == [1.0, 2.0, 1.5]
        assert len(sparkline([1.0, 2.0, 1.5])) == 3
        html = result.to_html()
        assert "<svg" in html and "bigdata.ipc" in html

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert len(set(sparkline([2.0, 2.0, 2.0]))) == 1


class TestCliVerbs:
    def _seed_registry(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        a = make_record(metrics={"bigdata.ipc": 1.30, "workload.X.ipc": 1.0})
        a.created_at = "2026-01-01T00:00:00Z"
        b = make_record(metrics={"bigdata.ipc": 1.30, "workload.X.ipc": 1.0})
        b.created_at = "2026-01-02T00:00:00Z"
        registry.save(a)
        registry.save(b)
        return registry, a, b

    def test_diff_clean_exit_zero(self, tmp_path, capsys):
        self._seed_registry(tmp_path)
        code = main(["--runs-dir", str(tmp_path), "diff", "fig3~1", "fig3"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_drift_exit_one(self, tmp_path, capsys):
        registry, _, _ = self._seed_registry(tmp_path)
        drifted = make_record(metrics={"bigdata.ipc": 2.0,
                                       "workload.X.ipc": 1.0})
        drifted.created_at = "2026-01-03T00:00:00Z"
        registry.save(drifted)
        code = main(["--runs-dir", str(tmp_path), "diff", "fig3~2", "fig3"])
        assert code == 1
        assert "bigdata.ipc" in capsys.readouterr().out

    def test_diff_missing_metric_exit_two(self, tmp_path, capsys):
        registry, _, _ = self._seed_registry(tmp_path)
        dropped = make_record(metrics={"bigdata.ipc": 1.30})
        dropped.created_at = "2026-01-03T00:00:00Z"
        registry.save(dropped)
        code = main(["--runs-dir", str(tmp_path), "diff", "fig3~2", "fig3"])
        assert code == 2

    def test_diff_unknown_ref_exit_three(self, tmp_path, capsys):
        code = main(["--runs-dir", str(tmp_path), "diff", "a", "b"])
        assert code == 3

    def test_diff_json(self, tmp_path, capsys):
        self._seed_registry(tmp_path)
        code = main(
            ["--runs-dir", str(tmp_path), "diff", "fig3~1", "fig3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["compared"] == 2

    def test_report_json_and_strict(self, tmp_path, capsys):
        registry = RunRegistry(str(tmp_path))
        registry.save(make_record("fig3", metrics={"bigdata.ipc": 1.30}))
        code = main(
            ["--runs-dir", str(tmp_path), "report",
             "--experiments", "fig3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {c["metric"]: c["status"] for c in payload["checks"]}
        assert statuses["bigdata.ipc"] == "pass"
        # strict mode fails when anchored experiments have no records
        assert main(["--runs-dir", str(tmp_path), "report", "--strict"]) == 1

    def test_history_cli_json_and_html(self, tmp_path, capsys):
        self._seed_registry(tmp_path)
        assert main(
            ["--runs-dir", str(tmp_path), "history", "fig3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"]["bigdata.ipc"] == [1.3, 1.3]
        out = tmp_path / "hist.html"
        assert main(
            ["--runs-dir", str(tmp_path), "history", "fig3",
             "--html", "--out", str(out)]
        ) == 0
        assert "<svg" in out.read_text()


class TestEndToEndDeterminism:
    def test_identical_seed_reruns_diff_clean(self, tmp_path, capsys):
        """Same seed + scale => identical metric payloads (timestamps aside)."""
        runs = str(tmp_path / "runs")
        for _ in range(2):
            assert main(
                ["--scale", "0.2", "--runs-dir", runs,
                 "run", "H-Grep", "--seed", "5"]
            ) == 0
        capsys.readouterr()
        assert main(
            ["--runs-dir", runs, "diff", "run.H-Grep~1", "run.H-Grep"]
        ) == 0
        records = RunRegistry(runs).records("run.H-Grep")
        assert len(records) == 2
        assert records[0].metrics == records[1].metrics
        assert records[0].run_id != records[1].run_id

    def test_perturbed_platform_rerun_drifts(self, tmp_path, capsys):
        """A perturbed platform parameter must trip the regression gate."""
        runs = str(tmp_path / "runs")
        assert main(
            ["--scale", "0.2", "--runs-dir", runs,
             "run", "H-Grep", "--seed", "5"]
        ) == 0
        assert main(
            ["--scale", "0.2", "--runs-dir", runs,
             "run", "H-Grep", "--seed", "5", "--platform", "d510"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--runs-dir", runs, "diff", "run.H-Grep~1", "run.H-Grep"]
        )
        assert code != 0

    def test_no_record_suppresses_registry_write(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main(
            ["--scale", "0.2", "--runs-dir", runs, "--no-record",
             "run", "H-Grep"]
        ) == 0
        assert not os.path.isdir(runs) or not os.listdir(runs)
