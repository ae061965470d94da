"""Tests for the determinism sanitizer (``repro.analysis`` + ``repro lint``).

Three layers: per-rule fixtures (each snippet triggers its rule exactly
once and a clean twin triggers nothing), the baseline/suppression
machinery, and the CLI acceptance criteria — reintroducing the PR-4
shuffle bug or an unseeded Random() must fail the gate with the right
rule ID in ``--json`` output.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    Finding,
    baseline_counts,
    canonical_record_bytes,
    default_baseline_path,
    lint_file,
    lint_tree,
    load_baseline,
    new_findings,
    rule_catalog,
    save_baseline,
)
from repro.analysis.baseline import stale_entries
from repro.analysis.dynamic import divergent_paths
from repro.cli import main
from repro.errors import LintBaselineError, SimulationError


def lint_source(tmp_path, source, module="repro.fixture"):
    """Lint one dedented snippet under a chosen module name."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    return lint_file(str(path), module)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# --------------------------------------------------------------------------
# One fixture per rule: exactly one finding each.
# --------------------------------------------------------------------------

class TestRuleFixtures:
    def test_det001_builtin_hash(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n
        """)
        assert rule_ids(findings) == ["DET001"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_det001_allows_stable_hash_wrapper_and_numeric(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def stable_hash(key):
                return hash(key)

            CONSTANT = hash(42)
        """)
        assert findings == []

    def test_det001_resolves_aliased_import(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            from builtins import hash as h

            def partition(key, n):
                return h(key) % n
        """)
        assert rule_ids(findings) == ["DET001"]

    def test_det002_unseeded_random(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import random

            def make_rng():
                return random.Random()
        """)
        assert rule_ids(findings) == ["DET002"]

    def test_det002_global_stream(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            from random import shuffle

            def scramble(items):
                shuffle(items)
        """)
        assert rule_ids(findings) == ["DET002"]

    def test_det002_seeded_random_is_clean(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """)
        assert findings == []

    def test_det003_wall_clock(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import time

            def stamp():
                return time.time()
        """)
        assert rule_ids(findings) == ["DET003"]

    def test_det003_exempt_in_quarantined_module(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import time

            def stamp():
                return time.time()
        """, module="repro.exec.supervisor")
        assert findings == []

    def test_det003_fires_in_simulated_clock_telemetry(self, tmp_path):
        # repro.obs.metrics samples the simulated clock only, so it is
        # not quarantined: a wall-clock read there must fire.
        findings, _ = lint_source(tmp_path, """
            import time

            def stamp():
                return time.time()
        """, module="repro.obs.metrics")
        assert rule_ids(findings) == ["DET003"]

    def test_det003_quarantine_covers_observability_modules(self, tmp_path):
        for module in (
            "repro.obs.hostprof",
            "repro.obs.stream",
            "repro.obs.perf",
            "repro.exec.tracing",
        ):
            findings, _ = lint_source(tmp_path, """
                import time

                def stamp():
                    return time.time()
            """, module=module)
            assert findings == [], module

    def test_det003_observatory_render_path_stays_clock_free(self, tmp_path):
        # Only the bench harness (repro.obs.perf) may read the clock;
        # the aggregation and rendering layers must stay deterministic,
        # so DET003 still fires there.
        for module in (
            "repro.obs.observatory",
            "repro.obs.dashboard",
            "repro.obs.stats",
        ):
            findings, _ = lint_source(tmp_path, """
                import time

                def stamp():
                    return time.time()
            """, module=module)
            assert rule_ids(findings) == ["DET003"], module

    def test_det003_exec_quarantine_is_not_blanket(self, tmp_path):
        # Only the supervisor/pool/tracing side of repro.exec may touch
        # wall-clock; cells, checkpoint and merge produce record bytes,
        # so a clock read there must still fire.
        findings, _ = lint_source(tmp_path, """
            import time

            def stamp():
                return time.time()
        """, module="repro.exec.cells")
        assert rule_ids(findings) == ["DET003"]

    def test_det004_set_iteration_into_list(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def collect(items):
                seen = set(items)
                out = []
                for item in seen:
                    out.append(item)
                return out
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_det004_list_of_set_emits_order(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def emit(a, b):
                return list(set(a) | set(b))
        """)
        assert rule_ids(findings) == ["DET004"]

    def test_det004_sorted_iteration_is_clean(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def collect(items):
                seen = set(items)
                return [item for item in sorted(seen)]
        """)
        assert findings == []

    def test_det004_scope_keyed_no_cross_function_taint(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def builds_a_set():
                rules = {1, 2, 3}
                return sorted(rules)

            def unrelated(rules):
                return list(rules)
        """)
        assert findings == []

    def test_det005_unsorted_listdir(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import os

            def names(root):
                return [n for n in os.listdir(root)]
        """)
        assert rule_ids(findings) == ["DET005"]

    def test_det005_sorted_listing_is_clean(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import os

            def names(root):
                return sorted(n for n in os.listdir(root) if n.endswith(".json"))
        """)
        assert findings == []

    def test_pur001_module_state_in_engine_module(self, tmp_path):
        source = """
            CACHE = {}

            def remember(key, value):
                CACHE[key] = value
        """
        findings, _ = lint_source(tmp_path, source, module="repro.cluster.state")
        assert rule_ids(findings) == ["PUR001"]
        # The same code outside the engine packages is not PUR001's business.
        clean, _ = lint_source(tmp_path, source, module="repro.obs.state")
        assert clean == []

    def test_err001_bare_except(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
        """)
        assert rule_ids(findings) == ["ERR001"]

    def test_err001_raise_runtimeerror(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def fail():
                raise RuntimeError("anonymous failure")
        """)
        assert rule_ids(findings) == ["ERR001"]

    def test_imp001_unused_import(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import json
            import os

            def cwd():
                return os.getcwd()
        """)
        assert rule_ids(findings) == ["IMP001"]
        assert "json" in findings[0].message

    def test_syn000_unparseable_file(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def broken(:
                pass
        """)
        assert rule_ids(findings) == ["SYN000"]

    def test_every_rule_documented(self):
        docs = {doc.rule_id for doc in rule_catalog()}
        assert docs == {rule.rule_id for rule in ALL_RULES}


# --------------------------------------------------------------------------
# Suppression + baseline machinery.
# --------------------------------------------------------------------------

class TestSuppressionAndBaseline:
    def test_inline_suppression(self, tmp_path):
        findings, suppressed = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n  # repro: allow[DET001]
        """)
        assert findings == []
        assert suppressed == 1

    def test_suppression_comment_on_preceding_line(self, tmp_path):
        findings, suppressed = lint_source(tmp_path, """
            def partition(key, n):
                # repro: allow[DET001]
                return hash(key) % n
        """)
        assert findings == []
        assert suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        findings, suppressed = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n  # repro: allow[DET002]
        """)
        assert rule_ids(findings) == ["DET001"]
        assert suppressed == 0

    def test_baseline_round_trip(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n
        """)
        path = tmp_path / "baseline.json"
        assert save_baseline(str(path), findings) == 1
        baseline = load_baseline(str(path))
        assert baseline == baseline_counts(findings)
        assert new_findings(findings, baseline) == []

    def test_new_findings_are_multiset_extras(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def a(key):
                return hash(key)

            def b(key):
                return hash(key)
        """)
        assert len(findings) == 2
        baseline = baseline_counts(findings[:1])
        # Both findings share a key (same stripped line text); only the
        # extra copy beyond the baselined count is new.
        fresh = new_findings(findings, baseline)
        assert len(fresh) == 1

    def test_baseline_key_survives_line_shift(self, tmp_path):
        before, _ = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n
        """)
        after, _ = lint_source(tmp_path, """
            # an unrelated comment pushes everything down


            def partition(key, n):
                return hash(key) % n
        """)
        assert before[0].line != after[0].line
        assert new_findings(after, baseline_counts(before)) == []

    def test_stale_entries_reported(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def partition(key, n):
                return hash(key) % n
        """)
        baseline = baseline_counts(findings)
        assert stale_entries([], baseline) == list(baseline)

    def test_load_baseline_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(LintBaselineError):
            load_baseline(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintBaselineError):
            load_baseline(str(bad))
        wrong_version = tmp_path / "version.json"
        wrong_version.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(LintBaselineError):
            load_baseline(str(wrong_version))


# --------------------------------------------------------------------------
# The live tree and the CLI gate.
# --------------------------------------------------------------------------

class TestLiveTreeAndCli:
    def test_live_tree_has_no_unbaselined_findings(self):
        report = lint_tree()
        baseline_path = default_baseline_path()
        assert baseline_path is not None, "tools/lint_baseline.json missing"
        baseline = load_baseline(baseline_path)
        fresh = new_findings(report.findings, baseline)
        assert fresh == [], "\n".join(f.render() for f in fresh)
        assert report.files_checked > 50

    def test_cli_lint_clean_tree_exits_zero(self, capsys):
        baseline_path = default_baseline_path()
        assert main(["lint", "--baseline", baseline_path]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_cli_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def _write_buggy_tree(self, tmp_path):
        """A fixture package reintroducing the PR-4 bug class."""
        pkg = tmp_path / "fixtures"
        pkg.mkdir()
        (pkg / "shuffle.py").write_text(textwrap.dedent("""
            import random


            def partition(key, n):
                return hash(key) % n


            def scramble(items):
                rng = random.Random()
                random.shuffle(items)
                return rng
        """))
        return pkg

    def test_cli_gate_fails_on_reintroduced_bugs(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        save_baseline(str(baseline), [])
        code = main(
            ["lint", str(pkg), "--baseline", str(baseline), "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        fresh = [entry["rule"] for entry in payload["new"]]
        assert "DET001" in fresh
        assert "DET002" in fresh
        assert payload["ok"] is False

    def test_cli_update_baseline_then_clean(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(pkg), "--baseline", str(baseline),
             "--update-baseline"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["lint", str(pkg), "--baseline", str(baseline)]
        ) == 0
        assert "0 new" in capsys.readouterr().out

    def test_cli_missing_baseline_is_usage_error(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path)
        code = main(
            ["lint", str(pkg), "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2


# --------------------------------------------------------------------------
# Dynamic cross-check plumbing (record canonicalisation + diffing).
# --------------------------------------------------------------------------

class TestDynamicPlumbing:
    RECORD = {
        "experiment": "run.H-WordCount",
        "metrics": {"ipc": 1.25, "system.elapsed": 0.4},
        "run_id": "abc-123",
        "created_at": "2026-01-01T00:00:00Z",
        "timings": {"wall": 1.9},
    }

    def test_canonical_bytes_strip_volatile_fields(self):
        other = dict(self.RECORD, run_id="xyz", created_at="2030-12-31",
                     timings={"wall": 99.0})
        assert canonical_record_bytes(self.RECORD) == canonical_record_bytes(
            other
        )

    def test_canonical_bytes_see_metric_changes(self):
        other = dict(self.RECORD, metrics={"ipc": 1.26, "system.elapsed": 0.4})
        assert canonical_record_bytes(self.RECORD) != canonical_record_bytes(
            other
        )

    def test_divergent_paths_are_dotted_and_sorted(self):
        a = {"metrics": {"ipc": 1.0, "gflops": 2.0}, "kind": "run"}
        b = {"metrics": {"ipc": 1.5, "gflops": 2.0}, "extra": True}
        assert divergent_paths(a, b) == ["extra", "kind", "metrics.ipc"]


# --------------------------------------------------------------------------
# Regression tests for lint-driven fixes (satellite: fix, don't baseline).
# --------------------------------------------------------------------------

class TestLintDrivenFixes:
    def test_tracer_double_end_raises_typed_error(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        span = tracer.begin("phase", "test")
        tracer.end(span)
        with pytest.raises(SimulationError):
            tracer.end(span)

    def test_workload_registry_duplicate_check_is_typed(self):
        # The registry's integrity check raises the typed hierarchy; the
        # live registry must simply import and pass it.
        from repro.workloads.registry import ALL_WORKLOADS, MPI_WORKLOADS

        catalog = ALL_WORKLOADS + MPI_WORKLOADS
        assert len({w.workload_id for w in catalog}) == len(catalog)

    def test_bfs_frontier_order_is_deterministic(self):
        # extra.py's BFS used to iterate raw sets; the fix sorts the
        # frontier, so repeated runs agree exactly.
        from repro.workloads.registry import workload

        definition = workload("S-BFS")
        first = definition.runner(scale=0.2, seed=3)
        second = definition.runner(scale=0.2, seed=3)
        assert first.output == second.output
        assert (
            first.meter.kernel_mix().total == second.meter.kernel_mix().total
        )


class TestSwallowedIORule:
    MODULE = "repro.fsio"  # inside the durable-write tier

    def test_err002_swallowed_oserror(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def write(path):
                try:
                    open(path, "w").write("x")
                except OSError:
                    pass
        """, module=self.MODULE)
        assert "ERR002" in rule_ids(findings)

    def test_err002_broad_tuple_member(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def write(path):
                try:
                    open(path, "w").write("x")
                except (ValueError, Exception):
                    return None
        """, module=self.MODULE)
        assert "ERR002" in rule_ids(findings)

    def test_err002_clean_when_reraised(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def write(path):
                try:
                    open(path, "w").write("x")
                except OSError:
                    raise
        """, module=self.MODULE)
        assert "ERR002" not in rule_ids(findings)

    def test_err002_clean_when_error_is_used(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import sys

            def write(path):
                try:
                    open(path, "w").write("x")
                except OSError as error:
                    sys.stderr.write(str(error))
        """, module=self.MODULE)
        assert "ERR002" not in rule_ids(findings)

    def test_err002_narrow_exception_is_fine(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def remove(path):
                import os
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        """, module=self.MODULE)
        assert "ERR002" not in rule_ids(findings)

    def test_err002_scoped_to_durable_modules(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            def write(path):
                try:
                    open(path, "w").write("x")
                except OSError:
                    pass
        """, module="repro.analysis.sensitivity")
        assert "ERR002" not in rule_ids(findings)

    def test_err002_suppressed_by_allow_comment(self, tmp_path):
        findings, suppressed = lint_source(tmp_path, """
            def probe(path):
                try:
                    return open(path).read()
                except OSError:  # repro: allow[ERR002] — read-path probe
                    return None
        """, module=self.MODULE)
        assert "ERR002" not in rule_ids(findings)
        assert suppressed >= 1
