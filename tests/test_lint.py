"""Tests for the determinism sanitizer (``repro.analysis`` + ``repro lint``).

Three layers: per-rule fixtures (each snippet triggers its rule exactly
once and a clean twin triggers nothing), inline suppression (the one
way to accept a reviewed finding), and the CLI acceptance criteria:
reintroducing the salted-hash shuffle bug or an unseeded Random() must
fail the gate with the right rule ID in ``--json`` output.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    Finding,
    canonical_record_bytes,
    lint_file,
    lint_tree,
    rule_catalog,
)
from repro.analysis.dynamic import divergent_paths
from repro.cli import main
from repro.errors import SimulationError


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
            "repro.obs.perf",
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
        # so DET003 still fires there.  The span writer and the live
        # progress line take their times from the supervisor's records.
        for module in (
            "repro.obs.observatory",
            "repro.obs.dashboard",
            "repro.obs.stats",
            "repro.obs.stream",
            "repro.exec.tracing",
        ):
            findings, _ = lint_source(tmp_path, """
                import time

                def stamp():
                    return time.time()
            """, module=module)
            assert rule_ids(findings) == ["DET003"], module

    def test_det003_exec_quarantine_is_not_blanket(self, tmp_path):
        # Only the supervisor/pool side of repro.exec may touch
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
# Inline suppression.
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


# --------------------------------------------------------------------------
# The live tree and the CLI gate.
# --------------------------------------------------------------------------

class TestLiveTreeAndCli:
    def test_live_tree_has_no_findings(self):
        report = lint_tree()
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings)
        assert report.files_checked > 50

    def test_cli_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["ok"] is True

    def test_cli_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def _write_buggy_tree(self, tmp_path, allow=("", "")):
        """A fixture package reintroducing the salted-hash bug class.

        ``allow`` holds the trailing comments for the DET001 line and
        the DET002 lines.
        """
        hash_note, random_note = allow
        pkg = tmp_path / "fixtures"
        pkg.mkdir()
        (pkg / "shuffle.py").write_text(textwrap.dedent(f"""
            import random


            def partition(key, n):
                return hash(key) % n{hash_note}


            def scramble(items):
                rng = random.Random(){random_note}
                random.shuffle(items){random_note}
                return rng
        """))
        return pkg

    def test_cli_gate_fails_on_reintroduced_bugs(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path)
        assert main(["lint", str(pkg), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        found = [entry["rule"] for entry in payload["findings"]]
        assert "DET001" in found
        assert "DET002" in found
        assert payload["ok"] is False

    def test_cli_inline_allow_accepts_the_findings(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path, allow=(
            "  # repro: allow[DET001]", "  # repro: allow[DET002]"))
        assert main(["lint", str(pkg), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["suppressed"] == 3
        assert payload["ok"] is True

    def test_cli_baseline_flag_is_a_usage_error(self, tmp_path, capsys):
        pkg = self._write_buggy_tree(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", str(pkg), "--baseline", "x"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--baseline" in err
        assert "Traceback" not in err


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
