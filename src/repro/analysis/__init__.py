"""Static determinism/purity analysis for the simulator's own source.

The metrics pipeline promises bit-reproducibility: anchors, ``repro
diff``'s regression gate and the parallel sweep's merge validation all
assume that a fixed (seed, scale, platform) cell produces byte-identical
records in any process.  Both of the worst bugs so far were violations
of exactly that promise, found late and at runtime:

- the PYTHONHASHSEED-salted builtin ``hash()`` in shuffle partitioning
  (fixed in the run-registry PR by :func:`repro.stacks.base.stable_hash`);
- the primary/speculative double-commit race (fixed in the chaos PR).

``repro.analysis`` moves that bug class to the source level: an AST
lint pass (stdlib :mod:`ast`, no dependencies) over ``src/repro`` with
a small catalogue of determinism rules (:mod:`repro.analysis.rules`),
a per-line suppression syntax (``# repro: allow[DET001]``) as the one
way to accept a reviewed finding, and a dynamic cross-check that runs
one fixed-seed workload under two ``PYTHONHASHSEED`` values and diffs
the registry records byte-for-byte (:mod:`repro.analysis.dynamic`).

Surfaced as ``repro lint`` (and ``repro lint --dynamic``) plus a CI
gate that fails on any finding without an inline ``allow`` comment.
"""

from repro.analysis.dynamic import (
    CrossCheckResult,
    canonical_record_bytes,
    hashseed_crosscheck,
)
from repro.analysis.engine import (
    LintReport,
    default_lint_root,
    lint_file,
    lint_tree,
)
from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "ERROR",
    "WARNING",
    "CrossCheckResult",
    "Finding",
    "LintReport",
    "canonical_record_bytes",
    "default_lint_root",
    "hashseed_crosscheck",
    "lint_file",
    "lint_tree",
    "render_json",
    "render_text",
    "rule_catalog",
]
