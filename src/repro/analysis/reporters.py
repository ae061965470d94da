"""Text and JSON renderers for lint results.

The text form is for humans at a terminal; the JSON form is what CI
consumes (``repro lint --json``) and what the acceptance tests assert
rule IDs against.
"""

from __future__ import annotations

from repro.analysis.engine import LintReport


def render_text(report: LintReport) -> str:
    """Human-readable findings + summary."""
    lines = [finding.render() for finding in report.findings]
    counts = report.by_rule()
    summary = (
        f"checked {report.files_checked} file(s): "
        f"{len(report.findings)} finding(s)"
    )
    if counts:
        summary += (
            " ("
            + ", ".join(f"{rule} x{n}" for rule, n in sorted(counts.items()))
            + ")"
        )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed inline"
    lines.append(summary)
    if report.findings:
        lines.append(
            "findings fail the build: fix them, or suppress a reviewed "
            "line with `# repro: allow[RULE]`"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> dict:
    """The machine-readable result ``repro lint --json`` emits."""
    return {
        "files_checked": report.files_checked,
        "rules_run": list(report.rules_run),
        "findings": [finding.to_dict() for finding in report.findings],
        "counts": report.by_rule(),
        "suppressed": report.suppressed,
        "ok": not report.findings,
    }
