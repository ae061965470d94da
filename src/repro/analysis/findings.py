"""Finding and rule-documentation records shared by the lint pass.

A :class:`Finding` is one rule violation at one source location; a
:class:`RuleDoc` is one rule's entry in ``repro lint --rules``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Finding severities.  ``error`` findings are determinism hazards that
#: can move a metric; ``warning`` findings are hygiene (typed errors,
#: dead imports, module state) that make hazards easier to introduce.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    module: str
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""
    fix_hint: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text.strip(),
            "fix_hint": self.fix_hint,
        }

    def render(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )
        if self.fix_hint:
            text += f"\n    fix: {self.fix_hint}"
        if self.line_text.strip():
            text += f"\n    > {self.line_text.strip()}"
        return text


@dataclass(frozen=True)
class RuleDoc:
    """Human documentation for one rule, shown by ``repro lint --rules``."""

    rule_id: str
    severity: str
    title: str
    rationale: str
    fix_hint: str
    exempt_modules: tuple = field(default=())
    only_modules: tuple = field(default=())

    def render(self) -> str:
        lines = [f"{self.rule_id} [{self.severity}] {self.title}"]
        lines.append(f"    why: {self.rationale}")
        lines.append(f"    fix: {self.fix_hint}")
        if self.exempt_modules:
            lines.append(
                "    exempt modules: " + ", ".join(self.exempt_modules)
            )
        if self.only_modules:
            lines.append(
                "    applies only to: " + ", ".join(self.only_modules)
            )
        lines.append(
            f"    suppress one line with: # repro: allow[{self.rule_id}]"
        )
        return "\n".join(lines)
