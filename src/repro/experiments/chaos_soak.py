"""Chaos soak: seeded fault campaigns with full invariant auditing.

Where ``fault_resilience`` demonstrates *stack* behaviour under one
crash, the soak interrogates the *simulator*: every campaign seed
derives a fresh scenario per workload x stack cell (crash storms,
rolling degradations, partition flaps, crashes landing inside recovery
windows) and an :class:`~repro.chaos.InvariantAuditor` watches each run
from the inside.  Jobs may recover or abort — both are legitimate —
but conservation laws, leak-freedom and clock monotonicity must hold
for every seed, which is what makes the paper's fault-injected numbers
trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.chaos import CampaignResult, run_campaign
from repro.experiments.runner import ExperimentContext
from repro.report.tables import render_table

#: Campaign seeds per soak (the CLI's ``--seeds`` overrides this).
DEFAULT_SEEDS = 5

#: The default soak sweeps two workloads so the experiment stays
#: interactive; ``repro chaos`` can widen to the full matrix.
DEFAULT_WORKLOADS = ("wordcount", "grep")


@dataclass
class ChaosSoakResult:
    """Verdicts for every campaign in one soak."""

    scale: float
    campaigns: List[CampaignResult] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(campaign.clean for campaign in self.campaigns)

    @property
    def n_cases(self) -> int:
        return sum(len(campaign.cases) for campaign in self.campaigns)

    @property
    def n_violations(self) -> int:
        return sum(
            len(case.violations)
            for campaign in self.campaigns
            for case in campaign.cases
        )

    def fidelity_metrics(self) -> dict:
        """Registry metrics: per-campaign verdicts + soak summary."""
        metrics = {}
        for campaign in self.campaigns:
            outcomes = [case.outcome for case in campaign.cases]
            prefix = f"campaign.{campaign.seed}"
            metrics[f"{prefix}.cases"] = float(len(campaign.cases))
            metrics[f"{prefix}.recovered"] = float(
                outcomes.count("recovered")
            )
            metrics[f"{prefix}.aborted"] = float(outcomes.count("aborted"))
            metrics[f"{prefix}.violations"] = float(
                sum(len(case.violations) for case in campaign.cases)
            )
        metrics["summary.cases"] = float(self.n_cases)
        metrics["summary.violations"] = float(self.n_violations)
        metrics["summary.clean"] = float(self.clean)
        return metrics

    def to_dict(self) -> dict:
        """Machine-readable form (``repro chaos --json``)."""
        return {
            "scale": self.scale,
            "clean": self.clean,
            "cases": self.n_cases,
            "violations": self.n_violations,
            "campaigns": [campaign.to_dict() for campaign in self.campaigns],
        }

    def render(self) -> str:
        rows = []
        for campaign in self.campaigns:
            outcomes = [case.outcome for case in campaign.cases]
            scenarios = sorted({case.case.scenario for case in campaign.cases})
            rows.append(
                [
                    campaign.seed,
                    len(campaign.cases),
                    outcomes.count("recovered"),
                    outcomes.count("aborted"),
                    sum(len(case.violations) for case in campaign.cases),
                    ", ".join(scenarios),
                ]
            )
        table = render_table(
            ["seed", "cases", "recovered", "aborted", "violations",
             "scenarios"],
            rows,
            title=f"Chaos soak — seeded fault campaigns (scale {self.scale})",
        )
        if self.clean:
            verdict = (
                f"\nall {self.n_cases} audited cases clean: conservation, "
                f"leak and clock invariants held under every campaign."
            )
        else:
            dirty = [
                f"seed {campaign.seed} {case.case.workload}/{case.case.stack}"
                f" ({case.violations[0].invariant})"
                for campaign in self.campaigns
                for case in campaign.cases
                if not case.clean
            ]
            verdict = (
                f"\n{self.n_violations} INVARIANT VIOLATION(S): "
                + "; ".join(dirty)
            )
        return table + verdict


def run(
    context: ExperimentContext,
    seeds: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    stacks: Optional[Sequence[str]] = None,
) -> ChaosSoakResult:
    """Run ``seeds`` campaigns starting at ``context.seed``."""
    n_seeds = seeds if seeds is not None else DEFAULT_SEEDS
    chosen = workloads if workloads is not None else DEFAULT_WORKLOADS
    result = ChaosSoakResult(scale=context.scale)
    for seed in range(context.seed, context.seed + n_seeds):
        result.campaigns.append(
            run_campaign(
                seed, workloads=chosen, stacks=stacks, scale=context.scale,
            )
        )
    return result
