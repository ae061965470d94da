"""Typed exceptions for the simulation substrate.

The hierarchy exists so callers can tell *what kind* of thing went
wrong without parsing messages:

- :class:`SimulationError` — the discrete-event substrate itself was
  misused or reached an impossible state (double-triggered event,
  release without request).  Subclasses ``RuntimeError`` so code (and
  tests) written against the pre-typed errors keep working.
- :class:`InvariantViolation` — a runtime invariant the chaos auditor
  (or the scheduler's own drain check) watches over was broken: work
  was lost or double-counted, a resource leaked, the clock ran
  backwards.  Carries the structured :class:`repro.chaos.audit.Violation`
  records when raised by the auditor.
- :class:`FaultPlanError` — a :class:`~repro.cluster.faults.FaultPlan`
  is malformed (negative times, overlapping crash windows, unknown
  nodes).  Also subclasses ``ValueError`` because plan validation is
  input validation.
- :class:`JobFailedError` — the recovery policy gave up on a job (or
  forbids recovery altogether, the MPI/Impala behaviour).  Re-homed
  here from ``repro.stacks.scheduler``, which still re-exports it.
- :class:`UsageError` — the *user's input* was wrong (unknown workload
  id, invalid ``--seed``/``--scale``, missing ``--replay`` file).  The
  CLI maps the whole family to a one-line message and exit code 2, so
  bad input never produces a traceback.
- :class:`ExecError` — the parallel sweep executor could not complete
  or trust a sweep: a checkpoint is corrupt or belongs to a different
  configuration (:class:`CheckpointError`), another live process holds
  the sweep's advisory lock (:class:`SweepLockError`), a cell result
  failed its
  provenance-hash validation at merge time
  (:class:`CellIntegrityError`), or the per-worker span files of a
  sweep could not be merged into one trace
  (:class:`TraceMergeError`).
- :class:`ProfilerError` — the host-side hot-path profiler
  (``repro profile``) could not complete: profiling machinery failed
  or produced an empty sample.  Distinct from :class:`LintError`
  because an unprofilable run is an observability failure, not a
  determinism hazard.
- :class:`LintError` — the determinism sanitizer (``repro lint``)
  could not complete an analysis: an unreadable file, a failed
  subprocess probe.  :class:`LintBaselineError` is the usage-error
  side (exit 2): a ``--baseline`` file that is missing, unreadable or
  malformed.

Every error carries an optional ``context`` dict of diagnostic
key/values (sim time, node, wave, task indices) rendered into ``str()``
so failures name their circumstances.
"""

from __future__ import annotations

from typing import Optional


class SimulationError(RuntimeError):
    """The discrete-event substrate was misused or is inconsistent."""

    def __init__(self, message: str, **context):
        self.context = context
        if context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
            message = f"{message} [{detail}]"
        super().__init__(message)


class InvariantViolation(SimulationError):
    """A runtime invariant over the simulation state was broken.

    ``violations`` holds the auditor's structured records when the
    auditor raised this; a single-condition violation (the scheduler's
    stranded-wave check) leaves it empty and relies on ``context``.
    """

    def __init__(self, message: str, violations: Optional[list] = None, **context):
        super().__init__(message, **context)
        self.violations = list(violations) if violations else []


class FaultPlanError(SimulationError, ValueError):
    """A fault plan is malformed; refuse it rather than misbehave."""


class JobFailedError(SimulationError):
    """The recovery policy gave up (or forbids recovery altogether)."""


class UsageError(Exception):
    """The user's input was wrong; report one line and exit 2.

    ``exit_code`` is what the CLI returns for the whole family; the
    message alone must be enough to correct the invocation.
    """

    exit_code = 2

    def __init__(self, message: str, **context):
        self.context = context
        if context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
            message = f"{message} [{detail}]"
        self._message = message
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self._message


class UnknownWorkloadError(UsageError, KeyError):
    """A workload id is not in the catalog.

    Also a ``KeyError`` so pre-typed lookup callers keep working.
    """


class InvalidParameterError(UsageError, ValueError):
    """A CLI parameter value is out of range or malformed."""


class ReplayFileError(UsageError):
    """A ``--replay`` path is missing or unreadable."""


class ExecError(SimulationError):
    """The parallel sweep executor failed in a way retry cannot fix."""


class CheckpointError(ExecError):
    """A sweep checkpoint is corrupt or from a different sweep config."""


class SweepLockError(CheckpointError):
    """Another live process holds the sweep's advisory lock.

    Raised instead of interleaving journal appends: two concurrent
    resumes of the same sweep would corrupt the checkpoint.  Stale
    locks (holder pid no longer alive) are broken automatically and do
    not raise.
    """


class CellIntegrityError(ExecError):
    """A cell result's provenance hash does not match its payload."""


class TraceMergeError(ExecError):
    """A sweep's per-worker span files could not be merged."""


class ProfilerError(SimulationError):
    """The host-side hot-path profiler could not complete."""


class PerfError(SimulationError):
    """The wall-clock bench harness could not produce a trustworthy
    sample: an unknown target, invalid rep counts, or a target whose
    deterministic payload differed between reps (timing a
    nondeterministic function measures nothing)."""


class BudgetManifestError(UsageError):
    """A perf-budget manifest is missing, unreadable or malformed."""


class LintError(SimulationError):
    """The determinism sanitizer could not complete its analysis."""


class LintBaselineError(UsageError):
    """A lint baseline file is missing, unreadable or malformed."""
