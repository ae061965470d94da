"""Command-line interface: ``python -m repro <verb>``; ``--help`` lists the verbs.

Every verb is one row of :data:`VERBS`: its name, help, handler, own
arguments (``fig``, ``table`` and ``stacks`` share one ``--jobs``) and
the shared flags it takes (``--seed`` with the verb's default,
``--json``).  :func:`build_parser` and :func:`main` both read that
table, and each numeric flag carries its own range check, so bad input
is refused before any work starts.

At module level this file imports only the standard library and
:mod:`repro.errors`, so parsing (and ``--help``) loads no simulator
and no numpy.  Each handler and shared helper imports what it runs in
its own body, and ``fig``/``table`` import their experiment module at
dispatch (:data:`_FIGURES`, :data:`_TABLES`).  A new verb does the
same.  A counter spec names the cells ``--jobs`` primes and the
platforms its record carries, so this file does not.

Every metric-producing verb writes a versioned run record into the
registry directory (``.repro-runs/`` by default; ``--runs-dir`` or
``REPRO_RUNS_DIR`` moves it, ``--no-record`` suppresses it) — the
registry that ``report``/``diff``/``history``/``dash`` read.  All output
goes through :func:`_emit`, which saves the record *before* printing,
so a closed stdout (``| head``) never costs a measurement.

Exit codes: 0 success; 1 a failed gate (drift, regression, invariant
violation, quarantined sweep cells, failed campaign); 2 bad input — a
range-checked flag, unknown workload/target, malformed replay or
manifest — reported as one ``<ErrorType>: message`` line on stderr,
never a traceback; 3 a missing registry target (``diff``, ``fsck``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import (
    FaultPlanError,
    InvalidParameterError,
    InvariantViolation,
    LintError,
    TraceMergeError,
    UsageError,
)

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentContext
    from repro.obs.registry import RunRecord

#: figure -> (module under ``repro.experiments``, the spec in it, or
#: None for the module itself), imported when the figure is asked for.
_FIGURES = {
    "1": ("counter_figures", "FIG1"),
    "2": ("counter_figures", "FIG2"),
    "3": ("counter_figures", "FIG3"),
    "4": ("counter_figures", "FIG4"),
    "5": ("counter_figures", "FIG5"),
    "locality": ("fig6to9_locality", None),
}

_TABLES = {
    "1": ("table1_datasets", None),
    "2": ("table2_reduction", None),
    "4": ("counter_figures", "TABLE4"),
}


def _experiment_target(entry):
    """The spec or module one :data:`_FIGURES`/:data:`_TABLES` entry names."""
    module_name, owner = entry
    module = importlib.import_module(f"repro.experiments.{module_name}")
    return getattr(module, owner) if owner else module


def _spec_fields(target) -> dict:
    """The ``--jobs`` cells and record platforms ``target`` names, if any."""
    return {"cells": getattr(target, "cells", ()),
            "platforms": getattr(target, "platforms", None)}


# ---- output -----------------------------------------------------------------
def _emit(args, text: str, payload=None, record: RunRecord = None) -> None:
    """The one output path: save ``record``, then print JSON or ``text``.

    The record is saved first (unless ``--no-record``).  ``--json``
    prints ``payload`` — by default ``record.to_dict()``; a callable is
    called after the save, so it can name the run id — and falls back
    to ``text`` when there is neither.  Text mode ends with the
    ``recorded <run_id> -> <path>`` line.
    """
    path = ""
    if record is not None and not args.no_record:
        from repro.obs.registry import RunRegistry

        path = RunRegistry(args.runs_dir).save(record)
    if args.json and (payload is not None or record is not None):
        if payload is None:
            payload = record.to_dict()
        elif callable(payload):
            payload = payload()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(text)
    if path:
        print(f"\nrecorded {record.run_id} -> {path}")


def _record(args, experiment: str, kind: str, metrics, platforms=(),
            config=None, timings=None) -> RunRecord:
    """A run record stamped with this invocation's seed and scale."""
    from repro.obs.registry import RunRecord, build_provenance

    return RunRecord(
        experiment=experiment,
        kind=kind,
        metrics=metrics,
        provenance=build_provenance(
            experiment=experiment, seed=args.seed, scale=args.scale,
            platforms=list(platforms), config=config,
        ),
        timings=timings or {},
    )


# ---- the --jobs prime -------------------------------------------------------
def _prime_context(args, context: ExperimentContext, cells) -> None:
    """Characterize a verb's cells in ``--jobs`` worker processes first.

    Only engages for ``--jobs > 1``.  Nothing is checkpointed or
    traced: the primed context is bit-identical to one the in-process
    fill fills, and quarantined cells fall back to that fill.
    """
    if args.jobs <= 1:
        return
    outcome = context.prime(cells, jobs=args.jobs)
    if outcome.quarantined:
        print(
            f"warning: {len(outcome.quarantined)} sweep cell(s) "
            f"quarantined; they will be computed in-process:\n"
            f"{outcome.render_quarantine()}",
            file=sys.stderr,
        )


# ---- experiment verbs -------------------------------------------------------
def _experiment(args, name: str, run, *, cells=(), series: bool = False,
                render=None, payload=None, **record_fields) -> int:
    """context -> prime -> run -> render -> record, for one verb.

    ``cells`` are the ``(workload, platform)`` pairs ``--jobs`` may
    prime.  The text output ends with the record's paper-fidelity
    scorecard (the rows ``repro report`` prints for it), unless the
    experiment has no anchors.  ``payload`` maps the result to its
    ``--json`` document (default: the record).
    """
    from repro.experiments.runner import ExperimentContext
    from repro.obs.anchors import evaluate_record
    from repro.obs.report import Scorecard

    context = ExperimentContext(scale=args.scale, seed=args.seed)
    if cells:
        _prime_context(args, context, cells)
    result = run(context)
    record = context.make_record(
        name, result.fidelity_metrics(),
        series=result.to_dict() if series else None, **record_fields,
    )
    text = render(result) if render else result.render()
    checks = evaluate_record(record)
    if checks:
        text += "\n\n" + Scorecard(checks=checks).render()
    _emit(args, text, payload and payload(result), record)
    return 0


def _cmd_fig(args) -> int:
    figure = args.figure
    target = _experiment_target(_FIGURES[figure])
    return _experiment(
        args, "fig-locality" if figure == "locality" else f"fig{figure}",
        target.run, kind="figure", **_spec_fields(target),
    )


def _cmd_table(args) -> int:
    table = args.table
    target = _experiment_target(_TABLES[table])
    return _experiment(
        args, f"table{table}",
        (lambda _context: target.run()) if table == "1" else target.run,
        kind="table", **_spec_fields(target),
    )


def _check_reduce(args) -> None:
    from repro.workloads import ALL_WORKLOADS

    if not 1 <= args.k <= len(ALL_WORKLOADS):
        raise InvalidParameterError(
            f"--k must be in [1, {len(ALL_WORKLOADS)}] (the catalog size), "
            f"got {args.k!r}"
        )


def _cmd_reduce(args) -> int:
    from repro.experiments import table2_reduction

    return _experiment(
        args, "reduce",
        lambda context: table2_reduction.run(context, k=args.k),
        series=True, config={"k": args.k},
        render=lambda result: "\n".join(
            f"{rep:26s} represents {len(result.reduction.clusters[rep])}"
            for rep in result.reduction.representatives
        ),
    )


def _cmd_stacks(args) -> int:
    from repro.experiments.counter_figures import STACKS

    return _experiment(args, "stacks", STACKS.run, series=True,
                       **_spec_fields(STACKS))


def _cmd_system(args) -> int:
    from repro.experiments import system_behaviors

    return _experiment(args, "system", system_behaviors.run, series=True)


def _cmd_faults(args) -> int:
    from repro.experiments import fault_resilience

    return _experiment(args, "faults", fault_resilience.run, series=True,
                       kind="faults", payload=lambda result: result.to_dict())


# ---- single-workload verbs --------------------------------------------------
def _cmd_list(args) -> int:
    from repro.workloads import ALL_WORKLOADS, MPI_WORKLOADS

    lines = [f"{'workload':26s} {'stack':8s} {'dataset':16s} "
             f"{'category':22s} rep"]
    for definition in ALL_WORKLOADS + MPI_WORKLOADS:
        marker = f"x{definition.represents}" if definition.representative else ""
        lines.append(
            f"{definition.workload_id:26s} {definition.stack:8s} "
            f"{definition.dataset:16s} {definition.category.value:22s} {marker}"
        )
    lines.append(f"\n{len(ALL_WORKLOADS)} catalog workloads + "
                 f"{len(MPI_WORKLOADS)} MPI versions")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_run(args) -> int:
    from repro.cluster.cluster import Cluster
    from repro.exec.cells import platform_for
    from repro.uarch.counters import characterization_seed, characterize
    from repro.workloads import workload

    definition = workload(args.workload)
    platform = platform_for(args.platform)
    print(f"running {definition.workload_id} ({definition.description}) ...",
          file=sys.stderr)
    result = definition.runner(scale=args.scale, seed=args.seed,
                               cluster=Cluster() if args.cluster else None)
    counters = characterize(result.profile, platform,
                            seed=characterization_seed(args.seed))
    metrics = dict(counters.metric_dict())
    if result.system is not None:
        for name, value in result.system.to_dict().items():
            metrics[f"system.{name}"] = float(value)
    record = _record(args, f"run.{definition.workload_id}", "run", metrics,
                     [platform.name])
    _emit(
        args,
        "\n".join([f"platform: {platform.name}"] + [
            f"  {name:26s} {value:12.4f}" for name, value in metrics.items()
        ]),
        lambda: {
            "workload": definition.workload_id,
            "platform": platform.name,
            "scale": args.scale,
            "seed": args.seed,
            "run_id": record.run_id,
            "metrics": metrics,
        },
        record,
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.cluster.cluster import Cluster
    from repro.cluster.events import Simulation
    from repro.obs.export import render_trace_summary, write_chrome_trace
    from repro.obs.tracer import Tracer
    from repro.workloads import workload

    definition = workload(args.workload)
    tracer = Tracer(sample_interval=args.sample_interval,
                    lane=f"repro {definition.workload_id}")
    print(f"tracing {definition.workload_id} ({definition.description}) ...",
          file=sys.stderr)
    definition.runner(scale=args.scale, cluster=Cluster(
        sim=Simulation(tracer=tracer)), seed=args.seed)
    n_events = len(write_chrome_trace(tracer.records, args.out)["traceEvents"])
    # Span counts and simulated durations are deterministic for a fixed
    # seed/scale, so the trace summary is a legitimate registry metric.
    metrics = {"trace.events": float(n_events)}
    by_category = {}
    for span in tracer.of_kind("span"):
        bucket = by_category.setdefault(span.cat, [0, 0.0])
        bucket[0] += 1
        bucket[1] += span.duration
    for category, (count, seconds) in sorted(by_category.items()):
        metrics[f"trace.{category}.spans"] = float(count)
        metrics[f"trace.{category}.seconds"] = seconds
    _emit(
        args,
        f"{render_trace_summary(tracer.records)}\n\nwrote {n_events} trace "
        f"events to {args.out} — load it in Perfetto (ui.perfetto.dev) or "
        f"chrome://tracing",
        record=_record(args, f"trace.{definition.workload_id}", "trace",
                       metrics),
    )
    return 0


def _cmd_profile(args) -> int:
    """Host hot-path profile of one workload characterization.

    Every measured number is wall-clock and therefore quarantined: the
    record's ``metrics`` are the ordinary (deterministic) performance
    counters, while the whole attribution lands in ``timings``.
    """
    from repro.exec.cells import platform_for
    from repro.experiments.runner import ExperimentContext
    from repro.obs.hostprof import profile_call
    from repro.workloads import workload

    definition = workload(args.workload)
    platform = platform_for(args.platform)
    print(f"profiling {definition.workload_id} on {platform.name} "
          f"(host wall-clock, scale {args.scale}) ...", file=sys.stderr)
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    counters, profile = profile_call(
        context.counters, definition.workload_id, platform
    )
    _emit(
        args,
        f"{profile.render_table(args.top)}\n\n{profile.render_flame()}\n\n"
        f"attributed {100 * profile.attributed_fraction():.1f}% of "
        f"{profile.total_s:.3f}s measured self time "
        f"({100 * profile.uarch_fraction():.1f}% inside repro.uarch)",
        record=_record(
            args, f"profile.{definition.workload_id}", "profile",
            dict(counters.metric_dict()), [platform.name],
            timings=profile.timings(),
        ),
    )
    return 0


# ---- sweeps and campaigns ---------------------------------------------------
def _cmd_sweep(args) -> int:
    """The supervised parallel sweep over workload x platform x seed."""
    from repro.exec.cells import PLATFORM_KEYS, decompose, platform_for
    from repro.exec.checkpoint import SweepCheckpoint, sweep_id
    from repro.exec.merge import merge_results, telemetry_lines
    from repro.exec.supervisor import SweepExecutor
    from repro.exec.tracing import SweepTracer, merge_sweep_trace
    from repro.obs.registry import config_hash
    from repro.obs.stream import TerminalRenderer
    from repro.workloads import REPRESENTATIVE_WORKLOADS, workload

    if args.workloads:
        workload_ids = [w.strip() for w in args.workloads.split(",") if w.strip()]
    else:
        workload_ids = [d.workload_id for d in REPRESENTATIVE_WORKLOADS]
    for workload_id in workload_ids:
        workload(workload_id)  # typed UnknownWorkloadError before any work
    platforms = [p.strip() for p in args.platforms.split(",") if p.strip()]
    if not platforms:
        raise InvalidParameterError("--platforms must name at least one platform")
    for key in platforms:
        if key not in PLATFORM_KEYS:
            raise InvalidParameterError(
                f"unknown platform {key!r}; choose from "
                f"{', '.join(PLATFORM_KEYS)}"
            )
    seeds = list(range(args.seed, args.seed + args.seeds))
    cells = decompose(workload_ids, platforms, args.scale, seeds)
    config = {
        "workloads": workload_ids,
        "platforms": platforms,
        "scale": args.scale,
        "seeds": seeds,
    }
    # The checkpoint under ``<runs dir>/sweeps/`` and the per-process
    # span files (the live status line draws from the supervisor's
    # records under --progress, or by default on a tty).  The tracer
    # is passive: the results are bit-identical either way, and its
    # writers' drop counters join the telemetry.
    chash = config_hash(config)
    checkpoint = SweepCheckpoint(
        args.runs_dir, sweep_id(args.name or "sweep", chash, args.seed))
    if args.resume and not checkpoint.exists():
        print("no checkpoint for this sweep config yet; starting fresh",
              file=sys.stderr)
    checkpoint.initialise(config_hash=chash, seed=args.seed, config=config,
                          n_cells=len(cells))
    line = args.progress if args.progress is not None else sys.stderr.isatty()
    renderer = TerminalRenderer() if line else None
    tracer = SweepTracer(checkpoint.trace_dir,
                         listener=renderer and renderer.update)
    try:
        outcome = SweepExecutor(
            jobs=args.jobs, cell_timeout=args.cell_timeout, tracer=tracer,
        ).run(cells, checkpoint=checkpoint, resume=args.resume)
    finally:
        tracer.close()
        if renderer is not None:
            renderer.close()
    try:
        n_events, n_flows = merge_sweep_trace(tracer.trace_dir,
                                              checkpoint.trace_path)
    except TraceMergeError as error:
        print(f"warning: could not merge sweep trace: {error}",
              file=sys.stderr)
    else:
        print(f"merged sweep trace: {n_events} event(s), {n_flows} "
              f"retry flow link(s) -> {checkpoint.trace_path}",
              file=sys.stderr if args.json else sys.stdout)
    outcome.telemetry.update(tracer.telemetry())
    if outcome.quarantined:
        print(
            f"sweep incomplete: {len(outcome.quarantined)} of "
            f"{len(cells)} cell(s) quarantined\n"
            f"{outcome.render_quarantine()}\n"
            f"re-run with --resume after fixing the cause",
            file=sys.stderr,
        )
        return 1
    merged = merge_results(cells, outcome.results,
                           single_seed=len(seeds) == 1)
    _emit(
        args,
        "\n".join(
            [f"sweep of {len(workload_ids)} workload(s) x {len(platforms)} "
             f"platform(s) x {len(seeds)} seed(s) = {len(cells)} cells "
             f"({len(merged)} metrics)"]
            + [f"  {line}" for line in telemetry_lines(outcome.telemetry)]
        ),
        record=_record(
            args, f"sweep.{args.name}" if args.name else "sweep", "sweep",
            merged, [platform_for(key).name for key in platforms], config,
            timings={f"exec.{k}": v for k, v in outcome.telemetry.items()},
        ),
    )
    return 0


def _check_chaos(args) -> None:
    from repro.chaos import STACKS, WORKLOADS

    for flag, value, known in (("--workloads", args.workloads, WORKLOADS),
                               ("--stacks", args.stacks, STACKS)):
        unknown = [n for n in (value.split(",") if value else [])
                   if n not in known]
        if unknown:
            raise InvalidParameterError(
                f"{flag}: unknown {', '.join(map(repr, unknown))}; choose "
                f"from {', '.join(sorted(known))}"
            )


def _cmd_chaos(args) -> int:
    from repro.chaos import (
        load_replay,
        replay_to_dict,
        run_plan,
        save_replay,
        shrink_plan,
        violation_signature,
    )
    from repro.experiments import chaos_soak
    from repro.experiments.runner import ExperimentContext

    if args.replay:
        data = load_replay(args.replay)
        case = run_plan(
            data["workload"], data["stack"], data["plan"],
            scale=data.get("scale", args.scale),
        )
        lines = [f"replayed {data['workload']}/{data['stack']} "
                 f"({len(data['plan'].faults)} faults): outcome={case.outcome}"]
        lines += [f"  {v.invariant}: {v.detail}" for v in case.violations]
        if not case.violations:
            lines.append("clean: the violation no longer reproduces")
        _emit(args, "\n".join(lines), case.to_dict())
        if case.violations:
            print("violation reproduced", file=sys.stderr)
            return 1
        return 0

    workloads = args.workloads.split(",") if args.workloads else None
    stacks = args.stacks.split(",") if args.stacks else None
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    result = chaos_soak.run(
        context, seeds=args.seeds, workloads=workloads, stacks=stacks
    )
    artifacts = []
    if not result.clean:
        # Minimise each violating plan and pin it to a replay file.
        os.makedirs(args.artifact_dir, exist_ok=True)
        for campaign in result.campaigns:
            for case in campaign.dirty_cases:
                plan = case.case.plan
                if not args.no_shrink:
                    plan = shrink_plan(
                        plan,
                        lambda candidate: violation_signature(
                            run_plan(
                                case.case.workload, case.case.stack,
                                candidate, scale=args.scale,
                            ).violations
                        ),
                    )
                path = os.path.join(
                    args.artifact_dir,
                    f"chaos-seed{campaign.seed}-{case.case.workload}-"
                    f"{case.case.stack}.json",
                )
                save_replay(
                    path,
                    replay_to_dict(
                        case.case.workload,
                        case.case.stack,
                        plan,
                        args.scale,
                        scenario=case.case.scenario,
                        seed=campaign.seed,
                        violations=[v.to_dict() for v in case.violations],
                    ),
                )
                artifacts.append(path)
    record = context.make_record(
        "chaos", result.fidelity_metrics(), kind="chaos",
        config={"seeds": args.seeds, "workloads": workloads,
                "stacks": stacks},
    )
    _emit(
        args,
        "\n".join([result.render()] + [
            f"minimized replay written to {path}" for path in artifacts
        ]),
        lambda: dict(result.to_dict(), artifacts=artifacts,
                     run_id=record.run_id),
        record,
    )
    return 0 if result.clean else 1


def _check_crashsim(args) -> None:
    if args.max_points + args.errno_points + args.fsync_lie_points == 0:
        raise InvalidParameterError(
            "--max-points, --errno-points and --fsync-lie-points are all "
            "0; a campaign needs at least one fault point"
        )


def _cmd_crashsim(args) -> int:
    """Run the crash-consistency campaign over a scratch sweep."""
    import shutil
    import tempfile

    from repro.analysis.crashsim import run_campaign

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-crashsim-")
    config = {"max_points": args.max_points,
              "errno_points": args.errno_points,
              "fsync_lie_points": args.fsync_lie_points,
              "jobs": args.jobs}
    try:
        result = run_campaign(work_dir, seed=args.seed, scale=args.scale,
                              artifact_dir=args.artifact_dir, **config)
    finally:
        if args.work_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    _emit(args, result.render(), result.to_dict(),
          _record(args, "crashsim", "analysis", result.fidelity_metrics(),
                  config=config))
    return 0 if result.ok else 1


# ---- registry readers and gates ---------------------------------------------
def _cmd_metrics(args) -> int:
    """OpenMetrics-style exposition of registry and sweep counters."""
    from repro.obs.stream import render_openmetrics

    _emit(args, render_openmetrics(args.runs_dir).rstrip("\n"))
    return 0


def _cmd_report(args) -> int:
    from repro.obs.registry import RunRegistry
    from repro.obs.report import scorecard

    experiments = args.experiments.split(",") if args.experiments else None
    card = scorecard(RunRegistry(args.runs_dir), experiments=experiments)
    _emit(args, card.render(), card.to_dict())
    return 1 if args.strict and not card.ok else 0


def _cmd_diff(args) -> int:
    from repro.obs.registry import RunRegistry
    from repro.obs.report import diff_records

    registry = RunRegistry(args.runs_dir)
    try:
        record_a = registry.resolve(args.run_a)
        record_b = registry.resolve(args.run_b)
    except (KeyError, ValueError) as error:
        print(f"cannot resolve run record: {error}", file=sys.stderr)
        return 3
    result = diff_records(
        record_a, record_b,
        rel_threshold=args.rel_threshold,
        abs_threshold=args.abs_threshold,
    )
    _emit(args, result.render(), result.to_dict())
    return result.exit_code


def _cmd_history(args) -> int:
    from repro.obs.registry import RunRegistry
    from repro.obs.report import history

    result = history(
        RunRegistry(args.runs_dir), args.experiment,
        metrics=args.metric or None,
    )
    if args.html:
        out = args.out or f"history-{args.experiment}.html"
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(result.to_html())
        _emit(args, f"wrote {out}")
        return 0
    _emit(args, result.render(), result.to_dict())
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        default_lint_root,
        hashseed_crosscheck,
        lint_tree,
        render_json,
        render_text,
        rule_catalog,
    )

    if args.rules:
        _emit(args, "\n\n".join(doc.render() for doc in rule_catalog())
              + "\n")
        return 0

    if args.dynamic:
        try:
            hash_seeds = tuple(
                int(s) for s in args.hash_seeds.split(",") if s.strip()
            )
        except ValueError:
            raise InvalidParameterError(
                f"--hash-seeds must be comma-separated integers, "
                f"got {args.hash_seeds!r}"
            )
        result = hashseed_crosscheck(
            workload=args.workload,
            scale=args.scale,
            seed=args.seed,
            hash_seeds=hash_seeds,
        )
        _emit(args, result.render(), result.to_dict())
        return 0 if result.identical else 1

    report = lint_tree(args.path or default_lint_root())
    _emit(args, render_text(report), render_json(report))
    return 1 if report.findings else 0


def _cmd_fsck(args) -> int:
    """Scan (and optionally repair) the runs directory; diff-style exits."""
    from repro.obs.fsck import fsck_repair, fsck_scan

    try:
        result = fsck_scan(args.runs_dir)
    except FileNotFoundError:
        print(f"fsck: runs directory {args.runs_dir!r} does not exist",
              file=sys.stderr)
        return 3
    payload = result.to_dict()
    text = result.render()
    clean = result.clean
    if args.repair and result.findings:
        fsck_repair(result)
        after = fsck_scan(args.runs_dir)
        payload = dict(result.to_dict(), post_repair=after.to_dict())
        clean = after.clean
        repaired = sum(1 for f in result.findings if f.repaired)
        text += (f"\n\nrepaired {repaired} finding(s); post-repair scan: "
                 + ("clean" if clean else "still has errors"))
    _emit(args, text, payload)
    return 0 if clean else 1


def _cmd_dash(args) -> int:
    """Render the static HTML observatory from the runs directory.

    Strictly read-only over ``--runs-dir`` (corrupt artifacts are
    reported on the health page, never touched) and byte-deterministic
    for a fixed directory state.  No run record is written: the dash
    *reads* the registry, it is not an experiment.
    """
    from repro.obs.dashboard import render_site
    from repro.obs.observatory import build_model

    model = build_model(args.runs_dir)
    paths = render_site(model, args.out)
    lines = [f"observatory: {len(model.records)} record(s), "
             f"{len(model.experiments())} experiment(s), "
             f"{len(model.sweeps)} sweep(s) from {args.runs_dir}"]
    if model.skipped:
        lines.append(f"  {len(model.skipped)} damaged/foreign artifact(s) "
                     "skipped (see health.html)")
    lines += [f"  wrote {path}" for path in paths]
    _emit(args, "\n".join(lines), {
        "out": args.out,
        "pages": [os.path.basename(p) for p in paths],
        "records": len(model.records),
        "experiments": len(model.experiments()),
        "sweeps": len(model.sweeps),
        "skipped_artifacts": len(model.skipped),
        "health_errors": len(model.error_findings),
    })
    return 0


def _check_bench(args) -> None:
    from repro.obs.perf import bench_targets

    if args.list:
        return
    if not args.target:
        raise InvalidParameterError("bench: name a target (or use --list)")
    targets = bench_targets()
    if args.target not in targets:
        raise InvalidParameterError(
            f"unknown bench target {args.target!r} "
            f"(known: {', '.join(sorted(targets))})"
        )


def _cmd_bench(args) -> int:
    """Noise-aware wall-clock benchmark of one named target."""
    from repro.obs.perf import bench_targets, run_bench

    targets = bench_targets()
    if args.list:
        width = max(len(name) for name in targets)
        _emit(args, "\n".join(
            f"{name:<{width}s}  [{targets[name].kind}] "
            f"{targets[name].description}" for name in sorted(targets)
        ))
        return 0
    result = run_bench(targets[args.target], reps=args.reps,
                       warmup=args.warmup, scale=args.scale, seed=args.seed)
    _emit(args, result.render(), record=result.to_record())
    return 0


def _cmd_perfdiff(args) -> int:
    """Gate the latest bench records against the committed budgets."""
    from repro.obs.perf import load_budgets, perfdiff, update_budgets
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir)
    targets = (
        [t for t in args.targets.split(",") if t.strip()]
        if args.targets else None
    )
    if args.update_budgets:
        manifest = update_budgets(registry, args.budgets, targets=targets)
        _emit(args, f"budget manifest {args.budgets} updated: "
                    f"{len(manifest['budgets'])} target(s)")
        return 0
    result = perfdiff(registry, load_budgets(args.budgets),
                      budgets_path=args.budgets, targets=targets)
    _emit(args, result.render(), result.to_dict())
    if args.warn_only and result.exit_code != 0:
        # CI annotation format; the gate reports but does not fail
        # until enough baselines exist to trust the intervals.
        for verdict in result.regressions:
            print(f"::warning title=perf regression ({verdict.target})::"
                  f"{verdict.detail}")
        print("perfdiff: regressions found, but --warn-only is set (exit 0)")
        return 0
    return result.exit_code


# ---- the verb table ---------------------------------------------------------
def _arg(*flags, check=None, **kwargs):
    """One argument: argparse ``flags``/``kwargs`` plus an optional range
    ``check``, a ``(predicate, requirement)`` pair."""
    return flags, kwargs, check


_NONNEG = (lambda value: value >= 0, ">= 0")
_POSITIVE = (lambda value: value > 0, "> 0")
_ONE_PLUS = (lambda value: value >= 1, ">= 1")

_SCALE = _arg("--scale", type=float, default=0.5,
              check=(lambda value: 0 < value <= 100, "in (0, 100]"),
              help="workload scale factor (default 0.5)")
_WORKLOAD = _arg("workload", help="workload id, e.g. S-WordCount")
_PLATFORM = _arg("--platform", choices=("e5645", "d510"), default="e5645")

#: A counter verb's only executor flag.
_PRIME_JOBS = _arg(
    "--jobs", type=int, default=1, metavar="N", check=_ONE_PLUS,
    help="first characterize the verb's cells in N worker processes, "
         "with no checkpoint; the in-process fill then computes the rest "
         "on every CPU (default 1: the fill alone)")

_RECORD_JSON = "emit the registry run-record schema instead of a table"


@dataclass(frozen=True)
class Verb:
    """One ``repro`` verb: what ``build_parser`` declares, ``main`` runs."""

    name: str
    help: str
    handler: Callable
    args: Tuple = ()
    #: the ``--seed`` default (and its help); None means no ``--seed``
    seed: Optional[int] = None
    seed_help: Optional[str] = None
    #: the ``--json`` help; None means no ``--json``
    json_help: Optional[str] = None
    #: cross-argument validation, run with the range checks
    check: Optional[Callable] = None

    def arguments(self) -> Tuple:
        """Every argument but ``--json`` (which has no range to check)."""
        extra = () if self.seed is None else (_arg(
            "--seed", type=int, default=self.seed, check=_NONNEG,
            help=self.seed_help,
        ),)
        return self.args + extra


VERBS = (
    Verb("list", "list the workload catalog", _cmd_list),
    Verb("run", "run one workload", _cmd_run, (
        _WORKLOAD, _PLATFORM,
        _arg("--cluster", action="store_true",
             help="replay the workload on the simulated cluster and record "
                  "system.* metrics (partition-layout sensitive)"),
    ), seed=0, seed_help="workload + characterization seed (default 0)",
        json_help="emit metrics as JSON instead of a table"),
    Verb("trace", "run one workload on a traced cluster; export a Chrome "
                  "trace", _cmd_trace, (
        _WORKLOAD,
        _arg("--out", default="trace.json",
             help="Chrome trace_event output path (default trace.json)"),
        _arg("--sample-interval", type=float, default=None, metavar="S",
             check=_POSITIVE,
             help="sample per-node utilization every S simulated seconds "
                  "(default: wave boundaries only)"),
    ), seed=0),
    Verb("reduce", "the 77 -> 17 reduction", _cmd_reduce, (
        _arg("--k", type=int, default=17,
             help="representatives to keep (default 17)"),
    ), seed=0, json_help=_RECORD_JSON, check=_check_reduce),
    Verb("fig", "regenerate a figure", _cmd_fig, (
        _arg("figure", check=(lambda f: f in _FIGURES, "1-5 or 'locality'"),
             help="1-5 or 'locality' (6-9)"),
        _PRIME_JOBS,
    ), seed=0),
    Verb("table", "regenerate a table", _cmd_table, (
        _arg("table", check=(lambda t: t in _TABLES, "1, 2 or 4"),
             help="1, 2 or 4"),
        _PRIME_JOBS,
    ), seed=0),
    Verb("sweep", "characterize a workload x platform x seed matrix across "
                  "supervised worker processes, with checkpoint/resume",
         _cmd_sweep, (
        _arg("--workloads", default=None, metavar="A,B,...",
             help="comma-separated workload ids (default: the 17 "
                  "representatives)"),
        _arg("--platforms", default="e5645", metavar="P,Q",
             help="comma-separated platforms: e5645, d510 (default e5645)"),
        _arg("--seeds", type=int, default=1, metavar="N", check=_ONE_PLUS,
             help="number of consecutive seeds starting at --seed "
                  "(default 1)"),
        _arg("--name", default=None,
             help="sweep name, used in the record id and checkpoint key "
                  "(default 'sweep')"),
        _arg("--jobs", type=int, default=1, metavar="N", check=_ONE_PLUS,
             help="worker processes for the sweep (default 1: serial "
                  "in-process)"),
        _arg("--cell-timeout", type=float, default=None, metavar="S",
             check=_POSITIVE,
             help="wall-clock seconds one sweep cell may take before its "
                  "worker is SIGKILLed and the cell retried (default 300)"),
        _arg("--resume", action="store_true",
             help="resume from this configuration's sweep checkpoint, "
                  "re-running only incomplete cells"),
        _arg("--progress", action=argparse.BooleanOptionalAction,
             default=None,
             help="force the live progress line on (or off with "
                  "--no-progress); default: on when stderr is a tty"),
    ), seed=0, seed_help="first seed of the matrix (default 0)",
        json_help=_RECORD_JSON),
    Verb("profile", "host hot-path profiler: attribute one workload "
                    "characterization's wall-clock to repro functions "
                    "(cProfile; all timings quarantined)", _cmd_profile, (
        _WORKLOAD, _PLATFORM,
        _arg("--top", type=int, default=20, metavar="N", check=_ONE_PLUS,
             help="rows in the hot-function table (default 20)"),
    ), seed=0, seed_help="characterization seed (default 0)",
        json_help="emit the registry run-record schema instead of the report"),
    Verb("metrics", "OpenMetrics-style text exposition of registry record "
                    "counts, executor telemetry and sweep progress",
         _cmd_metrics),
    Verb("stacks", "the §5.5 software-stack study", _cmd_stacks,
         (_PRIME_JOBS,), seed=0, json_help=_RECORD_JSON),
    Verb("system", "§3.2 system-behaviour classification", _cmd_system,
         seed=0, json_help=_RECORD_JSON),
    Verb("faults", "fault resilience: Hadoop vs Spark vs MPI under a node "
                   "crash", _cmd_faults, seed=7,
         seed_help="fault-plan seed (same seed, same faults, same metrics)",
         json_help="emit the resilience results as JSON instead of a table"),
    Verb("chaos", "invariant-audited chaos campaigns over the workload x "
                  "stack matrix; exits nonzero on any violation",
         _cmd_chaos, (
        _arg("--seeds", type=int, default=5, check=_ONE_PLUS,
             help="number of consecutive campaign seeds to run (default 5)"),
        _arg("--workloads", default=None,
             help="comma-separated workloads (default wordcount,grep; "
                  "also: sort)"),
        _arg("--stacks", default=None,
             help="comma-separated stacks (default Hadoop,Spark,MPI)"),
        _arg("--artifact-dir", default="chaos-artifacts",
             help="where minimized replay files for violations land "
                  "(default chaos-artifacts/)"),
        _arg("--replay", default=None, metavar="FILE",
             help="re-run one saved replay file instead of a campaign; "
                  "exits 1 if its violation still reproduces"),
        _arg("--no-shrink", action="store_true",
             help="save violating plans as-is instead of minimizing them"),
    ), seed=0, seed_help="first campaign seed (default 0)",
        json_help="emit campaign verdicts as JSON instead of a table",
        check=_check_chaos),
    Verb("report", "paper-fidelity scorecard: latest recorded runs vs the "
                   "paper's anchor numbers", _cmd_report, (
        _arg("--experiments", default=None, metavar="A,B,...",
             help="restrict the scorecard to these experiments "
                  "(default: every anchored experiment)"),
        _arg("--strict", action="store_true",
             help="exit 1 if any anchor fails or lacks a recorded run"),
    ), json_help="emit the scorecard as JSON instead of a table"),
    Verb("diff", "per-metric drift between two run records; exits 1 on "
                 "drift, 2 on metric-set mismatch", _cmd_diff, (
        _arg("run_a", help="baseline: a record path, run id, experiment "
                           "name (latest), or experiment~N"),
        _arg("run_b", help="candidate, same forms"),
        _arg("--rel-threshold", type=float, default=0.005, metavar="R",
             check=_NONNEG,
             help="relative drift a metric must exceed to count "
                  "(default 0.005)"),
        _arg("--abs-threshold", type=float, default=1e-9, metavar="A",
             check=_NONNEG, help="absolute drift floor (default 1e-9)"),
    ), json_help="emit the per-metric verdicts as JSON instead of a table"),
    Verb("history", "one experiment's metric trajectory across recorded "
                    "runs", _cmd_history, (
        _arg("experiment", help="e.g. fig3 or faults"),
        _arg("--metric", action="append", metavar="NAME",
             help="restrict to this metric (repeatable; default: all)"),
        _arg("--html", action="store_true",
             help="write a standalone HTML page with SVG trend lines"),
        _arg("--out", default=None,
             help="HTML output path (default history-<experiment>.html)"),
    ), json_help="emit the trajectory as JSON instead of sparklines"),
    Verb("lint", "determinism sanitizer: AST lint of src/repro; exits 1 on "
                 "any finding without a `# repro: allow[RULE]` comment",
         _cmd_lint, (
        _arg("path", nargs="?", default=None,
             help="file or directory to lint (default: the installed "
                  "repro package tree)"),
        _arg("--rules", action="store_true",
             help="print the rule catalogue (IDs, rationale, fix hints) "
                  "and exit"),
        _arg("--dynamic", action="store_true",
             help="runtime cross-check instead of static rules: run one "
                  "fixed-seed workload under two PYTHONHASHSEED values and "
                  "require byte-identical registry records"),
        _arg("--workload", default="H-WordCount",
             help="workload for --dynamic (default H-WordCount; Hadoop "
                  "workloads expose partition skew to the cluster replay)"),
        _arg("--hash-seeds", default="1,731", metavar="A,B",
             help="PYTHONHASHSEED values for --dynamic (default 1,731)"),
    ), seed=0, seed_help="workload seed for --dynamic (default 0)",
        json_help="emit findings as JSON instead of a report"),
    Verb("fsck", "scan the runs directory for torn, corrupt or orphaned "
                 "artifacts; exits 1 on errors, 3 if the directory is "
                 "missing", _cmd_fsck, (
        _arg("--repair", action="store_true",
             help="quarantine corrupt artifacts, drop torn or tampered "
                  "journal entries and remove leaked tmp files / stale "
                  "locks, then rescan"),
    ), json_help="emit typed findings as JSON instead of a report"),
    Verb("dash", "render the static HTML observatory (scorecard, history, "
                 "sweep timelines, hot functions, bench trends, health) "
                 "from the runs directory", _cmd_dash, (
        _arg("--out", default="observatory", metavar="DIR",
             help="output directory for the site (default observatory/)"),
    ), json_help="emit a render summary as JSON instead of the page list"),
    Verb("bench", "noise-aware wall-clock benchmark of one target "
                  "(experiment regen or repro.uarch kernel); records a "
                  "kind=bench run record with median/MAD/bootstrap-CI",
         _cmd_bench, (
        _arg("target", nargs="?", default=None,
             help="target name, e.g. fig4 or uarch.cache-walk (see --list)"),
        _arg("--reps", type=int, default=5, metavar="N", check=_ONE_PLUS,
             help="measured repetitions (default 5)"),
        _arg("--warmup", type=int, default=1, metavar="K", check=_NONNEG,
             help="discarded warmup repetitions (default 1)"),
        _arg("--list", action="store_true",
             help="list the bench targets and exit"),
    ), seed=0, seed_help="workload/characterization seed (default 0)",
        json_help="emit the registry run-record schema instead of the report",
        check=_check_bench),
    Verb("perfdiff", "compare the latest kind=bench records against the "
                     "committed perf budgets; exits 1 only when a "
                     "candidate's confidence interval separates above its "
                     "budget's", _cmd_perfdiff, (
        _arg("--budgets", metavar="FILE", default=os.path.join(
            "benchmarks", "baselines", "perf_budgets.json"),
             help="budget manifest (default benchmarks/baselines/"
                  "perf_budgets.json)"),
        _arg("--targets", default=None, metavar="A,B,...",
             help="restrict the gate to these targets (default: every "
                  "budgeted target)"),
        _arg("--warn-only", action="store_true",
             help="report regressions as CI warning annotations but exit 0"),
        _arg("--update-budgets", action="store_true",
             help="rewrite the manifest from the latest bench records "
                  "(preserves hot_functions/note annotations)"),
    ), json_help="emit the gate verdicts as JSON instead of a table"),
    Verb("crashsim", "crash-consistency campaign: crash/errno/fsync-lie "
                     "faults at every sampled syscall of an instrumented "
                     "sweep must leave a state repro fsck can certify or "
                     "repair, with bit-identical resumed metrics",
         _cmd_crashsim, (
        _arg("--jobs", type=int, default=2, check=_ONE_PLUS,
             help="worker processes for the instrumented sweeps "
                  "(default 2)"),
        _arg("--max-points", type=int, default=24, metavar="N",
             check=_NONNEG,
             help="crash points sampled across the op space (default 24)"),
        _arg("--errno-points", type=int, default=6, metavar="N",
             check=_NONNEG, help="ENOSPC/EIO injection points (default 6)"),
        _arg("--fsync-lie-points", type=int, default=4, metavar="N",
             check=_NONNEG,
             help="crash points additionally re-run with a lying fsync "
                  "(default 4)"),
        _arg("--work-dir", default=None, metavar="DIR",
             help="scratch directory for campaign sweeps (default: a "
                  "temporary directory, removed afterwards)"),
        _arg("--artifact-dir", default="crashsim-artifacts", metavar="DIR",
             help="where minimized crash traces for failing points land "
                  "(default crashsim-artifacts/)"),
    ), seed=0, seed_help="campaign seed: drives torn-write lengths and "
                         "rename rollback choices (default 0)",
        json_help="emit the campaign verdict as JSON instead of a report",
        check=_check_crashsim),
)


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.registry import runs_dir_default

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Characterization and Architectural "
                    "Implications of Big Data Workloads' (ISPASS 2016).",
    )
    flags, kwargs, _ = _SCALE
    parser.add_argument(*flags, **kwargs)
    parser.add_argument(
        "--runs-dir", default=runs_dir_default(), metavar="DIR",
        help="run-record registry directory (default .repro-runs/, "
             "or $REPRO_RUNS_DIR)",
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="do not write a run record for this invocation",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        sub = commands.add_parser(verb.name, help=verb.help)
        sub.set_defaults(verb=verb, json=False)
        for flags, kwargs, _ in verb.arguments():
            sub.add_argument(*flags, **kwargs)
        if verb.json_help is not None:
            sub.add_argument("--json", action="store_true",
                             help=verb.json_help)
    return parser


def _validate(args) -> None:
    """Range-check every flag of the chosen verb before any work starts."""
    for flags, kwargs, check in (_SCALE,) + args.verb.arguments():
        value = getattr(args, flags[0].lstrip("-").replace("-", "_"))
        if check is not None and value is not None and not check[0](value):
            raise InvalidParameterError(
                f"{flags[0]} must be {check[1]}, got {value!r}"
            )
    if args.verb.check is not None:
        args.verb.check(args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        status = args.verb.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early (`repro list | head -1`); any
        # record is already saved.  Point stdout at devnull so the exit
        # flush cannot fail again, and exit as a SIGPIPE'd command does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, FaultPlanError) as error:
        # Bad input — malformed replay/fault plans included — is a
        # one-line answer, never a traceback (exit 2).
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return getattr(error, "exit_code", 2)
    except InvariantViolation as violation:
        # A lost wave or broken invariant is a simulator bug, never a
        # legitimate stack outcome: fail the command.
        print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    except LintError as error:
        # A sanitizer that cannot analyse is a failing sanitizer.
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
