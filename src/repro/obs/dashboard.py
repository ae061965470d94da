"""Deterministic static-site renderer for the observatory.

``repro dash`` turns an :class:`~repro.obs.observatory.ObservatoryModel`
into a multi-page HTML site: fidelity scorecard with anchor trends,
per-metric history with drift annotations, sweep lane timelines from
the merged span files, hot-function tables from host profiles, bench
trends, and a health panel (writer drop counters, fsck findings,
skipped artifacts).

Everything is rendered byte-deterministically: no "generated at"
stamps (every timestamp shown comes from record data), every iteration
sorted, floats formatted through one helper.  The golden test renders
the same fixture twice under two ``PYTHONHASHSEED`` values and
compares output bytes — any hidden set/dict order or clock read fails
it.  This is also the *only* HTML code path: ``repro history --html``
delegates here via :func:`render_history_page`.
"""

from __future__ import annotations

import html
import os
from typing import List, Optional, Sequence, Tuple

from repro.obs.anchors import (
    FAIL,
    PASS,
    WARN,
    anchored_experiments,
    evaluate_record,
)
from repro.obs.export import group_lanes
from repro.obs.observatory import ObservatoryModel, SweepView
from repro.obs.report import (
    DEFAULT_ABS_THRESHOLD,
    DEFAULT_REL_THRESHOLD,
    History,
    scorecard,
)

__all__ = [
    "PAGES",
    "render_history_page",
    "render_page",
    "render_site",
]

#: Every page the site renders, in navigation order.
PAGES: Tuple[Tuple[str, str], ...] = (
    ("index.html", "scorecard"),
    ("history.html", "history"),
    ("sweeps.html", "sweeps"),
    ("profiles.html", "profiles"),
    ("bench.html", "bench"),
    ("health.html", "health"),
)

_CSS = """
body{font-family:system-ui,sans-serif;margin:0;color:#1a2030;background:#f6f7fa}
nav{background:#1f2a44;padding:.6em 1.2em}
nav a{color:#cdd6ee;text-decoration:none;margin-right:1.2em;font-size:14px}
nav a.active{color:#fff;font-weight:600;border-bottom:2px solid #7aa2ff}
main{padding:1.2em 1.6em;max-width:1100px}
h1{font-size:20px;margin:.2em 0 .6em}
h2{font-size:16px;margin:1.2em 0 .4em;border-bottom:1px solid #d8dce6;padding-bottom:.2em}
h3{font-size:13px;margin:.8em 0 .2em}
table{border-collapse:collapse;font-size:12px;margin:.4em 0}
th,td{border:1px solid #d8dce6;padding:.25em .6em;text-align:left}
th{background:#e8ecf4}
p,li{font-size:13px}
.tiles{display:flex;gap:.8em;flex-wrap:wrap;margin:.6em 0}
.tile{background:#fff;border:1px solid #d8dce6;border-radius:6px;padding:.6em 1em;min-width:7em}
.tile b{display:block;font-size:20px}
.tile span{font-size:11px;color:#667}
.pass{color:#1c7c3c}.warn{color:#b07c10}.fail{color:#b02020}
.strip span{display:inline-block;width:14px;height:14px;margin-right:2px;border-radius:2px}
.s-pass{background:#34a853}.s-warn{background:#e8a80c}.s-fail{background:#d33a2c}
.m{margin-bottom:1.1em;background:#fff;border:1px solid #d8dce6;border-radius:6px;padding:.5em .8em}
.m p{margin:.2em 0;color:#556;font-size:12px}
.lanes{background:#fff;border:1px solid #d8dce6;border-radius:6px;padding:.5em .8em;overflow-x:auto}
.note{color:#667;font-size:12px}
.bar{display:inline-block;height:9px;background:#4060c0;border-radius:2px;vertical-align:middle}
""".strip()


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Optional[float]) -> str:
    """One float formatter for the whole site (diff-stable output)."""
    if value is None:
        return "-"
    return f"{value:.6g}"


def render_page(
    title: str,
    body: str,
    *,
    active: Optional[str] = None,
    nav: bool = True,
    subtitle: str = "",
) -> str:
    """The shared page chrome every observatory page uses."""
    nav_html = ""
    if nav:
        links = []
        for page, label in PAGES:
            cls = " class='active'" if label == active else ""
            links.append(f"<a href='{page}'{cls}>{_esc(label)}</a>")
        nav_html = "<nav>" + "".join(links) + "</nav>"
    sub = f"<p class='note'>{_esc(subtitle)}</p>" if subtitle else ""
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"{nav_html}<main><h1>{_esc(title)}</h1>{sub}{body}</main>"
        "</body></html>\n"
    )


# ---------------------------------------------------------------------------
# shared SVG helpers
# ---------------------------------------------------------------------------

def _series_svg(
    values: Sequence[Optional[float]],
    *,
    width: int = 480,
    height: int = 60,
    drift_marks: bool = True,
) -> str:
    """One metric series as an inline SVG polyline.

    With ``drift_marks`` every run-over-run move beyond the diff
    thresholds (the same ones ``repro diff`` gates on) gets a red
    marker whose tooltip names the delta — the drift annotation layer.
    """
    points = [(i, v) for i, v in enumerate(values) if v is not None]
    if not points:
        return "<p class='note'>no data</p>"
    lo = min(v for _, v in points)
    hi = max(v for _, v in points)
    span = (hi - lo) or 1.0
    step = width / max(1, len(values) - 1)

    def x(i: int) -> float:
        return i * step

    def y(v: float) -> float:
        return height - (v - lo) / span * (height - 8) - 4

    coords = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in points)
    marks = []
    if drift_marks:
        for (i_prev, prev), (i_cur, cur) in zip(points, points[1:]):
            delta = abs(cur - prev)
            relative = (
                delta / abs(prev) if prev
                else (float("inf") if delta else 0.0)
            )
            if delta > DEFAULT_ABS_THRESHOLD \
                    and relative > DEFAULT_REL_THRESHOLD:
                rel_text = (
                    f"{100 * (cur - prev) / abs(prev):+.2f}%"
                    if prev else "new-nonzero"
                )
                marks.append(
                    f"<circle cx='{x(i_cur):.1f}' cy='{y(cur):.1f}' r='3' "
                    "fill='#d33a2c'>"
                    f"<title>run {i_prev}&#8594;{i_cur}: "
                    f"{_fmt(prev)}&#8594;{_fmt(cur)} ({rel_text})</title>"
                    "</circle>"
                )
    return (
        f"<svg width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polyline fill='none' stroke='#4060c0' stroke-width='1.5' "
        f"points='{coords}'/>" + "".join(marks) + "</svg>"
    )


def _metric_section(
    name: str, values: Sequence[Optional[float]], *, drift_marks: bool = True
) -> str:
    """One titled metric block: SVG trend + summary line."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    drifts = 0
    for prev, cur in zip(present, present[1:]):
        delta = abs(cur - prev)
        relative = (
            delta / abs(prev) if prev else (float("inf") if delta else 0.0)
        )
        if delta > DEFAULT_ABS_THRESHOLD and relative > DEFAULT_REL_THRESHOLD:
            drifts += 1
    drift_note = (
        f" · <span class='fail'>{drifts} drift(s) beyond "
        f"{100 * DEFAULT_REL_THRESHOLD:g}%</span>" if drifts else ""
    )
    return (
        f"<div class='m'><h3>{_esc(name)}</h3>"
        + _series_svg(values, drift_marks=drift_marks)
        + f"<p>last {_fmt(present[-1])} · min {_fmt(min(present))} · "
        f"max {_fmt(max(present))} · {len(present)} runs{drift_note}</p>"
        "</div>"
    )


def render_history_page(history: History) -> str:
    """The standalone ``repro history --html`` page.

    One code path for all HTML: :meth:`History.to_html` delegates here,
    and the observatory's history page is built from the same
    :func:`_metric_section` blocks.
    """
    sections = [
        _metric_section(name, history.series[name])
        for name in sorted(history.series)
    ]
    telemetry = [
        _metric_section(name, history.telemetry[name], drift_marks=False)
        for name in sorted(history.telemetry)
    ]
    body = "".join(s for s in sections if s)
    if not body:
        body = "<p>no numeric series recorded</p>"
    if any(telemetry):
        body += (
            "<h2>executor telemetry (wall-clock; never diffed)</h2>"
            + "".join(t for t in telemetry if t)
        )
    return render_page(
        f"repro history — {history.experiment}",
        body,
        nav=False,
        subtitle=f"{len(history.run_ids)} recorded runs",
    )


# ---------------------------------------------------------------------------
# the scorecard page
# ---------------------------------------------------------------------------

def _worst_status(statuses: Sequence[str]) -> str:
    if FAIL in statuses:
        return FAIL
    if WARN in statuses:
        return WARN
    return PASS


def _scorecard_page(model: ObservatoryModel) -> str:
    card = scorecard(model)
    rows = []
    for check in card.checks:
        anchor = check.anchor
        rows.append(
            "<tr><td>" + _esc(anchor.experiment)
            + "</td><td>" + _esc(anchor.metric)
            + "</td><td>" + _fmt(anchor.paper_value)
            + "</td><td>" + (
                _fmt(check.value) if check.value is not None
                else "missing"
            )
            + "</td><td>" + _esc(anchor.band_label)
            + f"</td><td class='{check.status}'>" + _esc(check.status)
            + "</td><td>" + _esc(anchor.source) + "</td></tr>"
        )
    # The trend strips: one box per recorded run, worst anchor status
    # of that run — regressions show as a color flip.
    strips = []
    for experiment in anchored_experiments():
        records = model.by_experiment(experiment)
        if not records:
            continue
        boxes = []
        for record in records:
            status = _worst_status(
                [c.status for c in evaluate_record(record)]
            )
            boxes.append(
                f"<span class='s-{status}' title='{_esc(record.run_id)}: "
                f"{_esc(status)}'></span>"
            )
        strips.append(
            f"<tr><td>{_esc(experiment)}</td>"
            f"<td><div class='strip'>{''.join(boxes)}</div></td>"
            f"<td>{len(records)}</td></tr>"
        )
    counts = card.counts
    tiles = (
        "<div class='tiles'>"
        f"<div class='tile'><b>{len(model.records)}</b>"
        "<span>run records</span></div>"
        f"<div class='tile'><b>{len(model.experiments())}</b>"
        "<span>experiments</span></div>"
        f"<div class='tile'><b>{len(model.sweeps)}</b>"
        "<span>sweeps</span></div>"
        f"<div class='tile'><b class='pass'>{counts[PASS]}</b>"
        "<span>anchors pass</span></div>"
        f"<div class='tile'><b class='warn'>{counts[WARN]}</b>"
        "<span>anchors warn</span></div>"
        f"<div class='tile'><b class='fail'>{counts[FAIL]}</b>"
        "<span>anchors fail</span></div>"
        f"<div class='tile'><b>{len(model.error_findings)}</b>"
        "<span>health errors</span></div>"
        "</div>"
    )
    body = tiles
    if rows:
        body += (
            "<h2>paper-fidelity scorecard (latest recorded runs)</h2>"
            "<table><tr><th>experiment</th><th>metric</th><th>paper</th>"
            "<th>ours</th><th>band</th><th>status</th><th>source</th></tr>"
            + "".join(rows) + "</table>"
        )
    if strips:
        body += (
            "<h2>anchor trend (oldest &#8594; latest, worst status "
            "per run)</h2>"
            "<table><tr><th>experiment</th><th>trend</th><th>runs</th></tr>"
            + "".join(strips) + "</table>"
        )
    if card.missing_experiments:
        body += (
            "<p class='note'>no recorded runs yet for: "
            + _esc(", ".join(card.missing_experiments))
            + " (run `repro fig/table/...` to record them)</p>"
        )
    return render_page(
        "observatory — scorecard", body, active="scorecard",
        subtitle=f"runs directory: {model.root}",
    )


# ---------------------------------------------------------------------------
# the history page
# ---------------------------------------------------------------------------

def _history_for(model: ObservatoryModel, experiment: str) -> History:
    """Build a History straight from the model (no registry re-read)."""
    records = model.by_experiment(experiment)
    result = History(experiment=experiment)
    result.run_ids = [r.run_id for r in records]
    result.created_at = [r.created_at for r in records]
    for name in sorted({n for r in records for n in r.metrics}):
        result.series[name] = [r.metrics.get(name) for r in records]
    return result


def _history_page(model: ObservatoryModel) -> str:
    sections = []
    for experiment in model.experiments():
        if experiment.startswith("bench."):
            continue  # wall-clock records trend on the bench page
        history = _history_for(model, experiment)
        blocks = "".join(
            _metric_section(name, history.series[name])
            for name in sorted(history.series)
        )
        if not blocks:
            continue
        sections.append(
            f"<h2>{_esc(experiment)} "
            f"<span class='note'>({len(history.run_ids)} runs)</span></h2>"
            + blocks
        )
    body = "".join(sections) or (
        "<p>no metric series recorded yet — run `repro fig 3` (or any "
        "experiment verb) to populate the registry.</p>"
    )
    return render_page(
        "observatory — metric history", body, active="history",
        subtitle="red markers: run-over-run drift beyond the repro diff "
        "thresholds",
    )


# ---------------------------------------------------------------------------
# the sweeps page
# ---------------------------------------------------------------------------

_CAT_COLORS = {
    "cell": "#4060c0",
    "queue": "#9aa4bd",
    "boot": "#2a9d5c",
    "retry": "#d33a2c",
    "merge": "#7a4fc0",
}


def _lane_svg(view: SweepView) -> str:
    lanes = group_lanes(view.spans)
    if not lanes:
        return "<p class='note'>no span files recorded</p>"
    # Epoch times are wall-clock: only offsets from the sweep's first
    # event reach the page.
    base = min(r.t0 for r in view.spans)
    total = max(r.t1 for r in view.spans) - base or 1e-9
    width, row_h, label_w = 760, 20, 170
    height = row_h * len(lanes) + 24
    parts = [
        f"<svg width='{width + label_w}' height='{height}' "
        f"viewBox='0 0 {width + label_w} {height}'>"
    ]
    for row, (lane, records) in enumerate(lanes.items()):
        y = row * row_h + 4
        parts.append(
            f"<text x='0' y='{y + 11}' font-size='10' "
            f"fill='#334'>{_esc(lane)}</text>"
        )
        # Spans first, so instant markers draw on top of them.
        for record in sorted(records, key=lambda r: (
                r.kind == "instant", r.t0, r.t1, r.name)):
            x0 = label_w + (record.t0 - base) / total * width
            if record.kind == "instant":
                parts.append(
                    f"<path d='M {x0:.1f} {y} l 4 {row_h - 6} l -8 0 z' "
                    "fill='#e8a80c'>"
                    f"<title>{_esc(record.name)} [{_esc(record.cat)}]</title>"
                    "</path>"
                )
                continue
            w = max(1.0, record.duration / total * width)
            color = _CAT_COLORS.get(record.cat, "#8a93a8")
            cell = record.args.get("cell", "")
            title = (
                f"{record.name} [{record.cat}] {record.duration:.3f}s"
                + (f" — {cell}" if cell else "")
            )
            parts.append(
                f"<rect x='{x0:.1f}' y='{y}' width='{w:.1f}' "
                f"height='{row_h - 6}' fill='{color}' rx='2'>"
                f"<title>{_esc(title)}</title></rect>"
            )
    axis_y = row_h * len(lanes) + 12
    parts.append(
        f"<text x='{label_w}' y='{axis_y}' font-size='10' "
        "fill='#667'>0s</text>"
        f"<text x='{label_w + width - 40}' y='{axis_y}' font-size='10' "
        f"fill='#667'>{total:.2f}s</text>"
    )
    parts.append("</svg>")
    return "<div class='lanes'>" + "".join(parts) + "</div>"


def _sweep_page(model: ObservatoryModel) -> str:
    sections = []
    for view in model.sweeps:
        config = view.manifest.get("config", {})
        facts = [
            ("cells", f"{view.done}/{view.n_cells} done"
                      + (f", {view.quarantined} quarantined"
                         if view.quarantined else "")),
            ("state", "finished" if view.finished else "in flight"),
            ("retries", str(view.retries)),
            ("span records", str(len(view.spans))),
            ("merged trace", "yes" if view.has_merged_trace else "no"),
        ]
        if view.torn_journal_lines:
            facts.append((
                "journal damage",
                f"{view.torn_journal_lines} unparseable line(s) "
                "(see health panel)",
            ))
        throughput = view.last_throughput
        if throughput is not None:
            facts.append(("last throughput", f"{throughput:.2f} cells/s"))
        if isinstance(config, dict) and config.get("verb"):
            facts.append(("verb", str(config["verb"])))
        fact_rows = "".join(
            f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>"
            for k, v in facts
        )
        sections.append(
            f"<h2>{_esc(view.sweep)}</h2>"
            f"<table>{fact_rows}</table>"
            + _lane_svg(view)
        )
    body = "".join(sections) or (
        "<p>no sweeps recorded — run `repro sweep --jobs 2` to produce "
        "a checkpointed, span-traced sweep.</p>"
    )
    return render_page(
        "observatory — sweep timelines", body, active="sweeps",
        subtitle="lanes are processes (supervisor first); spans from the "
        "per-worker trace files, rebased to sweep start",
    )


# ---------------------------------------------------------------------------
# the profiles page
# ---------------------------------------------------------------------------

def _profile_page(model: ObservatoryModel) -> str:
    sections = []
    for record in model.of_kind("profile"):
        hot = []
        for key in sorted(record.timings):
            prefix = "hostprof.self_s."
            if key.startswith(prefix):
                hot.append((record.timings[key], key[len(prefix):]))
        hot.sort(key=lambda pair: (-pair[0], pair[1]))
        total = record.timings.get("hostprof.total_s", 0.0)
        top = hot[:20]
        max_self = top[0][0] if top else 1.0
        rows = []
        for self_s, name in top:
            share = 100 * self_s / total if total else 0.0
            bar = int(120 * self_s / max_self) if max_self else 0
            rows.append(
                f"<tr><td>{_esc(name)}</td><td>{self_s:.4f}</td>"
                f"<td>{share:.1f}%</td>"
                f"<td><span class='bar' style='width:{bar}px'></span>"
                "</td></tr>"
            )
        uarch = record.timings.get("hostprof.uarch_fraction")
        attributed = record.timings.get("hostprof.attributed_fraction")
        notes = []
        if total:
            notes.append(f"total {total:.3f}s")
        if attributed is not None:
            notes.append(f"{100 * attributed:.1f}% attributed")
        if uarch is not None:
            notes.append(f"{100 * uarch:.1f}% inside repro.uarch")
        sections.append(
            f"<h2>{_esc(record.experiment)} "
            f"<span class='note'>({_esc(record.run_id)})</span></h2>"
            + (f"<p class='note'>{_esc(' · '.join(notes))}</p>"
               if notes else "")
            + "<table><tr><th>function</th><th>self s</th><th>share</th>"
              "<th></th></tr>" + "".join(rows) + "</table>"
        )
    body = "".join(sections) or (
        "<p>no host profiles recorded — run `repro profile S-WordCount` "
        "to attribute wall-clock to the repro.uarch inner loops.</p>"
    )
    return render_page(
        "observatory — hot functions", body, active="profiles",
        subtitle="host wall-clock attribution from kind=profile records "
        "(all values quarantined timings)",
    )


# ---------------------------------------------------------------------------
# the bench page
# ---------------------------------------------------------------------------

def _bench_page(model: ObservatoryModel) -> str:
    bench_experiments = sorted({
        r.experiment for r in model.of_kind("bench")
    })
    sections = []
    for experiment in bench_experiments:
        records = [
            r for r in model.by_experiment(experiment) if r.kind == "bench"
        ]
        latest = records[-1]
        timings = latest.timings
        rows = []
        for label, key in (
            ("median", "bench.median_s"),
            ("MAD", "bench.mad_s"),
            ("95% CI low", "bench.ci_lo_s"),
            ("95% CI high", "bench.ci_hi_s"),
            ("mean", "bench.mean_s"),
            ("reps", "bench.reps"),
        ):
            if key in timings:
                rows.append(
                    f"<tr><th>{_esc(label)}</th>"
                    f"<td>{_fmt(timings[key])}</td></tr>"
                )
        trend = [r.timings.get("bench.median_s") for r in records]
        sections.append(
            f"<h2>{_esc(experiment)} "
            f"<span class='note'>({len(records)} runs)</span></h2>"
            "<div class='m'><h3>bench.median_s</h3>"
            + _series_svg(trend, drift_marks=False)
            + f"<p>latest run {_esc(latest.run_id)}</p></div>"
            f"<table>{''.join(rows)}</table>"
        )
    body = "".join(sections) or (
        "<p>no bench records — run `repro bench fig4 --reps 5` (or "
        "`repro bench --list` for every target) to produce kind=bench "
        "records.</p>"
    )
    return render_page(
        "observatory — bench trends", body, active="bench",
        subtitle="wall-clock benchmarks (robust stats, all quarantined); "
        "gated by `repro perfdiff` against the committed budgets",
    )


# ---------------------------------------------------------------------------
# the health page
# ---------------------------------------------------------------------------

def _health_page(model: ObservatoryModel) -> str:
    body = ""

    telemetry_rows = []
    for experiment in model.experiments():
        latest = model.latest(experiment)
        if latest is None:
            continue
        for key in sorted(latest.timings):
            if not key.startswith("exec."):
                continue
            value = latest.timings[key]
            dropped = "dropped" in key or "errors" in key
            cls = " class='fail'" if dropped and value else ""
            telemetry_rows.append(
                f"<tr><td>{_esc(experiment)}</td>"
                f"<td>{_esc(key)}</td><td{cls}>{_fmt(value)}</td></tr>"
            )
    if telemetry_rows:
        body += (
            "<h2>writer / drop counters (latest record per experiment)"
            "</h2>"
            "<table><tr><th>experiment</th><th>counter</th><th>value</th>"
            "</tr>" + "".join(telemetry_rows) + "</table>"
        )

    if model.findings:
        finding_rows = "".join(
            f"<tr><td class='{'fail' if f.get('severity') == 'error' else 'note'}'>"
            + _esc(f.get("severity", ""))
            + "</td><td>" + _esc(f.get("kind", ""))
            + "</td><td>" + _esc(f.get("path", ""))
            + "</td><td>" + _esc(f.get("detail", "")) + "</td></tr>"
            for f in model.findings
        )
        body += (
            f"<h2>fsck findings ({len(model.error_findings)} error(s), "
            f"{len(model.findings) - len(model.error_findings)} note(s))"
            "</h2>"
            "<table><tr><th>severity</th><th>kind</th><th>path</th>"
            "<th>detail</th></tr>" + finding_rows + "</table>"
        )

    if model.skipped:
        skipped_rows = "".join(
            f"<tr><td>{_esc(s.path)}</td><td>{_esc(s.reason)}</td></tr>"
            for s in sorted(
                model.skipped, key=lambda s: (s.path, s.reason)
            )
        )
        body += (
            "<h2>artifacts the aggregator skipped</h2>"
            "<table><tr><th>path</th><th>reason</th></tr>"
            + skipped_rows + "</table>"
        )

    if not body:
        body = (
            "<p>nothing to report: no executor telemetry recorded, no "
            "fsck findings, nothing skipped.</p>"
        )
    return render_page(
        "observatory — health", body, active="health",
        subtitle="evidence against silent loss: every dropped event, "
        "damaged artifact and skipped file is counted here",
    )


# ---------------------------------------------------------------------------
# site assembly
# ---------------------------------------------------------------------------

def render_site(model: ObservatoryModel, out_dir: str) -> List[str]:
    """Render every observatory page into ``out_dir``; returns paths."""
    renderers = {
        "index.html": _scorecard_page,
        "history.html": _history_page,
        "sweeps.html": _sweep_page,
        "profiles.html": _profile_page,
        "bench.html": _bench_page,
        "health.html": _health_page,
    }
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for page, _label in PAGES:
        path = os.path.join(out_dir, page)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(renderers[page](model))
        written.append(path)
    return written
