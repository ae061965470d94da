"""Host time per figure regeneration, end to end and split by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig4 --seed 3 --seconds 10 --trace 0

A workload is one ``repro`` command a user waits for: ``fig4`` (``repro
fig 4``), ``locality`` (``repro fig locality``, Figures 6-9) or
``system`` (``repro system``, §3.2).  Each regeneration runs the real
command line in-process -- experiment, rendered output and the run
record written to a scratch runs directory -- at a fixed scale, with
the workload seed taken from ``--seed``.  Regenerations repeat until
``--seconds`` have elapsed (at least one), and every one is checked
(:mod:`checks`).

``--trace 0`` reports the end-to-end metrics: median host seconds per
regeneration, the median set-up time of a fresh interpreter importing
the command line, and the process's peak resident memory.  ``--trace
1`` reports the median per-layer self time of a regeneration
(:mod:`layers`).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload scale of every regeneration.  Host time is dominated by
#: characterization and capacity sweeps, whose trace lengths do not
#: depend on scale; a small scale keeps fig4 under a minute.
SCALE = 0.1

#: Fresh-interpreter imports timed for ``setup_s`` before and again after
#: the regenerations, so the median spans the whole run.
SETUP_SAMPLES = 4

#: workload -> the ``repro`` command it regenerates.
COMMANDS = {
    "fig4": ["fig", "4"],
    "locality": ["fig", "locality"],
    "system": ["system"],
}


def time_setup(samples: int) -> List[float]:
    """Seconds for a fresh interpreter to import the command line, each."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", "import repro.cli"]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def regenerate(cli_main, command, seed: int, runs_dir: str):
    """One regeneration: ``(exit code, stdout, run record or None)``."""
    argv = ["--scale", repr(SCALE), "--runs-dir", runs_dir, *command,
            "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    names = (
        [n for n in os.listdir(runs_dir) if n.endswith(".json")]
        if os.path.isdir(runs_dir) else []
    )
    record = None
    if len(names) == 1:
        with open(os.path.join(runs_dir, names[0]), encoding="utf-8") as f:
            record = json.load(f)
    return code, out.getvalue(), record


def layer_metrics(traces, names) -> dict:
    """Median per-regeneration self time of each layer, plus trace refs."""
    metrics = {
        f"{name}_s": {
            "value": statistics.median(
                spans.self_seconds.get(name, 0.0) for spans in traces
            ),
            "unit": "s",
        }
        for name in names
    }
    metrics["trace_refs"] = {
        "value": statistics.median(spans.trace_refs for spans in traces),
        "unit": "count",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    # The run record's git probe must not search above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    import checks
    import layers
    from repro.cli import main as cli_main

    # The import above wrote the bytecode cache every sample reads.
    setup = [] if args.trace else time_setup(SETUP_SAMPLES)
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    seconds, traces, records, problems = [], [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while not seconds or time.perf_counter() < deadline:
            regen = functools.partial(
                regenerate, cli_main, COMMANDS[args.workload], args.seed,
                os.path.join(scratch, str(len(seconds))),
            )
            start = time.perf_counter()
            if args.trace:
                traces.append(layers.LayerSpans())
                code, text, record = traces[-1].run_root(regen)
            else:
                code, text, record = regen()
            seconds.append(time.perf_counter() - start)
            records.append(record)
            problems.append(checks.check(
                args.workload, code, text, record, SCALE, args.seed
            ))
        if not args.trace:
            setup += time_setup(SETUP_SAMPLES)
        # Checks over the whole run count against its first regeneration.
        problems[0] += checks.same_metrics(records) + checks.cross_check(
            args.workload, records[0], SCALE, args.seed
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for found in problems:
        for problem in found:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    failed = sum(1 for found in problems if found)

    if args.trace:
        metrics = layer_metrics(traces, layers.layer_names())
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "regen_s": {"value": statistics.median(seconds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {len(seconds)} "
          f"regeneration(s), median {statistics.median(seconds):.3f}s",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(seconds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
