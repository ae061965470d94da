"""The run registry: versioned JSON records of every experiment run.

A :class:`RunRecord` is what outlives a run.  Each ``repro fig`` /
``repro table`` / ``repro run`` / ``repro faults`` / ``repro chaos`` /
bench invocation serialises one into the registry directory
(``.repro-runs/`` by default, overridable via ``REPRO_RUNS_DIR`` or the
CLI's ``--runs-dir``), carrying:

- **provenance** — git SHA, seed, scale, platform(s), python version
  and a config hash, so any two records can be meaningfully compared;
- **metrics** — a flat ``name -> float`` mapping (the comparable
  surface that :mod:`repro.obs.report` diffs and that
  :mod:`repro.obs.anchors` scores against the paper);
- **series** — the experiment's full rows/series payload, for humans
  and export;
- **timings** — host-side telemetry: executor counters and wall
  seconds, profiler and bench timings.  Wall time is hardware noise,
  so it lives outside ``metrics`` and is never part of a drift
  comparison.

Determinism contract: for a fixed seed + scale + platform, ``metrics``
and ``series`` are byte-identical across runs; only ``created_at``,
``run_id`` and ``timings`` may differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fsio import (
    fsync_dir,
    quarantine_corrupt,
    read_json,
    write_json_atomic,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_RUNS_DIR",
    "RUNS_DIR_ENV",
    "runs_dir_default",
    "fsync_dir",
    "atomic_write_json",
    "quarantine_corrupt",
    "git_sha",
    "config_hash",
    "build_provenance",
    "flatten_rows",
    "RunRecord",
    "RunRegistry",
]

#: Bumped whenever the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default registry directory (relative to the working directory).
DEFAULT_RUNS_DIR = ".repro-runs"

#: Environment override for the registry directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def runs_dir_default() -> str:
    """The registry directory: ``$REPRO_RUNS_DIR`` or ``.repro-runs``."""
    return os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR


def atomic_write_json(path: str, payload: object, *, io=None) -> None:
    """Crash-safe JSON write — alias for :func:`repro.fsio.write_json_atomic`.

    Kept under its historical name because checkpoint code and tests
    import it from here; the implementation (tmp + fsync + replace +
    dir fsync + tmp cleanup on failure) lives in :mod:`repro.fsio`.
    """
    write_json_atomic(path, payload, io=io)


def git_sha() -> str:
    """Public alias for the provenance git probe (``repro_build_info``)."""
    return _git_sha()


def _git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):  # repro: allow[ERR002] — provenance probe; "unknown" is the answer
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def config_hash(payload: Dict[str, object]) -> str:
    """Deterministic short hash of a JSON-serialisable config mapping."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def build_provenance(
    *,
    experiment: str,
    seed: int,
    scale: float,
    platforms: List[str],
    config: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the provenance block for one run."""
    settings: Dict[str, object] = {
        "experiment": experiment,
        "seed": seed,
        "scale": scale,
        "platforms": list(platforms),
    }
    if config:
        settings.update(config)
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "scale": scale,
        "platforms": list(platforms),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "config_hash": config_hash(settings),
    }


def flatten_rows(
    prefix: str, headers: List[str], rows: List[list]
) -> Dict[str, float]:
    """Flatten tabular experiment rows into registry metrics.

    The first column names the row; every numeric cell lands at
    ``<prefix>.<row name>.<header>``.  Non-numeric cells (outcome
    strings, member lists) are skipped — ``metrics`` is floats only.
    """
    metrics: Dict[str, float] = {}
    for row in rows:
        name = str(row[0])
        for header, value in zip(headers[1:], row[1:]):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[f"{prefix}.{name}.{header}"] = float(value)
    return metrics


@dataclass
class RunRecord:
    """One persisted run: provenance + comparable metrics + payload."""

    experiment: str
    kind: str
    metrics: Dict[str, float]
    provenance: Dict[str, object]
    series: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""
    run_id: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "experiment": self.experiment,
            "kind": self.kind,
            "created_at": self.created_at,
            "provenance": dict(self.provenance),
            "metrics": dict(self.metrics),
            "series": dict(self.series),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-record schema {version!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        return cls(
            experiment=data["experiment"],
            kind=data["kind"],
            metrics={k: float(v) for k, v in data["metrics"].items()},
            provenance=dict(data["provenance"]),
            series=dict(data.get("series", {})),
            timings={k: float(v) for k, v in data.get("timings", {}).items()},
            schema_version=version,
            created_at=data.get("created_at", ""),
            run_id=data.get("run_id", ""),
        )


class RunRegistry:
    """A directory of ``RunRecord`` JSON files.

    File layout is flat: ``<runs dir>/<run_id>.json`` where ``run_id``
    is ``<experiment>-<utc stamp>-<config hash>`` (a numeric suffix
    disambiguates records saved within the same second).
    """

    def __init__(self, root: Optional[str] = None, *, io=None):
        self.root = root if root is not None else runs_dir_default()
        #: Durable-I/O backend for record writes (None → the real
        #: filesystem); the crash-consistency campaign injects a
        #: :class:`repro.fsio.FaultyIO` here.
        self.io = io

    # ---- writing ----------------------------------------------------------
    def save(self, record: RunRecord) -> str:
        """Assign identity, write the record, return its path."""
        os.makedirs(self.root, exist_ok=True)
        if not record.created_at:
            # created_at is quarantined by the determinism contract:
            # it may differ between runs and is never diffed.
            record.created_at = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()  # repro: allow[DET003]
            )
        if not record.run_id:
            stamp = record.created_at.replace(":", "").replace("-", "")
            stamp = stamp.replace("T", "-").rstrip("Z")
            short = record.provenance.get("config_hash", "nohash")
            base = f"{record.experiment}-{stamp}-{short}"
            run_id, n = base, 1
            while os.path.exists(self._path(run_id)):
                run_id = f"{base}.{n}"
                n += 1
            record.run_id = run_id
        path = self._path(record.run_id)
        atomic_write_json(path, record.to_dict(), io=self.io)
        return path

    def _path(self, run_id: str) -> str:
        return os.path.join(self.root, f"{run_id}.json")

    # ---- reading ----------------------------------------------------------
    def load_path(self, path: str) -> RunRecord:
        """The record at ``path``; ValueError if it cannot be one."""
        payload, error = read_json(path)
        if error is None and not isinstance(payload, dict):
            error = "not a JSON object"
        if error is not None:
            raise ValueError(f"{path}: {error}")
        return RunRecord.from_dict(payload)

    def scan(self, *, quarantine: bool = False):
        """One parse of every record file: ``(records, problems)``.

        ``problems`` holds a ``(path, reason, corrupt)`` triple for each
        file that could not be read as a current-schema record;
        ``corrupt`` marks files that are not JSON at all (``fsck``
        reports exactly those), as opposed to foreign or future-schema
        records.  With ``quarantine=True`` (what :meth:`records` uses)
        corrupt files are renamed aside; with the default ``False`` the
        scan is strictly read-only — the observatory renders the same
        runs directory twice and must find it byte-identical both times.
        """
        loaded: List[RunRecord] = []
        problems: List[Tuple[str, str, bool]] = []
        if not os.path.isdir(self.root):
            return loaded, problems
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            payload, error = read_json(path)
            if error is not None:
                # Truncated or corrupt on disk (a crash mid-write under a
                # pre-atomic writer): move it aside so report/history keep
                # working, and keep the evidence for inspection.
                if quarantine:
                    quarantine_corrupt(path)
                problems.append((path, error, True))
                continue
            try:
                loaded.append(RunRecord.from_dict(payload))
            except (ValueError, KeyError, TypeError, AttributeError) as error:
                # Foreign or future-schema file; not ours to read.
                problems.append((path, str(error), False))
        loaded.sort(key=lambda r: (r.created_at, r.run_id))
        return loaded, problems

    def records(self, experiment: Optional[str] = None) -> List[RunRecord]:
        """All records (optionally one experiment's), oldest first."""
        loaded, _ = self.scan(quarantine=True)
        if experiment is not None:
            loaded = [r for r in loaded if r.experiment == experiment]
        return loaded

    def experiments(self) -> List[str]:
        """Distinct experiment names present in the registry."""
        return sorted({record.experiment for record in self.records()})

    def latest(self, experiment: str) -> Optional[RunRecord]:
        """The most recent record for one experiment, if any."""
        records = self.records(experiment)
        return records[-1] if records else None

    def resolve(self, ref: str) -> RunRecord:
        """Resolve a CLI reference to a record.

        Accepted forms, tried in order:

        - a path to a record file (``benchmarks/baselines/fig1.json``),
        - a run id stored in this registry,
        - ``<experiment>`` — that experiment's latest record,
        - ``<experiment>~N`` — the N-th record before the latest.
        """
        if os.path.isfile(ref):
            return self.load_path(ref)
        if os.path.isfile(self._path(ref)):
            return self.load_path(self._path(ref))
        name, back = ref, 0
        if "~" in ref:
            name, _, suffix = ref.rpartition("~")
            try:
                back = int(suffix)
            except ValueError:
                name, back = ref, 0
        records = self.records(name)
        if not records:
            raise KeyError(
                f"no run record matches {ref!r} in {self.root!r} "
                f"(known experiments: {', '.join(self.experiments()) or 'none'})"
            )
        if back >= len(records):
            raise KeyError(
                f"{name!r} has only {len(records)} record(s); "
                f"cannot step back {back}"
            )
        return records[-1 - back]
