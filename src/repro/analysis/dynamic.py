"""The dynamic half of the sanitizer: a hash-seed cross-check.

Static rules catch the *patterns* that produce PYTHONHASHSEED
sensitivity; this module is the runtime oracle that would have caught
the PR-4 shuffle bug in seconds: run one small fixed-seed workload in
two subprocesses under different ``PYTHONHASHSEED`` values and require
the resulting registry records to be byte-for-byte identical after
stripping the fields the determinism contract explicitly quarantines
(``run_id``, ``created_at``, ``timings``).

The probe replays the workload on the simulated cluster (``repro run
--cluster``): the cluster replay consumes *per-task* statistics whose
partition skew is exactly what salted hashing perturbs, whereas the
profile-only path aggregates per-partition work before any metric is
derived and therefore cannot observe a partitioning change.  Hadoop
workloads make the sharpest oracle — their reduce waves inherit each
partition's actual byte counts — so ``H-WordCount`` is the default.

Everything else — every metric, every series row — must match exactly,
because the simulator's contract is bit-reproducibility, not
approximate agreement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import LintError

#: Default hash seeds: distinct, nonzero (0 disables salting entirely).
DEFAULT_HASH_SEEDS = (1, 731)

#: Record fields the determinism contract quarantines (may differ).
VOLATILE_FIELDS = ("run_id", "created_at", "timings")


def canonical_record_bytes(record: Dict[str, object]) -> bytes:
    """A record's comparable bytes: volatile fields zeroed, keys sorted.

    ``provenance`` stays in: seed, scale, platforms and config hash must
    agree or the two runs weren't the same experiment at all.
    """
    reduced = {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }
    return json.dumps(
        reduced, indent=2, sort_keys=True, ensure_ascii=True
    ).encode("utf-8")


def divergent_paths(
    a: Dict[str, object], b: Dict[str, object], prefix: str = ""
) -> List[str]:
    """Dotted paths at which two canonical records differ (sorted)."""
    paths: List[str] = []
    keys = sorted(set(a) | set(b))
    for key in keys:
        here = f"{prefix}.{key}" if prefix else str(key)
        if key not in a or key not in b:
            paths.append(here)
            continue
        va, vb = a[key], b[key]
        if isinstance(va, dict) and isinstance(vb, dict):
            paths.extend(divergent_paths(va, vb, here))
        elif va != vb:
            paths.append(here)
    return paths


@dataclass
class CrossCheckResult:
    """Outcome of one two-hash-seed determinism probe."""

    workload: str
    scale: float
    seed: int
    hash_seeds: Tuple[int, ...]
    identical: bool
    divergent: List[str] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "hash_seeds": list(self.hash_seeds),
            "identical": self.identical,
            "divergent": list(self.divergent),
        }

    def render(self) -> str:
        seeds = " vs ".join(str(s) for s in self.hash_seeds)
        head = (
            f"hash-seed cross-check: {self.workload} "
            f"(scale {self.scale:g}, seed {self.seed}) "
            f"under PYTHONHASHSEED {seeds}"
        )
        if self.identical:
            return f"{head}\nidentical: records match byte-for-byte"
        lines = [head, f"DIVERGED at {len(self.divergent)} path(s):"]
        lines.extend(f"  {path}" for path in self.divergent[:25])
        if len(self.divergent) > 25:
            lines.append(f"  ... and {len(self.divergent) - 25} more")
        lines.append(
            "a metric depends on PYTHONHASHSEED — run `repro lint` and "
            "look for DET001/DET004 findings on the paths above"
        )
        return "\n".join(lines)


def _source_root() -> str:
    """The directory ``repro`` imports from, for the child PYTHONPATH."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_once(
    workload: str,
    scale: float,
    seed: int,
    hash_seed: int,
    runs_dir: str,
    timeout: float,
) -> Dict[str, object]:
    """Run the workload in a child with PYTHONHASHSEED pinned."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = _source_root() + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_RUNS_DIR", None)
    command = [
        sys.executable, "-m", "repro",
        "--scale", repr(scale),
        "--runs-dir", runs_dir,
        "run", workload, "--seed", str(seed), "--cluster", "--json",
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired:
        raise LintError(
            f"hash-seed probe timed out after {timeout:g}s",
            workload=workload, hash_seed=hash_seed,
        )
    if proc.returncode != 0:
        raise LintError(
            f"hash-seed probe exited {proc.returncode}: "
            f"{proc.stderr.strip() or proc.stdout.strip()}",
            workload=workload, hash_seed=hash_seed,
        )
    names = sorted(
        name for name in os.listdir(runs_dir) if name.endswith(".json")
    )
    if len(names) != 1:
        raise LintError(
            f"expected exactly one record in {runs_dir}, found {names}",
            workload=workload, hash_seed=hash_seed,
        )
    with open(os.path.join(runs_dir, names[0]), "r", encoding="utf-8") as fh:
        return json.load(fh)


def hashseed_crosscheck(
    workload: str = "H-WordCount",
    scale: float = 0.2,
    seed: int = 0,
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
    timeout: float = 600.0,
    work_dir: Optional[str] = None,
) -> CrossCheckResult:
    """Run ``workload`` under each hash seed and diff the records."""
    seeds = tuple(hash_seeds)
    if len(seeds) < 2:
        raise LintError(
            "the cross-check needs at least two hash seeds", seeds=seeds
        )
    records: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(
        prefix="repro-lint-dynamic-", dir=work_dir
    ) as scratch:
        for index, hash_seed in enumerate(seeds):
            runs_dir = os.path.join(scratch, f"hs{index}")
            os.makedirs(runs_dir, exist_ok=True)
            records.append(
                _run_once(workload, scale, seed, hash_seed, runs_dir, timeout)
            )
    blobs = [canonical_record_bytes(record) for record in records]
    identical = all(blob == blobs[0] for blob in blobs[1:])
    divergent: List[str] = []
    if not identical:
        first = json.loads(blobs[0].decode("utf-8"))
        for blob in blobs[1:]:
            other = json.loads(blob.decode("utf-8"))
            divergent.extend(divergent_paths(first, other))
        divergent = sorted(set(divergent))
    return CrossCheckResult(
        workload=workload,
        scale=scale,
        seed=seed,
        hash_seeds=seeds,
        identical=identical,
        divergent=divergent,
        records=records,
    )
