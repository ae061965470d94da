"""Crash-safe sweep checkpoints: an append-only journal of finished cells.

Layout, under ``<runs dir>/sweeps/<sweep_id>/``:

- ``manifest.json`` — the sweep's identity: config hash, seed, the
  config itself and the cell count.  Written atomically once, checked
  on resume so a checkpoint can never be resumed under a different
  configuration.
- ``journal.jsonl`` — one line per completed cell, appended with
  flush + fsync *before* the supervisor considers the cell done.  A
  SIGKILL at any instant loses at most the in-flight cells; a torn
  final line (crash mid-append) is detected and dropped on load.  It
  is the only record of finished cells: a cell missing from it simply
  reruns, bit-identically.
- ``trace/*.spans.jsonl``, ``trace.json`` — the best-effort span
  files (the one record of the sweep's execution) and their merge.
- ``sweep.lock`` — an advisory lockfile (JSON ``{"pid": ...}``) held
  while an executor owns the checkpoint, so two concurrent resumes of
  the same sweep cannot interleave journal appends.  A lock whose
  holder pid is no longer alive is *stale* and broken automatically; a
  live holder raises :class:`~repro.errors.SweepLockError`.

The durable key is (config hash, seed): ``repro sweep --resume`` finds
the checkpoint by recomputing the hash from its arguments, so "the same
sweep" is a property of the request, not of a process lifetime.

This module owns that layout: :class:`SweepDir` names every path and
:meth:`SweepDir.read` is the one read-only parse of a directory, shared
by ``repro fsck``, the observatory and ``repro metrics``; resume reads
the journal alone through :meth:`SweepDir.read_journal`, the same
parse :meth:`SweepDir.read` uses for it;
:func:`sweep_dirs` enumerates the sweeps of a runs directory.

All writes route through :mod:`repro.fsio` (the ``io`` constructor
argument), which is what lets the crash-consistency campaign enumerate
every syscall boundary in this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, SweepLockError
from repro.fsio import (
    JournalWriter,
    SimulatedCrash,
    fsync_dir,
    read_json,
    read_jsonl,
    write_json_atomic,
)
from repro.exec.cells import CellResult

if TYPE_CHECKING:
    from repro.obs.tracer import Span

#: Bumped on incompatible checkpoint-layout changes.
CHECKPOINT_VERSION = 1

#: Lockfile name inside a sweep checkpoint directory.
LOCK_FILE = "sweep.lock"

#: Suffix ``repro fsck --repair`` gives a sweep directory it sets aside
#: (``<sweep>.orphan``, then ``<sweep>.orphan.1``, ...).
ORPHAN_SUFFIX = ".orphan"


def sweeps_root(runs_dir: str) -> str:
    """The directory holding every sweep checkpoint of a runs dir."""
    return os.path.join(runs_dir, "sweeps")


def is_orphan(name: str) -> bool:
    """True for a sweep directory name fsck has set aside."""
    return name.endswith(ORPHAN_SUFFIX) or f"{ORPHAN_SUFFIX}." in name


def sweep_dirs(runs_dir: str) -> List["SweepDir"]:
    """Every live sweep directory of a runs dir, sorted by name."""
    root = sweeps_root(runs_dir)
    if not os.path.isdir(root):
        return []
    return [
        SweepDir(os.path.join(root, name))
        for name in sorted(os.listdir(root))
        if not is_orphan(name) and os.path.isdir(os.path.join(root, name))
    ]


def _parse_cell(data: object) -> Optional[CellResult]:
    """The one validity test for journal entries."""
    try:
        return CellResult.from_dict(data)
    except (KeyError, ValueError, TypeError, AttributeError):
        return None


@dataclass
class SweepState:
    """One read-only parse of a sweep directory (:meth:`SweepDir.read`)."""

    #: The manifest; None when missing or unreadable.
    manifest: Optional[dict] = None
    #: Valid journal entries as ``(lineno, result)``, in file order.
    journal: List[Tuple[int, CellResult]] = field(default_factory=list)
    #: 1-based journal lines that do not parse or are not valid cells.
    bad_journal_lines: List[int] = field(default_factory=list)
    #: The only bad journal line is the last one (crash mid-append).
    torn_journal: bool = False
    #: Host-clock span and instant records from every span file.
    spans: List[Span] = field(default_factory=list)
    #: ``(path, reason)`` for every artifact that did not read cleanly.
    damage: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def results(self) -> Dict[str, CellResult]:
        """Completed cells by id; a later journal entry wins."""
        return {r.cell_id: r for _, r in self.journal}


class SweepDir:
    """The on-disk layout of one sweep directory, and its read path."""

    def __init__(self, path: str):
        self.dir = path
        self.name = os.path.basename(path)
        self.manifest_path = os.path.join(path, "manifest.json")
        self.journal_path = os.path.join(path, "journal.jsonl")
        self.lock_path = os.path.join(path, LOCK_FILE)
        self.trace_dir = os.path.join(path, "trace")
        self.trace_path = os.path.join(path, "trace.json")

    def read(self) -> SweepState:
        """Parse every artifact without modifying the directory.

        Nothing raises and nothing is renamed: each file that does not
        read cleanly becomes a ``damage`` entry, and what can be used
        of it is used.  Callers pick the policy.
        """
        state = SweepState()
        state.manifest = _read_object(self.manifest_path, state.damage)
        self.read_journal(state)

        # Imported here: repro.exec.tracing imports repro.obs, whose
        # observatory imports this module.
        from repro.exec.tracing import read_spans

        state.spans, span_damage = read_spans(self.trace_dir)
        state.damage.extend(span_damage)
        _read_object(self.trace_path, state.damage)
        return state

    def read_journal(self, state: Optional[SweepState] = None) -> SweepState:
        """Parse the journal alone into ``state`` (a new one by default).

        The journal's part of :meth:`read`; resume needs nothing else,
        so it never parses the span files or the merged trace.
        """
        if state is None:
            state = SweepState()
        damage = state.damage
        entries, bad, torn = _read_lines(self.journal_path, damage)
        invalid = []
        for lineno, obj in entries:
            result = _parse_cell(obj)
            if result is None:
                invalid.append(lineno)
            else:
                state.journal.append((lineno, result))
        if invalid:
            damage.append((self.journal_path,
                           f"{len(invalid)} invalid cell entr(y/ies)"))
        state.bad_journal_lines = sorted(bad + invalid)
        state.torn_journal = torn and not invalid
        return state


def _read_object(path: str, damage: List[Tuple[str, str]]) -> Optional[dict]:
    """A JSON object file, or None (absent, or damage noted)."""
    if not os.path.isfile(path):
        return None
    payload, error = read_json(path)
    if error is None and not isinstance(payload, dict):
        error = "not a JSON object"
    if error is not None:
        damage.append((path, error))
        return None
    return payload


def _read_lines(path: str, damage: List[Tuple[str, str]]):
    """:func:`read_jsonl`, with bad lines or a failed read noted."""
    try:
        entries, bad, torn = read_jsonl(path)
    except OSError as exc:
        damage.append((path, f"unreadable: {exc}"))
        return [], [], False
    if bad:
        damage.append((path, f"{len(bad)} unparseable line(s)"))
    return entries, bad, torn


def sweep_id(name: str, config_hash: str, seed: int) -> str:
    """The durable checkpoint key for one sweep request."""
    return f"{name}-{config_hash}-s{seed}"


class SweepLock:
    """Advisory per-sweep lockfile with stale-holder detection.

    Created with ``O_EXCL`` so exactly one process wins; the file body
    is JSON ``{"pid": ...}``.  A lock is considered *stale* — and
    silently broken — when any of these hold:

    - the recorded pid is not alive (``os.kill(pid, 0)`` says so);
    - the recorded pid is *this* process (a previous in-process owner
      crashed without releasing — the simulated-crash path — and a
      process cannot race itself);
    - the body does not parse (the lock itself was torn by a crash).

    A lock held by a different live process raises
    :class:`~repro.errors.SweepLockError`.
    """

    def __init__(self, path: str, io=None):
        from repro.fsio import REAL_IO
        self.path = path
        self.io = io if io is not None else REAL_IO
        self._held = False

    def acquire(self) -> None:
        if self._held:
            return
        self.io.makedirs(os.path.dirname(self.path) or ".")
        while True:
            try:
                handle = self.io.open_exclusive(self.path)
            except FileExistsError:
                holder = self._holder_pid()
                if holder is not None and self._alive(holder):
                    raise SweepLockError(
                        f"sweep checkpoint is locked by live pid {holder}; "
                        f"another resume is running (remove {self.path} "
                        f"only if you are sure it is not)",
                    )
                # Stale (dead holder, our own pid, or torn body): break it.
                try:
                    self.io.remove(self.path)
                except FileNotFoundError:
                    pass  # the holder released between our check and remove
                continue
            try:
                self.io.write(handle, json.dumps({"pid": os.getpid()}) + "\n")
                self.io.flush(handle)
            finally:
                self.io.close(handle)
            self._held = True
            return

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.io.remove(self.path)
        except (OSError, SimulatedCrash):  # repro: allow[ERR002]
            # A dead (or dying) process cannot release its lock: the
            # stale file stays behind for fsck / the next acquire to
            # break, which is exactly the state being simulated.
            pass

    def _holder_pid(self) -> Optional[int]:
        """The pid recorded in the lockfile, or None if unreadable."""
        body, _ = read_json(self.path)
        try:
            return int(body["pid"])
        except (ValueError, KeyError, TypeError):
            return None  # torn or foreign lock body: treat as stale

    @staticmethod
    def _alive(pid: int) -> bool:
        if pid == os.getpid():
            return False  # our own leftover (in-process crash recovery)
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # repro: allow[ERR002] — signal-0 probe, not a write
            return True  # alive, just not ours to signal
        except OSError:  # repro: allow[ERR002] — signal-0 probe, not a write
            return False
        return True


class SweepCheckpoint(SweepDir):
    """Journaled progress of one sweep, resumable after any crash."""

    def __init__(self, root: str, sweep: str, *, io=None):
        super().__init__(os.path.join(sweeps_root(root), sweep))
        self.sweep = sweep
        self.io = io
        self.lock = SweepLock(self.lock_path, io=io)
        self._journal: Optional[JournalWriter] = None

    def exists(self) -> bool:
        return os.path.isfile(self.manifest_path)

    # ---- lifecycle --------------------------------------------------------
    def initialise(self, *, config_hash: str, seed: int, config: dict,
                   n_cells: int) -> None:
        """Create the checkpoint directory and manifest (idempotent).

        Resuming with a different config hash is refused: a checkpoint
        answers exactly one (config, seed) request.
        """
        from repro.fsio import REAL_IO
        (self.io or REAL_IO).makedirs(self.dir)
        if self.exists():
            manifest = self.manifest()
            if manifest.get("config_hash") != config_hash:
                raise CheckpointError(
                    f"checkpoint {self.sweep!r} belongs to config "
                    f"{manifest.get('config_hash')!r}, not {config_hash!r}; "
                    f"remove {self.dir} or change --name",
                )
            return
        write_json_atomic(self.manifest_path, {
            "version": CHECKPOINT_VERSION,
            "sweep": self.sweep,
            "config_hash": config_hash,
            "seed": seed,
            "config": config,
            "n_cells": n_cells,
        }, io=self.io)

    def manifest(self) -> dict:
        manifest, error = read_json(self.manifest_path)
        if error is not None:
            raise CheckpointError(
                f"unreadable sweep manifest {self.manifest_path}: {error}"
            )
        return manifest

    # ---- writing ----------------------------------------------------------
    def record(self, result: CellResult) -> None:
        """Durably journal one finished cell before anything else sees it."""
        if self._journal is None:
            self._journal = JournalWriter(self.journal_path, io=self.io)
        self._journal.append(result.to_dict())

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        fsync_dir(self.dir, io=self.io)

    # ---- reading ----------------------------------------------------------
    def load(self) -> Dict[str, CellResult]:
        """Reconstruct completed cells from the journal.

        Bad journal lines (a torn tail from a crash mid-append, or
        corruption) are skipped and their cells rerun.  Only the
        journal is read (:meth:`SweepDir.read_journal`).
        """
        return self.read_journal().results
