"""``repro.fsio``: the durable-I/O layer under the run-registry storage tier.

Every byte the substrate persists — registry records, sweep journals
and snapshots, progress streams, span files, merged traces — now flows
through this module, for two reasons:

- **One durability contract.**  There are exactly three write shapes
  (DESIGN §5i): the *atomic replace* (tmp file → flush → fsync →
  ``os.replace`` → parent-dir fsync) behind :func:`write_json_atomic`
  and :func:`write_jsonl_atomic`, the *durable append*
  (:class:`JournalWriter`: write line → flush → fsync before the caller
  proceeds), and the *best-effort append* (:class:`BestEffortWriter`:
  observability streams that may drop data but must *count* every drop
  instead of swallowing it).  Hand-rolled fsync choreography in the
  writers is gone; so are the silent ``except OSError: pass`` holes.

- **Injectable failure.**  Every syscall-shaped operation goes through
  an :class:`IOBackend`.  The default :data:`REAL_IO` talks to the
  real filesystem; :class:`FaultyIO` deterministically simulates torn
  writes, short writes, ``ENOSPC``/``EIO``, lying fsyncs and whole-
  process crash at any operation boundary (ALICE/CrashMonkey-style
  crash points).  The crash-consistency campaign
  (:mod:`repro.analysis.crashsim`) enumerates those boundaries and
  proves — not hopes — that ``repro fsck`` plus ``--resume`` recovers
  every one of them with bit-identical metrics.

- **One tolerant read path.**  :func:`read_json` and :func:`read_jsonl`
  are the only parsers of these files: resume, ``repro fsck``, the
  observatory and ``repro metrics`` all agree on what a torn line is
  and differ only in what they do about it.

Crash semantics simulated by :class:`FaultyIO` (and therefore the
states ``repro fsck`` must handle):

- data written but not fsynced is lost, wholly or as a *torn* seeded
  prefix, when the crash hits;
- an fsync that *lied* (``fsync_lies=True``) leaves its data just as
  volatile as unsynced data;
- an ``os.replace`` not followed by a parent-directory fsync may be
  rolled back by the crash — the old file reappears and the new
  content survives only as the leaked ``*.tmp`` source file;
- creates/removes/mkdirs are treated as immediately durable (a
  deliberate simplification; the journal/record protocols never depend
  on their ordering).
"""

from __future__ import annotations

import errno as errno_mod
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class SimulatedCrash(BaseException):
    """The injected process death of a :class:`FaultyIO` crash point.

    Deliberately a ``BaseException``: a crash must tear through every
    ``except Exception``/``except OSError`` in the storage tier exactly
    the way SIGKILL would, so no writer can "handle" its own death.
    """

    def __init__(self, op_index: int, op: str, path: str):
        self.op_index = op_index
        self.op = op
        self.path = path
        super().__init__(f"simulated crash at op {op_index} ({op} {path})")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class RealIO:
    """The production backend: thin pass-through to the OS.

    Methods mirror the syscall boundaries :class:`FaultyIO` can fault,
    so a writer coded against this interface is automatically
    crash-testable.
    """

    def open(self, path: str, mode: str):
        return open(path, mode, encoding="utf-8")

    def open_exclusive(self, path: str):
        """Create-or-fail open (O_EXCL), for advisory lock files."""
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        return os.fdopen(fd, "w", encoding="utf-8")

    def write(self, handle, data: str) -> None:
        handle.write(data)

    def flush(self, handle) -> None:
        handle.flush()

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def fsync_path(self, path: str) -> None:
        """fsync a path (directories: rename/create durability)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def remove(self, path: str) -> None:
        os.remove(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))


#: The default backend used whenever a writer is given ``io=None``.
REAL_IO = RealIO()


def _io(io) -> RealIO:
    return io if io is not None else REAL_IO


# ---------------------------------------------------------------------------
# The three write shapes
# ---------------------------------------------------------------------------

def fsync_dir(path: str, io=None) -> None:
    """Best-effort directory fsync (rename/create durability).

    Advisory by design: some filesystems refuse directory fsync, and a
    refused fsync only widens the crash window — it never corrupts —
    so this is the one sanctioned swallow in the durable path.
    """
    backend = _io(io)
    try:
        backend.fsync_path(path)
    except OSError:  # repro: allow[ERR002] — advisory; see docstring
        pass


def _line(record: dict) -> str:
    """One record in the compact, key-sorted JSONL line format."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _replace_atomic(path: str, text: str, io=None) -> None:
    """Crash-safe file replace: tmp file + flush + fsync + ``os.replace``.

    A reader never observes a half-written file: either the old content
    (or nothing) or the complete new content exists at ``path``.  If the
    write *fails* (``ENOSPC``, ``EIO``) the tmp file is removed before
    the error propagates, so failed writes do not leak ``*.tmp`` litter
    — only a genuine crash can, and ``repro fsck`` sweeps those up.
    """
    backend = _io(io)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        handle = backend.open(tmp, "w")
        try:
            backend.write(handle, text)
            backend.flush(handle)
            backend.fsync(handle)
        finally:
            backend.close(handle)
        backend.replace(tmp, path)
    except Exception:
        # Failed atomic writes must not leak their tmp file.  (A
        # SimulatedCrash is a BaseException and deliberately skips this
        # cleanup: a dead process cannot tidy up after itself.)
        try:
            backend.remove(tmp)
        except OSError:  # repro: allow[ERR002] — original error propagates
            pass  # an unremovable tmp is litter for fsck, not a new error
        raise
    fsync_dir(os.path.dirname(path) or ".", io=backend)


def write_json_atomic(path: str, payload: object, *, indent: int = 2,
                      io=None) -> None:
    """Atomically replace ``path`` with ``payload`` as a JSON document.

    A payload that does not serialize raises before any file is touched.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    _replace_atomic(path, text, io)


def write_jsonl_atomic(path: str, records: List[dict], io=None) -> None:
    """Atomically replace ``path`` with ``records``, one line each."""
    _replace_atomic(path, "".join(_line(r) + "\n" for r in records), io)


class JournalWriter:
    """Durable append-only JSONL writer: flush + fsync per record.

    The write protocol for data the substrate *must not lose*: a
    record handed to :meth:`append` is on disk (modulo lying hardware)
    before the call returns.  I/O errors propagate — a journal that
    cannot persist must fail loudly, never silently.
    """

    def __init__(self, path: str, io=None):
        self.path = path
        self.io = _io(io)
        self._handle = None

    def append(self, record: dict) -> None:
        """Durably append one record (opens the journal lazily)."""
        if self._handle is None:
            self.io.makedirs(os.path.dirname(self.path) or ".")
            needs_newline = self._torn_tail()
            self._handle = self.io.open(self.path, "a")
            if needs_newline:
                # A previous process died (or hit ENOSPC) mid-append:
                # isolate its torn fragment on its own line so it can
                # never concatenate with — and corrupt — our record.
                self.io.write(self._handle, "\n")
        self.io.write(self._handle, _line(record) + "\n")
        self.io.flush(self._handle)
        self.io.fsync(self._handle)

    def _torn_tail(self) -> bool:
        """True when the journal exists and lacks a trailing newline."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:  # repro: allow[ERR002] — read-path probe of the tail
            return False  # absent (the common case) or unreadable

    def close(self) -> None:
        if self._handle is not None:
            self.io.close(self._handle)
            self._handle = None


@dataclass
class WriterStats:
    """Drop accounting for one best-effort writer."""

    writes: int = 0
    writer_errors: int = 0
    dropped_events: int = 0
    #: The first error observed, kept for diagnostics.
    first_error: str = ""


class BestEffortWriter:
    """Append-only JSONL writer for observability streams.

    Progress events and spans must never fail a sweep, but PR 8 made
    them fail *silently*: a dead disk dropped data without a trace.
    This writer degrades the same way — after the first I/O error it
    stops touching the disk — but every dropped record is counted in
    :attr:`stats`, the counters ride into the run record's ``exec.*``
    telemetry, and the first failure prints a one-time stderr warning.
    """

    def __init__(self, path: str, io=None, *, label: str = "writer"):
        self.path = path
        self.io = _io(io)
        self.label = label
        self.stats = WriterStats()
        self._handle = None
        self._failed = False

    def append(self, record: dict) -> bool:
        """Write one record; returns False (and counts) on a drop."""
        if self._failed:
            self.stats.dropped_events += 1
            return False
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError) as error:
            self._note_failure(error)
            return False
        try:
            if self._handle is None:
                self.io.makedirs(os.path.dirname(self.path) or ".")
                self._handle = self.io.open(self.path, "a")
            self.io.write(self._handle, line + "\n")
            self.io.flush(self._handle)
        except OSError as error:
            self._note_failure(error)
            return False
        self.stats.writes += 1
        return True

    def _note_failure(self, error: BaseException) -> None:
        """Latch the failure, count the drop, warn exactly once."""
        self._failed = True
        self.stats.writer_errors += 1
        self.stats.dropped_events += 1
        self.stats.first_error = f"{type(error).__name__}: {error}"
        print(
            f"warning: {self.label} can no longer write {self.path} "
            f"({self.stats.first_error}); further events will be "
            f"dropped and counted",
            file=sys.stderr,
        )

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.io.close(self._handle)
            except OSError as error:
                self.stats.writer_errors += 1
                self.stats.first_error = (
                    self.stats.first_error
                    or f"{type(error).__name__}: {error}"
                )
            self._handle = None

    def telemetry(self, prefix: str) -> Dict[str, float]:
        """The counters as ``<prefix>_*`` telemetry entries."""
        return {
            f"{prefix}_writes": float(self.stats.writes),
            f"{prefix}_writer_errors": float(self.stats.writer_errors),
            f"{prefix}_dropped_events": float(self.stats.dropped_events),
        }


def quarantine_corrupt(path: str, io=None) -> str:
    """Move an unreadable artifact aside to ``<file>.corrupt`` and warn.

    Returns the quarantine path (a numeric suffix disambiguates repeat
    offenders).  Never raises: if the rename itself fails the original
    file is left in place and only the warning is printed.
    """
    backend = _io(io)
    target, n = f"{path}.corrupt", 1
    while backend.exists(target):
        target = f"{path}.corrupt.{n}"
        n += 1
    try:
        backend.replace(path, target)
    except OSError as error:
        print(f"warning: could not quarantine {path}: {error}",
              file=sys.stderr)
        target = path
    print(
        f"warning: {path} is truncated or corrupt; quarantined to {target}",
        file=sys.stderr,
    )
    return target


# ---------------------------------------------------------------------------
# The read path
# ---------------------------------------------------------------------------

def read_json(path: str) -> Tuple[object, Optional[str]]:
    """Parse one JSON file: ``(payload, error)`` with exactly one set.

    Never raises: an unreadable or corrupt file comes back as an error
    string, and the caller picks the policy (raise, quarantine, report).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle), None
    except OSError as exc:
        return None, f"unreadable: {exc}"
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return None, f"corrupt JSON: {exc}"


def read_jsonl(path: str) -> Tuple[List[Tuple[int, dict]], List[int], bool]:
    """Parse a JSONL file: ``(entries, bad_linenos, torn)``.

    ``entries`` are the ``(lineno, object)`` pairs of lines that parse
    as JSON objects; every other non-empty line is *bad* (line numbers
    are 1-based).  ``torn`` means exactly one line is bad and it is the
    last non-empty one: the crash-mid-append shape, repairable by
    truncation.  Bad lines anywhere else are corruption.  A missing
    file reads as empty; other I/O errors propagate.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return [], [], False
    entries: List[Tuple[int, dict]] = []
    bad: List[int] = []
    last = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        last = lineno
        try:
            obj = json.loads(line)
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            obj = None
        if isinstance(obj, dict):
            entries.append((lineno, obj))
        else:
            bad.append(lineno)
    return entries, bad, bad == [last]


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

@dataclass
class _FileState:
    """Durability bookkeeping for one path under :class:`FaultyIO`."""

    synced_len: int = 0
    current_len: int = 0

    @property
    def unsynced(self) -> int:
        return self.current_len - self.synced_len


@dataclass
class _PendingReplace:
    """An ``os.replace`` whose parent directory was not fsynced yet."""

    src: str
    dst: str
    old_content: Optional[bytes]  # dst's bytes before the replace


class _TrackedFile:
    """A real file handle plus the path identity FaultyIO tracks."""

    def __init__(self, path: str, handle):
        self.path = path
        self.handle = handle
        self.closed = False


class FaultyIO:
    """Deterministic fault-injecting backend over the real filesystem.

    Construction arguments:

    - ``seed`` — drives every random choice (torn-write lengths,
      rename rollback) so a campaign run is exactly reproducible;
    - ``crash_at`` — the operation index at which the simulated
      process dies: the op applies a *partial* effect (a torn seeded
      prefix for writes, nothing for fsync/replace) and raises
      :class:`SimulatedCrash`; every later operation raises too,
      because dead processes do not write;
    - ``errors`` — ``{op_index: errno}`` injected I/O failures: a
      write performs a seeded *short write* before raising, everything
      else raises cleanly;
    - ``fsync_lies`` — fsync returns success without making data
      durable, the classic volatile-write-cache lie.

    After a crash, :meth:`apply_crash` reshapes the on-disk state into
    one the dead process could have left behind: unsynced (or
    lied-about) tails are torn at a seeded byte, unpersisted renames
    are rolled back — leaking the ``*.tmp`` source — and open handles
    are closed.  ``repro fsck`` and ``--resume`` then face exactly what
    a real crash would have produced.
    """

    def __init__(self, *, seed: int = 0, crash_at: Optional[int] = None,
                 errors: Optional[Dict[int, int]] = None,
                 fsync_lies: bool = False):
        self.seed = seed
        self.crash_at = crash_at
        self.errors = dict(errors or {})
        self.fsync_lies = fsync_lies
        self.rng = random.Random(seed)
        self.ops = 0
        self.crashed = False
        self.log: List[Tuple[int, str, str]] = []
        self._files: Dict[str, _FileState] = {}
        self._open: List[_TrackedFile] = []
        self._pending_replaces: List[_PendingReplace] = []

    # ---- the operation gate ----------------------------------------------
    def _op(self, kind: str, path: str) -> int:
        """Count one syscall boundary; inject the configured fault.

        Writes handle their own errno injection (a failing ``write``
        performs a seeded *short write* before raising — the partial
        data that reached the disk); every other op fails cleanly.
        """
        if self.crashed:
            raise SimulatedCrash(self.ops, kind, path)
        index = self.ops
        self.ops += 1
        self.log.append((index, kind, path))
        injected = self.errors.get(index)
        if injected is not None and kind != "write":
            raise OSError(injected, os.strerror(injected), path)
        return index

    def _maybe_crash(self, index: int, kind: str, path: str) -> None:
        if self.crash_at is not None and index == self.crash_at:
            self.crashed = True
            raise SimulatedCrash(index, kind, path)

    def _state(self, path: str) -> _FileState:
        return self._files.setdefault(path, _FileState())

    # ---- backend interface -----------------------------------------------
    def open(self, path: str, mode: str):
        index = self._op("open", path)
        self._maybe_crash(index, "open", path)
        handle = open(path, mode, encoding="utf-8")
        size = os.path.getsize(path)
        state = self._state(path)
        # Bytes present before this process opened the file are durable;
        # only what *we* write is at risk.
        state.synced_len = size
        state.current_len = size
        tracked = _TrackedFile(path, handle)
        self._open.append(tracked)
        return tracked

    def open_exclusive(self, path: str):
        index = self._op("open-excl", path)
        self._maybe_crash(index, "open-excl", path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        handle = os.fdopen(fd, "w", encoding="utf-8")
        state = self._state(path)
        state.synced_len = 0
        state.current_len = 0
        tracked = _TrackedFile(path, handle)
        self._open.append(tracked)
        return tracked

    def write(self, tracked, data: str) -> None:
        index = self._op("write", tracked.path)
        payload = data.encode("utf-8")
        injected = self.errors.get(index)
        crashing = self.crash_at is not None and index == self.crash_at
        if crashing or injected is not None:
            # Short/torn write: a seeded prefix reaches the disk before
            # the failure — crash (death) or errno (ENOSPC mid-buffer).
            torn = payload[: self.rng.randint(0, len(payload))]
            if torn:
                tracked.handle.write(torn.decode("utf-8", "ignore"))
                tracked.handle.flush()
                self._state(tracked.path).current_len += len(torn)
            if crashing:
                self.crashed = True
                raise SimulatedCrash(index, "write", tracked.path)
            raise OSError(injected, os.strerror(injected), tracked.path)
        tracked.handle.write(data)
        self._state(tracked.path).current_len += len(payload)

    def flush(self, tracked) -> None:
        index = self._op("flush", tracked.path)
        self._maybe_crash(index, "flush", tracked.path)
        tracked.handle.flush()

    def fsync(self, tracked) -> None:
        index = self._op("fsync", tracked.path)
        self._maybe_crash(index, "fsync", tracked.path)
        tracked.handle.flush()
        if not self.fsync_lies:
            os.fsync(tracked.handle.fileno())
            state = self._state(tracked.path)
            state.synced_len = state.current_len

    def close(self, tracked) -> None:
        # Close never raises and never crashes: a dead process's handles
        # are closed by the kernel, and close() itself syncs nothing.
        if tracked.closed:
            return
        self.log.append((self.ops, "close", tracked.path))
        try:
            tracked.handle.close()
        except OSError:  # repro: allow[ERR002] — kernel-side close is free
            pass
        tracked.closed = True

    def replace(self, src: str, dst: str) -> None:
        index = self._op("replace", f"{src} -> {dst}")
        self._maybe_crash(index, "replace", f"{src} -> {dst}")
        old_content: Optional[bytes] = None
        if os.path.exists(dst):
            with open(dst, "rb") as handle:
                old_content = handle.read()
        os.replace(src, dst)
        # The bytes travel with the rename: the tmp file's durability
        # state now belongs to the destination path.
        if src in self._files:
            self._files[dst] = self._files.pop(src)
        self._pending_replaces.append(
            _PendingReplace(src=src, dst=dst, old_content=old_content)
        )

    def fsync_path(self, path: str) -> None:
        index = self._op("fsync-dir", path)
        self._maybe_crash(index, "fsync-dir", path)
        if self.fsync_lies:
            return
        self._pending_replaces = [
            pending for pending in self._pending_replaces
            if os.path.dirname(pending.dst) != path
        ]

    def makedirs(self, path: str) -> None:
        index = self._op("makedirs", path)
        self._maybe_crash(index, "makedirs", path)
        os.makedirs(path, exist_ok=True)

    def remove(self, path: str) -> None:
        index = self._op("remove", path)
        self._maybe_crash(index, "remove", path)
        os.remove(path)
        self._files.pop(path, None)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))

    # ---- crash-state application -----------------------------------------
    def apply_crash(self) -> List[str]:
        """Reshape the disk into a state the dead process left behind.

        Returns a human-readable list of the loss events applied, for
        campaign artifacts.  Order matters: torn tails first (the tmp
        file's bytes may be torn), then rename rollback (which may
        resurrect the torn tmp as leaked litter).
        """
        events: List[str] = []
        for tracked in self._open:
            if not tracked.closed:
                try:
                    tracked.handle.close()
                except OSError:  # repro: allow[ERR002] — died with process
                    pass
                tracked.closed = True
        self._open = []
        for path in sorted(self._files):
            state = self._files[path]
            if state.unsynced <= 0 or not os.path.exists(path):
                continue
            keep = state.synced_len + self.rng.randint(0, state.unsynced)
            if keep >= os.path.getsize(path):
                continue
            with open(path, "rb+") as handle:
                handle.truncate(keep)
            events.append(
                f"torn {path}: kept {keep} of {state.current_len} bytes"
            )
        for pending in reversed(self._pending_replaces):
            if self.rng.random() < 0.5:
                continue  # the rename made it to disk after all
            if not os.path.exists(pending.dst):
                continue
            with open(pending.dst, "rb") as handle:
                new_content = handle.read()
            with open(pending.src, "wb") as handle:
                handle.write(new_content)
            if pending.old_content is None:
                os.remove(pending.dst)
                events.append(
                    f"rolled back replace: {pending.dst} gone, "
                    f"{pending.src} leaked"
                )
            else:
                with open(pending.dst, "wb") as handle:
                    handle.write(pending.old_content)
                events.append(
                    f"rolled back replace: {pending.dst} restored, "
                    f"{pending.src} leaked"
                )
        self._pending_replaces = []
        self._files = {}
        return events

    # ---- campaign helpers -------------------------------------------------
    @property
    def op_count(self) -> int:
        return self.ops

    def op_log_tail(self, upto: Optional[int] = None,
                    window: int = 20) -> List[str]:
        """The last ``window`` logged ops before ``upto``, rendered."""
        entries = self.log
        if upto is not None:
            entries = [e for e in entries if e[0] <= upto]
        return [
            f"op {index}: {kind} {path}"
            for index, kind, path in entries[-window:]
        ]


#: Errno values the campaign injects by default (disk full, I/O error).
DEFAULT_FAULT_ERRNOS = (errno_mod.ENOSPC, errno_mod.EIO)
