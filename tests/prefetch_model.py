"""Hardware prefetcher models (test-only).

The counters pipeline accounts prefetching analytically (coverage
factors in :mod:`repro.uarch.pipeline`); this module provides *explicit*
prefetcher simulation for studies of the mechanism itself — the
next-line and stride prefetchers found on the paper's Xeon E5645 —
usable as a wrapper around any per-access
:class:`tests.cache_oracle.SetAssociativeCache`.  Only the prefetch
ablation and its unit tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from tests.cache_oracle import SetAssociativeCache


@dataclass
class PrefetchStats:
    """Effectiveness accounting for one run."""

    demand_accesses: int = 0
    demand_misses: int = 0
    prefetches_issued: int = 0
    useful_prefetches: int = 0

    @property
    def miss_ratio(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    @property
    def accuracy(self) -> float:
        """Useful prefetches / issued prefetches."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.useful_prefetches / self.prefetches_issued


class NextLinePrefetcher:
    """Fetch line N+1 on a demand miss to line N.

    The simplest sequential prefetcher; catches streaming reads with a
    one-line lookahead.
    """

    def __init__(self, cache: SetAssociativeCache, degree: int = 1):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._prefetched: set = set()

    def access(self, line: int) -> bool:
        """Demand access through the prefetcher; returns hit/miss."""
        self.stats.demand_accesses += 1
        hit = self.cache.access(line)
        if line in self._prefetched:
            self.stats.useful_prefetches += 1
            self._prefetched.discard(line)
        if not hit:
            self.stats.demand_misses += 1
            for ahead in range(1, self.degree + 1):
                self.cache.access(line + ahead)
                self._prefetched.add(line + ahead)
                self.stats.prefetches_issued += 1
        return hit

    def run(self, lines: Iterable[int]) -> PrefetchStats:
        for line in lines:
            self.access(line)
        return self.stats


class StridePrefetcher:
    """Stream/stride prefetcher in the style of the E5645's L2 streamer.

    Two detectors share a reference-prediction table indexed by a
    per-region stream id:

    - a *stride* detector: a stride confirmed twice prefetches ahead
      along it (catches non-unit constant strides, e.g. column walks);
    - a *stream* detector: monotonic forward progress of the stream's
      high-water mark prefetches ahead of the watermark, which is robust
      to the short backward re-references real record parsing produces.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        degree: int = 2,
        table_entries: int = 16,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.cache = cache
        self.degree = degree
        self.table_entries = table_entries
        # stream id -> [last_line, stride, stride_conf, watermark, stream_conf]
        self._table: dict = {}
        self.stats = PrefetchStats()
        self._prefetched: set = set()

    @staticmethod
    def _stream_id(line: int) -> int:
        # 16 KB regions act as stream contexts, like page-based RPTs.
        return line >> 8

    def _issue(self, target: int) -> None:
        # Filter duplicates: an already-outstanding prefetch is not
        # re-issued (real prefetchers check the MSHRs).
        if target >= 0 and target not in self._prefetched:
            self.cache.access(target)
            self._prefetched.add(target)
            self.stats.prefetches_issued += 1

    def access(self, line: int) -> bool:
        self.stats.demand_accesses += 1
        hit = self.cache.access(line)
        if line in self._prefetched:
            self.stats.useful_prefetches += 1
            self._prefetched.discard(line)
        if not hit:
            self.stats.demand_misses += 1

        stream = self._stream_id(line)
        entry = self._table.get(stream)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.pop(next(iter(self._table)))
            self._table[stream] = [line, 0, 0, line, 0]
            return hit

        last_line, stride, stride_conf, watermark, stream_conf = entry
        # --- stride detector ---------------------------------------------
        delta = line - last_line
        if delta != 0 and delta == stride:
            stride_conf = min(3, stride_conf + 1)
        else:
            stride = delta
            stride_conf = 0
        stride_locked = stride_conf >= 2 and stride not in (0, 1)
        if stride_locked:
            for ahead in range(1, self.degree + 1):
                self._issue(line + ahead * stride)
        # --- stream detector -----------------------------------------------
        if line < watermark - 64:
            # The stream restarted far below the high-water mark (a new
            # pass over the buffer): re-arm rather than stay blind.
            watermark = line
            stream_conf = 0
        if line > watermark:
            advance = line - watermark
            if advance <= 4:
                stream_conf = min(3, stream_conf + 1)
            else:
                stream_conf = 0
            watermark = line
            # Defer to the stride detector once it locked a non-unit
            # stride — unit-line stream prefetches would be wasted.
            if stream_conf >= 2 and not stride_locked:
                for ahead in range(1, self.degree + 1):
                    self._issue(watermark + ahead)
        self._table[stream] = [line, stride, stride_conf, watermark, stream_conf]
        return hit

    def run(self, lines: Iterable[int]) -> PrefetchStats:
        for line in lines:
            self.access(line)
        return self.stats


def run_with_prefetcher(
    cache: SetAssociativeCache,
    lines: Iterable[int],
    prefetcher: Optional[str] = "stride",
    degree: int = 2,
) -> PrefetchStats:
    """Convenience: run a trace through a cache with a chosen prefetcher
    (``None`` / ``"nextline"`` / ``"stride"``)."""
    if prefetcher is None:
        stats = PrefetchStats()
        for line in lines:
            stats.demand_accesses += 1
            if not cache.access(line):
                stats.demand_misses += 1
        return stats
    if prefetcher == "nextline":
        return NextLinePrefetcher(cache, degree=degree).run(lines)
    if prefetcher == "stride":
        return StridePrefetcher(cache, degree=degree).run(lines)
    raise ValueError(f"unknown prefetcher {prefetcher!r}")
