"""Per-access reference model of the cache/TLB walk (test-only oracle).

This is the scalar walk :func:`repro.uarch.counters.characterize` used
before the hierarchy, the TLBs and the capacity sweeps moved onto the
array kernel :func:`repro.uarch.cache.lru_hits`: every reference goes
through :class:`SetAssociativeCache` (or :class:`Tlb`, the same cache
over page numbers) one at a time, in trace order.  The differential
tests hold the kernel to it; the prefetcher models of
``tests/prefetch_model.py`` wrap it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.uarch.cache import CacheConfig, LevelStats
from repro.uarch.tlb import LINES_PER_PAGE, TlbConfig


class SetAssociativeCache:
    """An LRU set-associative cache over cache-line addresses.

    Addresses passed to :meth:`access` are *line numbers* (byte address
    divided by the line size); the caller is responsible for that
    conversion so that traces can be generated directly in line space.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Per-set list of tags; index 0 is LRU, the last element is MRU.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0 when no accesses occurred)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def access(self, line: int) -> bool:
        """Reference a line; returns True on hit.

        Misses allocate the line (write-allocate, fetch-on-miss) and evict
        the LRU way when the set is full.
        """
        index = line % self._num_sets
        tag = line // self._num_sets
        ways = self._sets[index]
        if tag in ways:
            # Move to MRU position.
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self._ways:
            ways.pop(0)
        ways.append(tag)
        return False

    def run(self, lines: Iterable[int]) -> int:
        """Access a whole trace; returns the number of misses it caused."""
        before = self.misses
        access = self.access
        for line in lines:
            access(line)
        return self.misses - before

    def reset_stats(self) -> None:
        """Zero hit/miss counters without flushing cache contents."""
        self.hits = 0
        self.misses = 0

    def miss_stream(self, lines: Iterable[int], warm: int = 0):
        """:meth:`repro.uarch.cache.CacheLevel.miss_stream`, one
        reference at a time: ``(warm-up misses, measured misses)``, with
        the counters holding the measured references alone."""
        lines = [int(line) for line in lines]
        warm_misses = [line for line in lines[:warm] if not self.access(line)]
        self.reset_stats()
        return warm_misses, [
            line for line in lines[warm:] if not self.access(line)]

    def flush(self) -> None:
        """Empty the cache and zero the counters."""
        self._sets = [[] for _ in range(self._num_sets)]
        self.reset_stats()


class Tlb:
    """A TLB as an LRU set-associative structure over page numbers."""

    def __init__(self, config: TlbConfig):
        self.config = config
        # Reuse the cache machinery with a 1-byte "line": addresses passed
        # in are already page numbers.
        self._cache = SetAssociativeCache(
            CacheConfig(
                name=config.name,
                size_bytes=config.entries,
                ways=config.ways,
                line_bytes=1,
            )
        )

    @property
    def accesses(self) -> int:
        return self._cache.accesses

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def miss_ratio(self) -> float:
        return self._cache.miss_ratio

    def access(self, page: int) -> bool:
        """Translate ``page``; returns True on TLB hit."""
        return self._cache.access(page)

    def run(self, pages: Iterable[int]) -> int:
        """Translate a page trace; returns the number of misses."""
        return self._cache.run(pages)

    def mpki(self, instructions: float) -> float:
        """Misses per kilo-instruction given a run length."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.misses / instructions

    def flush(self) -> None:
        self._cache.flush()


def oracle_hits(lines: Sequence[int], num_sets: int, ways: int) -> list:
    """Hit/miss outcome of each reference through a cold scalar cache."""
    cache = SetAssociativeCache(
        CacheConfig("oracle", num_sets * ways, ways, line_bytes=1)
    )
    return [cache.access(int(line)) for line in lines]


class ScalarHierarchy:
    """The per-access L1I/L1D -> L2 -> L3 walk, with the same counters
    as :class:`repro.uarch.cache.CacheHierarchy`."""

    def __init__(self, l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig,
                 l3: Optional[CacheConfig] = None):
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)
        self.l3 = SetAssociativeCache(l3) if l3 is not None else None
        self.reset_stats()

    def fetch(self, line: int) -> None:
        """Instruction fetch of one cache line."""
        if not self.l1i.access(line):
            self._fill_from_l2(line, self.fetch_fills)

    def load_store(self, line: int) -> None:
        """Data reference of one cache line."""
        if not self.l1d.access(line):
            self._fill_from_l2(line, self.data_fills)

    def _fill_from_l2(self, line: int, fills: dict) -> None:
        if self.l2.access(line):
            fills["l2"] += 1
            return
        if self.l3 is None:
            fills["mem"] += 1
            self.offcore_accesses += 1
            return
        if self.l3.access(line):
            fills["l3"] += 1
        else:
            fills["mem"] += 1
            self.offcore_accesses += 1

    def walk(self, fetch, data, fetch_warm=0, data_warm=0,
             llc_prewarm=()) -> None:
        """:meth:`CacheHierarchy.walk`, one reference at a time."""
        fetch = [int(line) for line in fetch]
        data = [int(line) for line in data]
        if self.l3 is not None:
            for line in llc_prewarm:
                self.l3.access(int(line))
        self.reset_stats()
        for line in fetch[:fetch_warm]:
            self.fetch(line)
        for line in data[:data_warm]:
            self.load_store(line)
        self.reset_stats()
        for line in fetch[fetch_warm:]:
            self.fetch(line)
        for line in data[data_warm:]:
            self.load_store(line)

    def walk_misses(self, fetch_misses, data_misses,
                    llc_prewarm=()) -> None:
        """:meth:`CacheHierarchy.walk_misses`, one reference at a time:
        the L1s have played their streams (:meth:`SetAssociativeCache.
        miss_stream`), and their misses go through L2 and L3 in the
        order :meth:`walk` makes."""
        if self.l3 is not None:
            for line in llc_prewarm:
                self.l3.access(int(line))
        for phase in (0, 1):
            self._reset_below_l1()
            for line in fetch_misses[phase]:
                self._fill_from_l2(int(line), self.fetch_fills)
            for line in data_misses[phase]:
                self._fill_from_l2(int(line), self.data_fills)

    def stats(self):
        levels = [
            LevelStats("L1I", self.l1i.accesses, self.l1i.misses),
            LevelStats("L1D", self.l1d.accesses, self.l1d.misses),
            LevelStats("L2", self.l2.accesses, self.l2.misses),
        ]
        if self.l3 is not None:
            levels.append(LevelStats("L3", self.l3.accesses, self.l3.misses))
        return levels

    def reset_stats(self) -> None:
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self._reset_below_l1()

    def _reset_below_l1(self) -> None:
        for cache in (self.l2, self.l3):
            if cache is not None:
                cache.reset_stats()
        self.offcore_accesses = 0
        self.fetch_fills = {"l2": 0, "l3": 0, "mem": 0}
        self.data_fills = {"l2": 0, "l3": 0, "mem": 0}


def oracle_tlb_misses(lines, config: TlbConfig, start: int = 0) -> int:
    """:func:`repro.uarch.tlb.tlb_misses`, one reference at a time."""
    tlb = Tlb(config)
    pages = [int(line) // LINES_PER_PAGE for line in lines]
    tlb.run(pages[:start])
    warm_misses = tlb.misses
    tlb.run(pages[start:])
    return tlb.misses - warm_misses


def hierarchy_counts(hierarchy) -> Dict[str, int]:
    """Every counter a walk fills, flattened for comparison."""
    counts = {"offcore": hierarchy.offcore_accesses}
    for stats in hierarchy.stats():
        counts[f"{stats.name}.accesses"] = stats.accesses
        counts[f"{stats.name}.misses"] = stats.misses
    for source in ("l2", "l3", "mem"):
        counts[f"fetch_fills.{source}"] = hierarchy.fetch_fills[source]
        counts[f"data_fills.{source}"] = hierarchy.data_fills[source]
    return counts
