"""Translation look-aside buffer simulation (Figure 5 of the paper).

TLBs are modelled as small set-associative LRU caches over page numbers
and driven by the same synthetic fetch/data streams as the cache
hierarchy, downsampled to page granularity.  :func:`tlb_misses` counts a
whole stream's misses with the array kernel :func:`repro.uarch.cache.lru_hits`;
:class:`Tlb` is the per-access model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.uarch.cache import CacheConfig, SetAssociativeCache, lru_misses
from repro.uarch.profile import LINE_BYTES, PAGE_BYTES

#: Cache lines per page, used to convert line traces into page traces.
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of a TLB.

    Attributes:
        name: "ITLB" or "DTLB".
        entries: Number of page entries.
        ways: Associativity (``entries`` for fully associative).
    """

    name: str
    entries: int
    ways: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("TLB geometry values must be positive")
        if self.entries % self.ways != 0:
            raise ValueError("entries must be divisible by ways")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


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


def tlb_misses(lines: np.ndarray, config: TlbConfig, start: int = 0) -> int:
    """Misses of a cold TLB among the references ``lines[start:]`` of a
    cache-line trace (the first ``start`` references only warm it)."""
    pages = np.asarray(lines, dtype=np.int64) // LINES_PER_PAGE
    return lru_misses(pages, config.num_sets, config.ways, start=start)
