"""Translation look-aside buffer simulation (Figure 5 of the paper).

TLBs are modelled as small set-associative LRU caches over page numbers
and driven by the same synthetic fetch/data streams as the cache
hierarchy, downsampled to page granularity.  :func:`tlb_misses` counts a
whole stream's misses with the array kernel :func:`repro.uarch.cache.lru_hits`;
the per-access model ``Tlb`` lives with the tests (``tests/cache_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.uarch.cache import lru_misses
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


def tlb_misses(lines: np.ndarray, config: TlbConfig, start: int = 0) -> int:
    """Misses of a cold TLB among the references ``lines[start:]`` of a
    cache-line trace (the first ``start`` references only warm it)."""
    pages = np.asarray(lines, dtype=np.int64) // LINES_PER_PAGE
    return lru_misses(pages, config.num_sets, config.ways, start=start)
