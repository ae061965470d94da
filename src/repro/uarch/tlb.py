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

#: A line's page is the line shifted right by this many bits.
_PAGE_SHIFT = LINES_PER_PAGE.bit_length() - 1
assert LINES_PER_PAGE == 1 << _PAGE_SHIFT

#: References turned into pages at a time.
_PAGE_BLOCK = 1 << 16


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
    cache-line trace (the first ``start`` references only warm it).

    A reference to the page of the reference just before it hits and
    leaves the LRU order as it was, so such references are dropped
    before the kernel runs; the pages are built a block at a time, and
    are int32 whenever they fit."""
    lines = np.asarray(lines, dtype=np.int64)
    if len(lines) == 0:
        return 0
    fits = (int(lines.min()) >> _PAGE_SHIFT >= -2**31
            and int(lines.max()) >> _PAGE_SHIFT < 2**31)
    page_type = np.int32 if fits else np.int64
    kept = []
    warm = 0
    last = None
    for begin in range(0, len(lines), _PAGE_BLOCK):
        block = np.empty(min(_PAGE_BLOCK, len(lines) - begin),
                         dtype=page_type)
        np.right_shift(lines[begin:begin + len(block)], _PAGE_SHIFT,
                       out=block, casting="unsafe")
        new = np.empty(len(block), dtype=bool)
        new[0] = last is None or block[0] != last
        np.not_equal(block[1:], block[:-1], out=new[1:])
        last = block[-1]
        if begin < start:
            warm += int(np.count_nonzero(new[:start - begin]))
        kept.append(block[new])
    pages = np.concatenate(kept)
    del kept
    return lru_misses(pages, config.num_sets, config.ways, start=warm)
