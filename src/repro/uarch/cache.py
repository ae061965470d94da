"""Set-associative LRU cache simulation.

- :func:`lru_hits` computes the hit/miss outcome of a whole trace at once
  with array operations: two packed-key sorts, then an exact recurrence
  over reuse order that runs only over the sets receiving more distinct
  lines than they have ways (see its docstring).  The hierarchy walk of
  :class:`CacheHierarchy` (the L1I/L1D/L2/L3 MPKI of Figure 4), the
  TLBs and the capacity sweeps of Figures 6-9 all run on it, and so
  does the branch predictors' BTB.
  :func:`lru_hits_full` is its fully-associative case for capacities
  in the thousands (the loop predictor's table).
- The per-access model with explicit per-set LRU state,
  ``SetAssociativeCache``, lives with the tests (``tests/cache_oracle.py``):
  it agrees with the kernel on every reference and is the reference the
  kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.uarch.profile import LINE_BYTES


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        name: Level label ("L1I", "L2", ...).
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Cache line size.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


def lru_hits(lines: Sequence[int], num_sets: int, ways: int) -> np.ndarray:
    """Hit mask of a cold ``num_sets`` x ``ways`` LRU cache fed ``lines``.

    Exactly the outcomes that the per-access ``SetAssociativeCache`` of
    ``tests/cache_oracle.py`` returns for the same references, computed
    without a Python loop over them:

    1. The references are stable-sorted by set; every later step runs on
       that order, in which each set's references are contiguous and
       keep their trace order.  A reference that repeats the one just
       before it in that order is a hit and leaves the LRU order
       unchanged, so such references are marked hits and dropped.
    2. Let ``p(i)`` be the position of the previous reference to the
       same line (or below every position if none).  A set that receives
       at most ``ways`` distinct lines never evicts, so there a reference
       hits iff ``p(i)`` exists.  The other sets are *crowded*.
    3. In a crowded set let ``A_k(i)`` be the position of the last
       reference to the k-th most recently used distinct line of the set
       just before ``i`` (or any position below the set's first when the
       set holds fewer than ``k`` lines).  Reference ``i`` hits iff its
       line is among the ``ways`` most recent, i.e. iff
       ``p(i) >= A_ways(i)``.
    4. ``A_1(i) = i - 1``.  Referencing line ``y`` at ``i - 1`` moves it
       to the top and shifts down exactly the lines used more recently
       than ``y``, so ``A_k(i) = A_{k-1}(i-1)`` if ``p(i-1) < A_{k-1}(i-1)``
       and ``A_k(i - 1)`` otherwise.  Within a set ``A_k`` never
       decreases, so it is the running maximum of the values that rule
       assigns; each level is one ``np.maximum.accumulate`` over the
       crowded sets' references laid end to end.  No floor is needed at
       a set's start: a value carried over from an earlier set lies below
       every position of this one, so every ``p`` compares with it as
       with ``set_start - 1``.

    Both sorts are one :func:`_stable_order` each.  Cost: two sorts plus
    ``O(m * ways)`` array work, where ``m`` counts the references to
    crowded sets.
    """
    lines = np.asarray(lines, dtype=np.int64)
    hits = np.ones(len(lines), dtype=bool)
    if len(lines) == 0:
        return hits
    if num_sets & (num_sets - 1):
        sets = lines % num_sets
    else:
        sets = lines & (num_sets - 1)
    order, sets = _stable_order(sets, num_sets)
    seq = lines[order]
    kept = np.empty(len(seq), dtype=bool)
    kept[0] = True
    np.not_equal(seq[1:], seq[:-1], out=kept[1:])
    kept = np.flatnonzero(kept)
    order = order[kept]
    sets = sets[kept]
    seq = seq[kept]
    del kept

    # p(i): the line sort lists each line's references in order.
    seq -= int(seq.min())
    by_line, seq = _stable_order(seq, int(seq.max()) + 1)
    repeat = seq[1:] == seq[:-1]
    del seq
    # -2 marks a first reference: below every A_k, which is at least -1.
    previous = np.empty(len(by_line), dtype=by_line.dtype)
    previous[by_line[0]] = -2
    previous[by_line[1:]] = (by_line[:-1] + 2) * repeat - 2
    del by_line, repeat

    distinct = np.bincount(sets[previous < 0], minlength=num_sets)
    crowded = distinct > ways
    set_hits = previous >= 0
    if np.array_equal(crowded, distinct > 0):
        set_hits = _crowded_hits(previous, ways)
    elif crowded.any():
        at = np.flatnonzero(crowded[sets]).astype(previous.dtype)
        # Shift each crowded set's positions down by the references to
        # the uncrowded sets before it; p(i) stays in the same set.
        shift = at - np.arange(len(at), dtype=at.dtype)
        set_hits[at] = _crowded_hits(previous[at] - shift, ways)
    hits[order] = set_hits
    return hits


def _stable_order(keys: np.ndarray, bound: int):
    """``(order, keys[order])`` for the stable sort of ``keys``, integers
    in ``[0, bound)``; ``keys`` may be overwritten.

    Packing each key with its position, ``(key << b) | position``, makes
    every key distinct, so an unstable ``np.sort`` of the packed values
    (a SIMD sort) gives exactly the stable order.  Only when the packed
    values would not fit in 63 bits does it fall back to a stable
    ``np.argsort``.  ``order`` is int32 up to ``2**30`` keys.
    """
    n = len(keys)
    index = np.int32 if n <= 2**30 else np.int64
    bits = max(1, (n - 1).bit_length())
    width = (bound - 1).bit_length() + bits
    if width > 63:
        order = np.argsort(keys, kind="stable")
        return order.astype(index), keys[order]
    packed_type = np.uint32 if width <= 32 else np.int64
    packed = keys.astype(packed_type, copy=False)
    packed <<= bits
    packed |= np.arange(n, dtype=packed_type)
    packed.sort()
    order = (packed & ((1 << bits) - 1)).astype(index)
    packed >>= bits
    return order, packed


def _crowded_hits(previous: np.ndarray, ways: int) -> np.ndarray:
    """Steps 3-4 of :func:`lru_hits`: the hit mask of references laid out
    set by set, ``previous`` holding each one's ``p`` (below -1 if none).

    The levels hold ``A_k + 1``, which is never negative.  The rule then
    takes ``A_{k-1}(i-1) + 1`` where ``p(i-1) < A_{k-1}(i-1)`` and 0
    elsewhere -- one multiply by the comparison -- and 0 leaves the
    running maximum at ``A_k(i-1) + 1``.
    """
    n = len(previous)
    earlier = previous[:-1] + 1
    recent = np.arange(n, dtype=previous.dtype)  # A_1 + 1
    level = np.zeros(n, dtype=previous.dtype)
    moved = np.empty(n - 1, dtype=bool)
    for _ in range(ways - 1):
        np.less(earlier, recent[:-1], out=moved)
        np.multiply(recent[:-1], moved, out=level[1:])
        np.maximum.accumulate(level, out=level)
        recent, level = level, recent
    recent -= 1
    return previous >= recent


def lru_hits_full(lines: Sequence[int], entries: int) -> np.ndarray:
    """:func:`lru_hits` of a fully-associative cache of ``entries`` lines,
    in ``O(n log n)`` instead of ``O(n * entries)``.

    A line hits iff it was referenced before and fewer than ``entries``
    distinct lines came in between.  A reuse window shorter than
    ``entries`` always hits, and so does every repeat when the trace has
    no more than ``entries`` distinct lines.  For the remaining windows
    the distinct lines are counted as the window positions whose
    line's previous reference lies before the window.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        return np.ones(0, dtype=bool)
    keys = lines - lines.min()
    by_line, keys = _stable_order(keys, int(keys.max()) + 1)
    repeat = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    del keys
    previous = np.full(n, -1, dtype=np.int64)
    previous[by_line[repeat]] = by_line[repeat - 1]
    hits = previous >= 0
    if n - len(repeat) > entries:
        far = np.flatnonzero(hits & (np.arange(n) - previous > entries))
        if len(far):
            begin = previous[far]
            hits[far] = _count_at_most(
                previous, begin + 1, far, begin) < entries
    return hits


def _count_at_most(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   bound: np.ndarray) -> np.ndarray:
    """For each query ``q``, how many of ``values[lo[q]:hi[q]]`` are at
    most ``bound[q]``.

    A merge-sort tree: level ``s`` holds every aligned block of ``2**s``
    positions sorted, each query range splits into at most two blocks
    per level, and each block is counted with one binary search.
    """
    counts = np.zeros(len(lo), dtype=np.int64)
    position = np.arange(len(values))
    low = int(values.min())
    span = int(values.max()) - low + 1
    bound = np.clip(bound - low, -1, span - 1)
    lo, hi = lo.copy(), hi.copy()
    shift = 0
    while True:
        active = lo < hi
        if not active.any():
            return counts
        keys = np.sort((position >> shift) * span + (values - low))
        left = active & (lo % 2 == 1)
        right = active & (hi % 2 == 1)
        hi[right] -= 1
        for take, block in ((left, lo[left]), (right, hi[right])):
            counts[take] += np.searchsorted(
                keys, block * span + bound[take], side="right"
            ) - (block << shift)
        lo[left] += 1
        lo >>= 1
        hi >>= 1
        shift += 1


def lru_misses(lines: Sequence[int], num_sets: int, ways: int,
               start: int = 0) -> int:
    """Misses among ``lines[start:]`` of a cold LRU cache fed all of
    ``lines`` (the first ``start`` references only warm it)."""
    hits = lru_hits(lines, num_sets, ways)[start:]
    return len(hits) - int(np.count_nonzero(hits))


@dataclass
class LevelStats:
    """Access/miss statistics for one level of a hierarchy."""

    name: str
    accesses: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: float) -> float:
        """Misses per kilo-instruction for a run of ``instructions``."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.misses / instructions


@dataclass
class CacheLevel:
    """One level of a :class:`CacheHierarchy`: its geometry and the
    measured-phase counts of the last walk."""

    config: CacheConfig
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_mask(self, lines: np.ndarray) -> np.ndarray:
        """:func:`lru_hits` of ``lines`` through this level, cold."""
        return lru_hits(lines, self.config.num_sets, self.config.ways)

    def count(self, hits: np.ndarray) -> None:
        """Set the counts from the hit mask of the measured references."""
        self.hits = int(np.count_nonzero(hits))
        self.misses = len(hits) - self.hits


#: Where an L1 miss was served from, as stored in the walk's fill array.
_FILL_SOURCES = ("l2", "l3", "mem")


class CacheHierarchy:
    """L1I + L1D backed by a unified L2 and a shared L3.

    Inclusive counting model: every L1 miss is an L2 access; every L2 miss
    is an L3 access; L3 misses go off-core.  This matches how the paper's
    MPKI metrics are computed from PMU events.
    """

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        l3: Optional[CacheConfig] = None,
    ):
        self.l1i = CacheLevel(l1i)
        self.l1d = CacheLevel(l1d)
        self.l2 = CacheLevel(l2)
        self.l3 = CacheLevel(l3) if l3 is not None else None
        self.reset_stats()

    def walk(
        self,
        fetch: Sequence[int],
        data: Sequence[int],
        fetch_warm: int = 0,
        data_warm: int = 0,
        llc_prewarm: Sequence[int] = (),
    ) -> None:
        """Play a fetch and a data line stream through cold caches.

        The order is the one a per-access walk of a warm-up phase and a
        measured phase makes: the first ``fetch_warm`` fetches, the first
        ``data_warm`` data references, then the remaining fetches and
        the remaining data references.  Each L1 sees its whole stream;
        L2 sees the L1 misses in that order; L3 (if any) first sees the
        ``llc_prewarm`` lines, then the L2 misses.  Every counter is
        replaced by the counts of the measured phase alone.
        """
        fetch = np.asarray(fetch, dtype=np.int64)
        data = np.asarray(data, dtype=np.int64)
        l1i_hits = self.l1i.hit_mask(fetch)
        l1d_hits = self.l1d.hit_mask(data)
        l1_misses = [
            fetch[:fetch_warm][~l1i_hits[:fetch_warm]],
            data[:data_warm][~l1d_hits[:data_warm]],
            fetch[fetch_warm:][~l1i_hits[fetch_warm:]],
            data[data_warm:][~l1d_hits[data_warm:]],
        ]
        warm_end = len(l1_misses[0]) + len(l1_misses[1])
        fetch_end = warm_end + len(l1_misses[2])
        l2_stream = np.concatenate(l1_misses)
        del l1_misses
        l2_hits = self.l2.hit_mask(l2_stream)
        # Per L2 access: index into _FILL_SOURCES of where it was served.
        served = np.where(l2_hits, 0, 2).astype(np.int8)
        if self.l3 is not None:
            prewarm = np.asarray(llc_prewarm, dtype=np.int64)
            l3_hits = self.l3.hit_mask(
                np.concatenate([prewarm, l2_stream[~l2_hits]])
            )[len(prewarm):]
            served[~l2_hits] = np.where(l3_hits, 1, 2)
            measured = served[warm_end:]
            self.l3.count(measured[measured != 0] == 1)
        self.l1i.count(l1i_hits[fetch_warm:])
        self.l1d.count(l1d_hits[data_warm:])
        self.l2.count(l2_hits[warm_end:])
        self.fetch_fills = _count_fills(served[warm_end:fetch_end])
        self.data_fills = _count_fills(served[fetch_end:])
        self.offcore_accesses = self.fetch_fills["mem"] + self.data_fills["mem"]

    def stats(self) -> List[LevelStats]:
        """Per-level statistics, L1I first."""
        levels = [
            LevelStats("L1I", self.l1i.accesses, self.l1i.misses),
            LevelStats("L1D", self.l1d.accesses, self.l1d.misses),
            LevelStats("L2", self.l2.accesses, self.l2.misses),
        ]
        if self.l3 is not None:
            levels.append(LevelStats("L3", self.l3.accesses, self.l3.misses))
        return levels

    def reset_stats(self) -> None:
        """Zero every level's counters."""
        for level in (self.l1i, self.l1d, self.l2, self.l3):
            if level is not None:
                level.hits = level.misses = 0
        self.offcore_accesses = 0
        # Per-source refill accounting: where instruction-side and
        # data-side L1 misses were ultimately served from.  Keys are
        # ("l2" | "l3" | "mem"); the pipeline model weights each by its
        # latency.
        self.fetch_fills = {source: 0 for source in _FILL_SOURCES}
        self.data_fills = {source: 0 for source in _FILL_SOURCES}


def _count_fills(served: np.ndarray) -> Dict[str, int]:
    counts = np.bincount(served, minlength=len(_FILL_SOURCES))
    return {source: int(n) for source, n in zip(_FILL_SOURCES, counts)}
