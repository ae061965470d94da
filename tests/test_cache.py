"""Unit, property-based and differential tests for the cache simulator."""

import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch import cache as cache_module
from repro.uarch.cache import (
    CacheConfig,
    CacheHierarchy,
    _count_at_most,
    lru_hits,
    lru_hits_full,
    lru_misses,
    lru_sweep_misses,
    resident_lines,
)
from tests.cache_oracle import (
    ScalarHierarchy,
    SetAssociativeCache,
    hierarchy_counts,
    oracle_hits,
)


def make_cache(size_kb=4, ways=4):
    return SetAssociativeCache(
        CacheConfig("test", size_kb * 1024, ways=ways)
    )


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("L1", 32 * 1024, ways=4)
        assert config.num_sets == 128

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, ways=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, ways=1)


class TestSetAssociativeCache:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0) is False
        assert cache.misses == 1

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(7)
        assert cache.access(7) is True
        assert cache.hits == 1

    def test_lru_eviction_order(self):
        # Direct-mapped-per-set behaviour with 2 ways: third distinct tag
        # in a set evicts the least recently used.
        cache = SetAssociativeCache(CacheConfig("t", 2 * 64, ways=2))
        # One set only: lines 0, 1, 2 share it.
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 1 is now LRU
        cache.access(2)      # evicts 1
        assert cache.access(0) is True
        assert cache.access(1) is False

    def test_run_counts_misses(self):
        cache = make_cache()
        misses = cache.run([1, 2, 3, 1, 2, 3])
        assert misses == 3

    def test_flush_clears_contents(self):
        cache = make_cache()
        cache.access(5)
        cache.flush()
        assert cache.access(5) is False

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(5)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.access(5) is True

    def test_working_set_within_capacity_always_hits_after_warmup(self):
        cache = make_cache(size_kb=4, ways=4)  # 64 lines
        lines = list(range(32))
        cache.run(lines)
        cache.reset_stats()
        cache.run(lines * 4)
        assert cache.misses == 0

    @given(st.lists(st.integers(min_value=0, max_value=4096),
                    min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_lru_inclusion_property(self, trace):
        """A strictly larger same-associativity-scaled LRU cache never
        misses more on the same trace (stack-inclusion property)."""
        small = SetAssociativeCache(CacheConfig("s", 64 * 64, ways=64))
        large = SetAssociativeCache(CacheConfig("l", 256 * 64, ways=256))
        small_misses = small.run(trace)
        large_misses = large.run(trace)
        assert large_misses <= small_misses

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_accounting_invariants(self, trace):
        cache = make_cache()
        cache.run(trace)
        assert cache.hits + cache.misses == len(trace)
        assert 0.0 <= cache.miss_ratio <= 1.0
        # Distinct lines lower-bound misses via compulsory misses.
        assert len(set(trace)) <= cache.misses <= len(trace)


@st.composite
def lru_cases(draw, max_sets=24, max_ways=16):
    """(trace, num_sets, ways): random geometry, including set counts that
    are not powers of two, and traces mixing immediate repeats, random
    reuse (at depths around the associativity, or far beyond it) and
    cyclic scans just under and over the cache's capacity.  Lines sit
    above a base; when ``spread``, only every other reference does, so
    the trace holds both ``x`` and ``x + base`` (with ``1 << 40`` and
    ``1 << 62`` the kernel's line sort then packs into int64, or cannot
    pack into 63 bits at all)."""
    num_sets = draw(st.integers(1, max_sets))
    ways = draw(st.integers(1, max_ways))
    capacity = num_sets * ways
    base = draw(st.sampled_from([0, 7, 1 << 40, 1 << 62]))
    spread = draw(st.booleans())
    kind = draw(st.sampled_from(["near", "wide", "scan"]))
    if kind == "scan":
        period = max(1, capacity + draw(st.integers(-2, 2)))
        stride = draw(st.sampled_from([1, num_sets]))
        length = draw(st.integers(0, 3 * period + 5))
        lines = [(i % period) * stride for i in range(length)]
    else:
        if kind == "near":
            universe = num_sets * max(1, ways + draw(st.integers(-2, 3)))
        else:
            universe = draw(st.integers(1, 3 * capacity))
        refs = draw(st.lists(
            st.tuples(st.integers(0, universe - 1), st.integers(1, 3)),
            max_size=250,
        ))
        lines = [line for line, repeat in refs for _ in range(repeat)]
    if spread:
        lines = [line + base * (i % 2) for i, line in enumerate(lines)]
    else:
        lines = [base + line for line in lines]
    return lines, num_sets, ways


class TestLruKernel:
    @given(lru_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_cache(self, case):
        trace, num_sets, ways = case
        hits = lru_hits(trace, num_sets, ways)
        assert hits.dtype == bool and hits.shape == (len(trace),)
        assert hits.tolist() == oracle_hits(trace, num_sets, ways)

    @given(lru_cases(max_sets=12), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_misses_after_warmup(self, case, start):
        trace, num_sets, ways = case
        cache = SetAssociativeCache(
            CacheConfig("t", num_sets * ways, ways, line_bytes=1)
        )
        cache.run(trace[:start])
        cache.reset_stats()
        cache.run(trace[start:])
        assert lru_misses(trace, num_sets, ways, start=start) == cache.misses

    @given(lru_cases(max_sets=12))
    @settings(max_examples=100, deadline=None)
    def test_doubling_sets_never_turns_a_hit_into_a_miss(self, case):
        """LRU inclusion under set refinement (Mattson et al. 1970; Hill &
        Smith 1989): each set of the larger cache sees a subsequence of
        one set's references in the smaller one."""
        trace, num_sets, ways = case
        small = lru_hits(trace, num_sets, ways)
        large = lru_hits(trace, 2 * num_sets, ways)
        assert not np.any(small & ~large)

    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 5])
    def test_every_short_trace_on_one_set(self, ways):
        """Exhaustive: every length-6 trace over 5 lines, each given a set
        of its own, so one kernel call checks all 15625 of them."""
        letters = np.array(list(itertools.product(range(5), repeat=6)))
        n_traces = len(letters)
        lines = (letters * n_traces + np.arange(n_traces)[:, None]).ravel()
        expected = oracle_hits(lines, n_traces, ways)
        assert lru_hits(lines, n_traces, ways).tolist() == expected

    @pytest.mark.parametrize("num_sets, ways", [(12, 16), (12, 4), (5, 2)])
    def test_crowded_and_uncrowded_sets_in_one_call(self, num_sets, ways):
        """L3's shape (a set count that is not a power of two): the odd
        sets receive more distinct lines than they have ways, the even
        ones at most ``ways`` (some none), and the references
        interleave."""
        rng = np.random.default_rng(num_sets * ways)
        per_set = [3 * ways + 1 if s % 2 else ways - s % 3
                   for s in range(num_sets)]
        universe = np.array([s + num_sets * tag for s in range(num_sets)
                             for tag in range(per_set[s])])
        trace = universe[rng.zipf(1.3, size=4000) % len(universe)]
        trace = np.concatenate([universe, trace])
        assert lru_hits(trace, num_sets, ways).tolist() == oracle_hits(
            trace, num_sets, ways)

    def test_direct_mapped_hits_only_on_repeats(self):
        trace = [0, 0, 4, 0, 1, 1, 5, 1]
        assert lru_hits(trace, 4, 1).tolist() == oracle_hits(trace, 4, 1)
        assert lru_hits(trace, 4, 1).tolist() == [
            False, True, False, False, False, True, False, False,
        ]

    def test_empty_trace(self):
        assert lru_hits([], 8, 4).shape == (0,)
        assert lru_misses([], 8, 4) == 0
        assert lru_hits_full([], 1024).shape == (0,)


class TestSweepKernel:
    """``lru_sweep_misses`` against :func:`lru_misses` at each set count."""

    @given(lru_cases(), st.lists(st.integers(1, 64), min_size=1,
                                 max_size=6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_size_misses(self, case, extra_sets, data):
        """Set counts that are and are not powers of two, repeated and
        unsorted, around the case's own; every warm-up length."""
        trace, num_sets, ways = case
        set_counts = [num_sets, 2 * num_sets, *extra_sets, num_sets]
        start = data.draw(st.integers(0, len(trace)))
        assert lru_sweep_misses(trace, set_counts, ways, start) == [
            lru_misses(trace, sets, ways, start) for sets in set_counts]

    @pytest.mark.parametrize("num_sets, ways", [(12, 16), (12, 4), (5, 2),
                                                (16, 8)])
    def test_crowded_and_uncrowded_sets_in_one_sweep(self, num_sets, ways):
        """The odd sets of ``num_sets`` receive more distinct lines than
        they have ways and the even ones at most ``ways``, so the sweep
        meets set counts with every set crowded, some, and none."""
        rng = np.random.default_rng(num_sets + ways)
        per_set = [3 * ways + 1 if s % 2 else ways - s % 3
                   for s in range(num_sets)]
        universe = np.array([s + num_sets * tag for s in range(num_sets)
                             for tag in range(per_set[s])])
        trace = universe[rng.zipf(1.3, size=4000) % len(universe)]
        trace = np.concatenate([universe, trace])
        set_counts = [1, 3, num_sets, 2 * num_sets, 7 * num_sets,
                      64 * num_sets, num_sets // 2]
        for start in (0, len(universe), 2500, len(trace)):
            assert lru_sweep_misses(trace, set_counts, ways, start) == [
                lru_misses(trace, sets, ways, start) for sets in set_counts]

    @given(lru_cases(max_sets=12), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_doubling_sets_never_raises_misses(self, case, start):
        """Mattson inclusion across a power-of-two sweep: each doubling of
        the set count can only remove misses."""
        trace, num_sets, ways = case
        misses = lru_sweep_misses(
            trace, [num_sets << k for k in range(6)], ways, start)
        assert misses == sorted(misses, reverse=True)

    def test_uncrowded_sizes_miss_only_on_first_references(self):
        trace = [0, 1, 2, 0, 3, 1, 4, 2, 5, 0]
        assert lru_sweep_misses(trace, [8, 6, 1], 2) == [6, 6, 10]
        assert lru_sweep_misses(trace, [8, 6], 2, start=5) == [2, 2]

    def test_kernel_runs_only_on_crowded_sets(self, monkeypatch):
        """A set holding exactly ``ways`` distinct lines never evicts, so
        a sweep whose sets are all that full never runs :func:`lru_hits`;
        with one set crowded, only that set's references reach it."""
        import repro.uarch.cache as cache

        seen = []

        def counting_hits(lines, num_sets, ways):
            seen.append(sorted(set(np.asarray(lines).tolist())))
            return lru_hits(lines, num_sets, ways)

        monkeypatch.setattr(cache, "lru_hits", counting_hits)
        full = np.tile(np.arange(4 * 3), 5)  # 4 sets x 3 lines each
        assert lru_sweep_misses(full, [4, 8], 3) == [12, 12]
        assert seen == []
        crowded = np.concatenate([full, [12, 0]])  # set 0 gets a 4th line
        assert lru_sweep_misses(crowded, [4], 3) == [14]
        assert seen == [[0, 4, 8, 12]]

    def test_empty_inputs(self):
        assert lru_sweep_misses([], [4, 8], 2) == [0, 0]
        assert lru_sweep_misses([1, 2, 3], [], 2) == []


class TestFullyAssociativeKernel:
    @given(lru_cases(max_sets=1, max_ways=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_cache(self, case):
        trace, _, ways = case
        assert lru_hits_full(trace, ways).tolist() == oracle_hits(
            trace, 1, ways)

    @given(st.lists(st.integers(0, 3000), max_size=2000),
           st.sampled_from([1, 16, 512, 1024]))
    @settings(max_examples=30, deadline=None)
    def test_matches_set_kernel_at_large_capacity(self, trace, entries):
        assert lru_hits_full(trace, entries).tolist() == lru_hits(
            trace, 1, entries).tolist()

    @given(st.lists(st.integers(-1, 30), min_size=1, max_size=120),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_range_count_matches_brute_force(self, values, data):
        n = len(values)
        queries = data.draw(st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n),
                      st.integers(-3, 40)), min_size=1, max_size=20))
        lo = np.array([min(a, b) for a, b, _ in queries])
        hi = np.array([max(a, b) for a, b, _ in queries])
        bound = np.array([c for _, _, c in queries])
        got = _count_at_most(np.array(values), lo, hi, bound).tolist()
        assert got == [sum(v <= c for v in values[a:b])
                       for a, b, c in zip(lo, hi, bound)]


def walk_both(configs, fetch, data, fetch_warm, data_warm, prewarm):
    fast = CacheHierarchy(*configs)
    fast.walk(np.array(fetch, dtype=np.int64), np.array(data, dtype=np.int64),
              fetch_warm, data_warm, np.array(prewarm, dtype=np.int64))
    slow = ScalarHierarchy(*configs)
    slow.walk(fetch, data, fetch_warm, data_warm, prewarm)
    return hierarchy_counts(fast), hierarchy_counts(slow)


class TestHierarchyWalkOracle:
    CONFIGS = (
        CacheConfig("L1I", 3 * 2 * 64, 2),   # 3 sets
        CacheConfig("L1D", 2 * 4 * 64, 4),
        CacheConfig("L2", 5 * 4 * 64, 4),    # 5 sets
        CacheConfig("L3", 8 * 8 * 64, 8),
    )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 160),
        st.integers(0, 400),
        st.integers(0, 400),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_walk(self, seed, span, n_fetch, n_data,
                                 fetch_warm_share, data_warm_share, with_l3):
        # Fetch and data lines overlap; ``span`` sets how often they
        # reuse lines within L2 and L3 capacity.
        rng = np.random.default_rng(seed)
        fetch = rng.integers(0, span, size=n_fetch).tolist()
        data = rng.integers(span // 2, span // 2 + span, size=n_data).tolist()
        prewarm = rng.integers(0, 2 * span, size=span // 2).tolist()
        configs = self.CONFIGS if with_l3 else self.CONFIGS[:3]
        fast, slow = walk_both(
            configs, fetch, data, int(fetch_warm_share * n_fetch),
            int(data_warm_share * n_data), prewarm,
        )
        assert fast == slow


class TestCacheHierarchy:
    def make_hierarchy(self):
        return CacheHierarchy(
            l1i=CacheConfig("L1I", 4 * 1024, 4),
            l1d=CacheConfig("L1D", 4 * 1024, 4),
            l2=CacheConfig("L2", 16 * 1024, 8),
            l3=CacheConfig("L3", 64 * 1024, 8),
        )

    def test_miss_propagates_down(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([100], [])
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].misses == 1
        assert stats["L2"].misses == 1
        assert stats["L3"].misses == 1
        assert hierarchy.offcore_accesses == 1
        assert hierarchy.fetch_fills["mem"] == 1

    def test_l2_hit_stops_propagation(self):
        hierarchy = self.make_hierarchy()
        # Fetch line 100, evict it from the tiny L1I by touching many
        # lines mapping everywhere, then re-fetch it as the only
        # measured reference: L2 should serve it.
        fetch = [100, *range(1000, 1200), 100]
        hierarchy.walk(fetch, [], fetch_warm=len(fetch) - 1)
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].accesses == stats["L1I"].misses == 1
        assert stats["L2"].accesses == 1
        assert stats["L2"].misses == 0
        assert hierarchy.fetch_fills == {"l2": 1, "l3": 0, "mem": 0}
        assert hierarchy.l3.accesses == 0

    def test_data_and_fetch_tracked_separately(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([1], [2])
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].accesses == 1
        assert stats["L1D"].accesses == 1
        assert stats["L2"].accesses == 2

    def test_mpki(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([1], [])
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].mpki(1000.0) == 1.0

    def test_mpki_requires_positive_instructions(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([1], [])
        with pytest.raises(ValueError):
            hierarchy.stats()[0].mpki(0)

    def test_reset_stats(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([1], [])
        hierarchy.reset_stats()
        assert hierarchy.fetch_fills == {"l2": 0, "l3": 0, "mem": 0}
        assert all(s.accesses == 0 for s in hierarchy.stats())

    def test_walk_replaces_counts(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([1, 2, 3], [4])
        hierarchy.walk([1], [])
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].accesses == 1
        assert stats["L1D"].accesses == 0
        assert hierarchy.offcore_accesses == 1

    def test_llc_prewarm_only_warms(self):
        hierarchy = self.make_hierarchy()
        hierarchy.walk([100], [], llc_prewarm=[100, 101])
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L3"].accesses == 1
        assert stats["L3"].misses == 0
        assert hierarchy.fetch_fills == {"l2": 0, "l3": 1, "mem": 0}

    def test_no_l3_configuration(self):
        hierarchy = CacheHierarchy(
            l1i=CacheConfig("L1I", 4 * 1024, 4),
            l1d=CacheConfig("L1D", 4 * 1024, 4),
            l2=CacheConfig("L2", 16 * 1024, 8),
            l3=None,
        )
        hierarchy.walk([], [5])
        assert hierarchy.data_fills["mem"] == 1
        assert len(hierarchy.stats()) == 3


class TestBlockedKernel:
    """``lru_hits`` past its set sort works one block of whole sets at a
    time; shrinking the block makes every trace span several blocks."""

    @staticmethod
    @contextlib.contextmanager
    def blocks_of(refs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_module, "_BLOCK_REFS", refs)
            yield

    @given(lru_cases(), st.sampled_from([1, 3, 16, 64]))
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_cache_across_blocks(self, case, block):
        trace, num_sets, ways = case
        with self.blocks_of(block):
            hits = lru_hits(trace, num_sets, ways)
        assert hits.tolist() == oracle_hits(trace, num_sets, ways)

    @given(lru_cases(max_sets=12), st.sampled_from([1, 5, 32]),
           st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_scalar_cache_across_blocks(self, case, block,
                                                      extra_sets, data):
        trace, num_sets, ways = case
        start = data.draw(st.integers(0, len(trace)))
        set_counts = [num_sets, num_sets + extra_sets, 2 * num_sets]
        with self.blocks_of(block):
            misses = lru_sweep_misses(trace, set_counts, ways, start)
        for count, got in zip(set_counts, misses):
            expected = oracle_hits(trace, count, ways)[start:]
            assert got == len(expected) - sum(expected)

    def test_set_larger_than_a_block(self):
        rng = np.random.default_rng(5)
        # Set 0 receives 700 references, the others a few each.
        trace = np.concatenate([
            4 * rng.integers(0, 20, 700), 1 + 4 * rng.integers(0, 9, 60),
            2 + 4 * rng.integers(0, 3, 30)])
        rng.shuffle(trace)
        with self.blocks_of(64):
            hits = lru_hits(trace, 4, 8)
        assert hits.tolist() == oracle_hits(trace, 4, 8)

    def test_l3_geometry_across_blocks(self):
        """L3's 12,288 sets (not a power of two), crowded and not."""
        rng = np.random.default_rng(12288)
        trace = rng.integers(0, 12288 * 20, 6000)
        trace[::3] = rng.integers(0, 12288 * 2, 2000)
        with self.blocks_of(256):
            hits = lru_hits(trace, 12288, 16)
        assert hits.tolist() == oracle_hits(trace, 12288, 16)

    @pytest.mark.parametrize("trace", [[], [7]])
    def test_empty_and_one_reference(self, trace):
        with self.blocks_of(1):
            assert lru_hits(trace, 12288, 16).tolist() == [False] * len(trace)
            assert lru_sweep_misses(trace, [64, 12288], 8) == [len(trace)] * 2

    def test_int32_lines_match_int64(self):
        trace = np.random.default_rng(3).integers(0, 5000, 3000)
        with self.blocks_of(100):
            assert np.array_equal(lru_hits(trace.astype(np.int32), 64, 8),
                                  lru_hits(trace, 64, 8))

    def test_blocks_halve_the_peak_of_an_l1d_call(self):
        """An L1D-shaped call (about 380k references, 64 sets x 8 ways)
        peaks below half of what it peaks at as one block."""
        rng = np.random.default_rng(64)
        trace = (1 << 24) + rng.zipf(1.2, 380_000) % 40_000
        lru_hits(trace[:200_000], 64, 8)  # load whatever numpy loads lazily

        def peak():
            tracemalloc.start()
            try:
                hits = lru_hits(trace, 64, 8)
                return hits, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked, blocked_peak = peak()
        with self.blocks_of(1 << 30):
            whole, whole_peak = peak()
        assert np.array_equal(blocked, whole)
        assert blocked_peak < whole_peak / 2


def full_ranges(ranges):
    return np.array([line for base, n in ranges
                     for line in range(base, base + n)], dtype=np.int64)


class TestResidentLines:
    @given(st.integers(1, 13), st.integers(1, 5),
           st.lists(st.tuples(st.integers(0, 30), st.integers(0, 90)),
                    max_size=5),
           st.booleans(), st.lists(st.integers(0, 400), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_leaves_the_state_the_ranges_leave(self, num_sets, ways, gaps,
                                               shuffle, tail):
        """Every later reference has the outcome it has after the whole
        ranges, disjoint (in any order) or, when shuffled with a repeat,
        overlapping."""
        ranges, base = [], 0
        for gap, n in gaps:
            ranges.append((base + gap, n))
            base += gap + n
        if shuffle and ranges:
            ranges = ranges[::-1] + [ranges[0]]
        resident = resident_lines(ranges, num_sets, ways)
        full = full_ranges(ranges)
        got = lru_hits(np.concatenate([resident, tail]).astype(np.int64),
                       num_sets, ways)[len(resident):]
        assert got.tolist() == oracle_hits(
            np.concatenate([full, tail]), num_sets, ways)[len(full):]
        assert (len(resident) <= num_sets * ways
                or len(resident) == len(full))

    def test_keeps_only_what_fits(self):
        # The last range fills all 4 x 2 ways, so nothing of the first stays.
        assert resident_lines([(0, 1000), (5000, 10)], 4, 2).tolist() == [
            5002, 5003, 5004, 5005, 5006, 5007, 5008, 5009]
        assert resident_lines([(0, 1000), (5000, 2)], 4, 2).tolist() == [
            994, 995, 996, 997, 998, 999, 5000, 5001]
