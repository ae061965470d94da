"""Tests for the hardware prefetcher models."""

import numpy as np
import pytest

from repro.uarch.cache import CacheConfig
from tests.cache_oracle import SetAssociativeCache
from tests.prefetch_model import (
    NextLinePrefetcher,
    StridePrefetcher,
    run_with_prefetcher,
)


def small_cache():
    return SetAssociativeCache(CacheConfig("L1D", 8 * 1024, ways=4))


def sequential_trace(n=2000, start=0):
    return list(range(start, start + n))


def strided_trace(n=2000, stride=4):
    return [i * stride for i in range(n)]


def random_trace(n=2000, span=100_000, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=n).tolist()


class TestNextLinePrefetcher:
    def test_covers_sequential_stream(self):
        baseline = run_with_prefetcher(small_cache(), sequential_trace(), None)
        prefetched = NextLinePrefetcher(small_cache(), degree=2).run(
            sequential_trace()
        )
        assert prefetched.demand_misses < 0.6 * baseline.demand_misses

    def test_useless_on_random(self):
        stats = NextLinePrefetcher(small_cache()).run(random_trace())
        assert stats.accuracy < 0.2

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(small_cache(), degree=0)


class TestStridePrefetcher:
    def test_learns_nonunit_stride(self):
        baseline = run_with_prefetcher(
            small_cache(), strided_trace(stride=4), None
        )
        prefetched = StridePrefetcher(small_cache(), degree=2).run(
            strided_trace(stride=4)
        )
        assert prefetched.demand_misses < 0.7 * baseline.demand_misses
        assert prefetched.accuracy > 0.5

    def test_sequential_also_covered(self):
        stats = StridePrefetcher(small_cache(), degree=2).run(
            sequential_trace()
        )
        assert stats.miss_ratio < 0.5

    def test_no_progress_on_random(self):
        stats = StridePrefetcher(small_cache()).run(random_trace())
        baseline = run_with_prefetcher(small_cache(), random_trace(), None)
        # Must not make things dramatically worse either.
        assert stats.demand_misses <= baseline.demand_misses * 1.1


class TestRunWithPrefetcher:
    def test_none_is_plain_cache(self):
        stats = run_with_prefetcher(small_cache(), sequential_trace(500), None)
        assert stats.demand_accesses == 500
        assert stats.prefetches_issued == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_with_prefetcher(small_cache(), [1], "psychic")
