"""Tests for synthetic trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.profile import (
    LINE_BYTES,
    PAGE_BYTES,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
)
from repro.uarch.trace import (
    code_line_ranges,
    data_line_ranges,
    generate_data_trace,
    generate_fetch_trace,
)


def simple_footprint():
    return CodeFootprint(
        [
            CodeRegion("hot", 16 * 1024, weight=0.8, sequentiality=6),
            CodeRegion("cold", 256 * 1024, weight=0.2, sequentiality=4),
        ]
    )


def simple_data():
    return DataFootprint(
        stream_bytes=1024 * 1024,
        state_bytes=512 * 1024,
        state_fraction=0.1,
        hot_bytes=16 * 1024,
        hot_fraction=0.8,
    )


class TestFetchTrace:
    def test_length(self):
        trace = generate_fetch_trace(simple_footprint(), 5000, seed=1)
        assert len(trace) == 5000

    def test_determinism(self):
        a = generate_fetch_trace(simple_footprint(), 2000, seed=7)
        b = generate_fetch_trace(simple_footprint(), 2000, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_trace(self):
        a = generate_fetch_trace(simple_footprint(), 2000, seed=7)
        b = generate_fetch_trace(simple_footprint(), 2000, seed=8)
        assert not np.array_equal(a, b)

    def test_addresses_within_regions(self):
        footprint = simple_footprint()
        trace = generate_fetch_trace(footprint, 20_000, seed=3)
        ranges = code_line_ranges(footprint)
        in_any = np.zeros(len(trace), dtype=bool)
        for base, n_lines in ranges:
            in_any |= (trace >= base) & (trace < base + n_lines)
        assert in_any.all()

    def test_hot_region_dominates(self):
        footprint = simple_footprint()
        trace = generate_fetch_trace(footprint, 30_000, seed=5)
        base, n_lines = code_line_ranges(footprint)[0]
        hot_share = ((trace >= base) & (trace < base + n_lines)).mean()
        assert hot_share > 0.6

    def test_rejects_nonpositive_refs(self):
        with pytest.raises(ValueError):
            generate_fetch_trace(simple_footprint(), 0)


class TestDataTrace:
    def test_length_and_determinism(self):
        a = generate_data_trace(simple_data(), 4000, seed=2)
        b = generate_data_trace(simple_data(), 4000, seed=2)
        assert len(a) == 4000
        assert np.array_equal(a, b)

    def test_regions_respected(self):
        data = simple_data()
        trace = generate_data_trace(data, 20_000, seed=4)
        ranges = data_line_ranges(data)
        in_any = np.zeros(len(trace), dtype=bool)
        for base, n_lines in ranges.values():
            in_any |= (trace >= base) & (trace < base + n_lines)
        assert in_any.all()

    def test_hot_fraction_share(self):
        data = simple_data()
        trace = generate_data_trace(data, 30_000, seed=6)
        base, n_lines = data_line_ranges(data)["hot"]
        hot_share = ((trace >= base) & (trace < base + n_lines)).mean()
        assert 0.7 < hot_share < 0.9

    def test_stream_progresses_sequentially(self):
        data = DataFootprint(
            stream_bytes=4 * 1024 * 1024,
            state_bytes=64 * 1024,
            state_fraction=0.0,
            hot_bytes=1024,
            hot_fraction=0.0,
            stream_reuse=1.0,
        )
        trace = generate_data_trace(data, 5000, seed=8)
        base, _ = data_line_ranges(data)["stream"]
        relative = trace - base
        # Sequential walk: the stream position is non-decreasing on
        # average (allowing the short back-jitter re-references).
        drift = np.diff(relative)
        assert drift.mean() > 0

    def test_state_page_locality(self):
        """Hot state lines cluster into hot pages (TLB-friendly)."""
        data = DataFootprint(
            stream_bytes=64 * 1024,
            state_bytes=8 * 1024 * 1024,
            state_fraction=1.0,
            hot_bytes=1024,
            hot_fraction=0.0,
            state_zipf=0.9,
        )
        trace = generate_data_trace(data, 20_000, seed=9)
        pages = trace // (PAGE_BYTES // LINE_BYTES)
        unique_pages, counts = np.unique(pages, return_counts=True)
        top_share = np.sort(counts)[::-1][:20].sum() / counts.sum()
        assert top_share > 0.4  # hot pages absorb a large share

    def test_empty_footprint_rejected(self):
        with pytest.raises(ValueError):
            DataFootprint(
                stream_bytes=0, state_bytes=0, state_fraction=0.0,
                hot_bytes=0, hot_fraction=0.0,
            )


@given(st.integers(min_value=100, max_value=5000))
@settings(max_examples=10, deadline=None)
def test_any_length_supported(n):
    trace = generate_fetch_trace(simple_footprint(), n, seed=11)
    assert len(trace) == n
