"""Property-based tests for merging meters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.stacks.base import Meter


class TestMeterMerge:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_is_commutative_in_totals(self, compares, hashes, in_bytes):
        def build(c, h, b):
            meter = Meter()
            if c or h:
                meter.ops(compare=c, hash=h)
            meter.record_in(b, records=1)
            return meter

        ab = build(compares, hashes, in_bytes)
        ab.merge(build(hashes, compares, in_bytes))
        ba = build(hashes, compares, in_bytes)
        ba.merge(build(compares, hashes, in_bytes))
        assert ab.kernel_mix().total == pytest.approx(ba.kernel_mix().total)
        assert ab.bytes_in == ba.bytes_in

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_mix_total_scales_linearly(self, n):
        single = Meter()
        single.ops(compare=1)
        many = Meter()
        many.ops(compare=n)
        assert many.kernel_mix().total == pytest.approx(
            n * single.kernel_mix().total
        )
