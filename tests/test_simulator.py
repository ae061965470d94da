"""Tests for the MARSSx86-style cache sweep simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.profile import CodeFootprint, CodeRegion, DataFootprint
from repro.uarch.simulator import DEFAULT_SIZES_KB, CacheSweepSimulator, SweepResult


def footprint(total_kb=128):
    return CodeFootprint(
        [
            CodeRegion("hot", 16 * 1024, weight=0.7, sequentiality=6),
            CodeRegion("rest", (total_kb - 16) * 1024, weight=0.3, sequentiality=4),
        ]
    )


def data_model():
    return DataFootprint(
        stream_bytes=2 * 1024 * 1024,
        state_bytes=256 * 1024,
        state_fraction=0.1,
        hot_bytes=16 * 1024,
        hot_fraction=0.8,
    )


class TestSweep:
    def test_default_sizes_match_paper(self):
        assert DEFAULT_SIZES_KB == (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

    def test_instruction_curve_monotone_nonincreasing(self):
        simulator = CacheSweepSimulator(trace_refs=8000)
        curve = simulator.instruction_curve("t", footprint())
        for small, large in zip(curve.miss_ratios, curve.miss_ratios[1:]):
            assert large <= small + 1e-9

    def test_small_footprint_flattens_early(self):
        simulator = CacheSweepSimulator(trace_refs=8000)
        small = simulator.instruction_curve("small", footprint(64))
        large = simulator.instruction_curve("large", footprint(1024))
        assert small.at(128) < 0.02
        assert large.at(128) > small.at(128)
        # The larger footprint needs far more capacity to flatten.
        assert (large.knee_kb() or 10_000) > (small.knee_kb() or 0)

    def test_data_curve_runs(self):
        simulator = CacheSweepSimulator(trace_refs=6000)
        curve = simulator.data_curve("d", data_model())
        assert len(curve.miss_ratios) == len(DEFAULT_SIZES_KB)
        assert all(0.0 <= r <= 1.0 for r in curve.miss_ratios)

    def test_unified_curve_share_validation(self):
        simulator = CacheSweepSimulator(trace_refs=4000)
        with pytest.raises(ValueError):
            simulator.unified_curve("u", footprint(), data_model(), fetch_share=0.0)

    def test_at_unknown_size_raises(self):
        curve = SweepResult("x", [16, 32], [0.5, 0.4])
        with pytest.raises(KeyError):
            curve.at(64)

    def test_weighted_curve(self):
        a = SweepResult("a", [16, 32], [0.4, 0.2])
        b = SweepResult("b", [16, 32], [0.2, 0.0])
        merged = CacheSweepSimulator.weighted_curve("m", [(a, 3.0), (b, 1.0)])
        assert merged.miss_ratios[0] == pytest.approx(0.35)

    @given(
        st.lists(
            st.tuples(
                # Miss ratios are miss counts over the measured references.
                st.lists(st.integers(0, 80_000), min_size=3, max_size=3).map(
                    lambda misses: [m / 80_000 for m in misses]),
                st.floats(1.0, 1e12),
            ),
            min_size=1, max_size=4,
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_curve_split_part_unchanged(self, parts, data):
        # k copies of a curve at weight w/k weigh the same as one at w:
        # the paper's five points of two stationary phases reduce to one
        # sample per phase.
        curves = [(SweepResult(f"p{i}", [16, 32, 64], ratios), weight)
                  for i, (ratios, weight) in enumerate(parts)]
        split = data.draw(st.integers(0, len(curves) - 1))
        k = data.draw(st.integers(2, 5))
        curve, weight = curves[split]
        copies = curves[:split] + [(curve, weight / k)] * k + curves[split + 1:]
        whole = CacheSweepSimulator.weighted_curve("m", curves)
        pieces = CacheSweepSimulator.weighted_curve("m", copies)
        assert pieces.miss_ratios == pytest.approx(
            whole.miss_ratios, rel=1e-12, abs=0)

    def test_weighted_curve_grid_mismatch(self):
        a = SweepResult("a", [16, 32], [0.4, 0.2])
        b = SweepResult("b", [16, 64], [0.2, 0.0])
        with pytest.raises(ValueError):
            CacheSweepSimulator.weighted_curve("m", [(a, 1.0), (b, 1.0)])

    def test_average_curves(self):
        a = SweepResult("a", [16], [0.4])
        b = SweepResult("b", [16], [0.2])
        merged = CacheSweepSimulator.average_curves("avg", [a, b])
        assert merged.miss_ratios[0] == pytest.approx(0.3)

    def test_knee_none_when_never_flat(self):
        curve = SweepResult("x", [16, 32], [0.5, 0.4])
        assert curve.knee_kb(threshold=0.01) is None
