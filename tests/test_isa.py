"""Unit tests for the instruction taxonomy."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.uarch.isa import (
    INSTRUCTION_CLASSES,
    InstructionClass,
    InstructionMix,
    IntBreakdown,
    data_movement_share,
    data_movement_with_branches,
)


class TestInstructionMix:
    def test_empty_mix_has_zero_total(self):
        assert InstructionMix().total == 0

    def test_from_counts(self):
        mix = InstructionMix.from_counts(load=10, branch=5)
        assert mix.counts[InstructionClass.LOAD] == 10
        assert mix.counts[InstructionClass.BRANCH] == 5
        assert mix.total == 15

    def test_from_ratios_requires_unit_sum(self):
        with pytest.raises(ValueError):
            InstructionMix.from_ratios(100, load=0.5, store=0.4)

    def test_from_ratios_scales_total(self):
        mix = InstructionMix.from_ratios(
            200, load=0.25, store=0.25, branch=0.5
        )
        assert mix.counts[InstructionClass.BRANCH] == 100

    def test_ratio_of_empty_mix_is_zero(self):
        assert InstructionMix().ratio(InstructionClass.LOAD) == 0.0

    def test_addition_accumulates(self):
        a = InstructionMix.from_counts(load=1)
        b = InstructionMix.from_counts(load=2, branch=3)
        c = a + b
        assert c.counts[InstructionClass.LOAD] == 3
        assert c.counts[InstructionClass.BRANCH] == 3

    def test_iadd(self):
        mix = InstructionMix.from_counts(integer=4)
        mix += InstructionMix.from_counts(integer=6)
        assert mix.counts[InstructionClass.INTEGER] == 10

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            InstructionMix.from_counts(load=1).scaled(-1)

    def test_data_movement_ratio(self):
        mix = InstructionMix.from_ratios(
            100, load=0.3, store=0.2, integer=0.5
        )
        assert math.isclose(mix.data_movement_ratio, 0.5)

    def test_as_vector_order(self):
        mix = InstructionMix.from_ratios(
            10, load=0.1, store=0.2, branch=0.3, integer=0.2, fp=0.1, other=0.1
        )
        vector = list(mix.as_vector())
        assert len(vector) == len(INSTRUCTION_CLASSES)
        assert math.isclose(vector[2], 0.3)  # branch is third

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=0.01, max_value=100.0))
    def test_scaling_preserves_ratios(self, count, factor):
        mix = InstructionMix.from_counts(load=count, branch=count / 2 + 1)
        scaled = mix.scaled(factor)
        assert math.isclose(
            scaled.ratio(InstructionClass.LOAD),
            mix.ratio(InstructionClass.LOAD),
            rel_tol=1e-9,
        )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5), min_size=6, max_size=6
        ).filter(lambda values: sum(values) > 0)
    )
    def test_ratios_sum_to_one(self, values):
        mix = InstructionMix()
        for cls, value in zip(INSTRUCTION_CLASSES, values):
            mix.add(cls, value)
        assert math.isclose(sum(mix.ratios().values()), 1.0, abs_tol=1e-9)


class TestIntBreakdown:
    def test_valid_breakdown(self):
        breakdown = IntBreakdown(0.6, 0.2, 0.2)
        assert math.isclose(breakdown.address_calculation, 0.8)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IntBreakdown(0.6, 0.2, 0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IntBreakdown(1.2, -0.1, -0.1)


class TestDataMovement:
    def test_headline_statistic(self):
        # Paper-shaped mix: ~73% data movement, ~92% with branches.
        mix = InstructionMix.from_ratios(
            1000, load=0.26, store=0.11, branch=0.19, integer=0.38,
            fp=0.02, other=0.04,
        )
        breakdown = IntBreakdown(0.64, 0.18, 0.18)
        movement = data_movement_share(mix, breakdown)
        assert 0.65 < movement < 0.75
        with_branches = data_movement_with_branches(mix, breakdown)
        assert 0.85 < with_branches < 0.95
