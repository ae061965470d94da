"""Tests for branch predictors and the branch stream generator.

The array replay of :mod:`repro.uarch.branch` is held to the per-branch
model in ``tests/branch_oracle.py``: the packed stream must equal the
oracle's events element by element, and every replay count must be
identical, over warm-then-measure sequences that include heavy table
aliasing and heavy LRU eviction.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.uarch.branch import (
    BranchStreamGenerator,
    BranchTargetBuffer,
    HybridPredictor,
    LoopPredictor,
    SimplePredictor,
    _counter_scan,
    _hash_pc,
    _histories,
    _pht,
    simulate_branches,
)
from repro.uarch.profile import BranchProfile
from tests import branch_oracle as oracle


def counter_predictions(index, up, train=None, entries=16):
    return _counter_scan(
        _pht(entries), np.asarray(index), np.asarray(up),
        None if train is None else np.asarray(train),
    ).tolist()


def assert_counter_calls_match(entries, calls):
    """Replay ``(index, up, train)`` calls through one table with
    ``_counter_scan`` and with the scalar counters (``train`` None: all
    events train); every call's predictions and the table after it must
    agree."""
    table = _pht(entries)
    scalar = oracle.SaturatingCounterTable(entries)
    for index, up, train in calls:
        trains = [True] * len(index) if train is None else train
        expected = []
        for i, rising, trained in zip(index, up, trains):
            expected.append(scalar.predict(i))
            if trained:
                scalar.update(i, rising)
        got = _counter_scan(
            table, np.array(index, dtype=np.int64), np.array(up, dtype=bool),
            None if train is None else np.array(train, dtype=bool))
        assert got.tolist() == expected
        assert table.tolist() == scalar.counters


@st.composite
def counter_calls(draw):
    """One to three calls, each a list of same-direction runs of 1-40
    updates on a few entries, training none, about 5% or all of its
    events (all through the ``train=None`` form or an explicit mask)."""
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        runs = draw(st.lists(
            st.tuples(st.integers(0, 7), st.booleans(), st.integers(1, 40)),
            max_size=12))
        index = [entry for entry, _, length in runs for _ in range(length)]
        up = [rising for _, rising, length in runs for _ in range(length)]
        share = draw(st.sampled_from([0.0, 0.05, 1.0, None]))
        if share is None:
            train = None
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            train = (rng.random(len(index)) < share).tolist()
        calls.append((index, up, train))
    return calls


class TestSaturatingCounterTable:
    def test_initial_prediction_weakly_taken(self):
        assert counter_predictions([0], [True]) == [True]

    def test_training_not_taken(self):
        assert counter_predictions([3, 3, 3], [False, False, False])[2] is False

    def test_saturation(self):
        # One not-taken cannot flip a saturated counter.
        predictions = counter_predictions([1] * 12, [True] * 10 + [False, True])
        assert predictions[-1] is True

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            SimplePredictor(table_entries=12)

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.booleans(), st.booleans()),
                 max_size=300),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_counters_in_two_calls(self, events, log_entries):
        entries = 1 << log_entries
        table = _pht(entries)
        scalar = oracle.SaturatingCounterTable(entries)
        expected = []
        for index, up, train in events:
            expected.append(scalar.predict(index))
            if train:
                scalar.update(index, up)
        got = []
        half = len(events) // 2
        for part in (events[:half], events[half:]):
            index = np.array([e[0] for e in part], dtype=np.int64)
            up = np.array([e[1] for e in part], dtype=bool)
            train = np.array([e[2] for e in part], dtype=bool)
            got += _counter_scan(table, index, up, train).tolist()
        assert got == expected

    @given(st.integers(0, 4), counter_calls())
    # Entry 1 ends on an untrained event: its final value is the one
    # after its latest trained event.
    @example(2, [([1, 1, 1, 1], [False, False, False, True],
                  [True, True, True, False])])
    # Entry 2 saturates low; after an empty call, a call that trains
    # none of its events must leave it (and entry 0) as they were.
    @example(2, [([2, 2, 2, 0], [False] * 4, [True] * 4),
                 ([], [], []),
                 ([2, 2, 0, 0], [True] * 4, [False] * 4)])
    @settings(max_examples=150, deadline=None)
    def test_runs_and_reversals_match_scalar_counters(self, log_entries,
                                                      calls):
        assert_counter_calls_match(1 << log_entries, calls)

    @given(st.integers(0, 3), st.booleans(), st.integers(2000, 6000))
    @settings(max_examples=10, deadline=None)
    def test_long_alternating_run_never_saturates(self, warm, up, length):
        # The warm-up call sets the entry to any state 0..3 (from 2).
        warm_up = ([0] * abs(warm - 2), [warm > 2] * abs(warm - 2), None)
        alternating = [bool((i % 2) ^ up) for i in range(length)]
        assert_counter_calls_match(4, [
            warm_up, ([0] * length, alternating, None)])


class TestHistories:
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=200),
        st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_previous_outcomes_of_the_slot(self, events, bits):
        table = np.zeros(8, dtype=np.int64)
        slots = np.array([slot for slot, _ in events], dtype=np.int64)
        taken = np.array([outcome for _, outcome in events], dtype=bool)
        got = _histories(slots, taken, table, bits).tolist()
        registers = [0] * 8
        mask = (1 << bits) - 1
        for (slot, outcome), history in zip(events, got):
            assert history == registers[slot]
            registers[slot] = ((registers[slot] << 1) | outcome) & mask
        assert table.tolist() == registers


class TestBranchTargetBuffer:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(16, ways=4)
        hits, stored = btb.access(np.array([100, 100]), np.array([200, 200]))
        assert hits.tolist() == [False, True]
        assert stored[1] == 200

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(4, ways=4)  # one set of 4
        pcs = np.arange(5) * 1024
        btb.access(pcs, pcs)
        hits, _ = btb.access(pcs, pcs)
        assert hits.sum() <= 4


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self):
        predictor = LoopPredictor()
        pc = 0x100
        trip = 5
        execution = [i < trip - 1 for i in range(trip)]
        # Two full loop executions teach the trip count ...
        predictor.replay(np.full(2 * trip, pc), np.array(execution * 2))
        # ... and the third is predicted perfectly.
        predicted = predictor.replay(np.full(trip, pc), np.array(execution))
        assert predicted.tolist() == [int(taken) for taken in execution]

    def test_unknown_pc_has_no_prediction(self):
        predicted = LoopPredictor().replay(np.array([0x42]), np.array([True]))
        assert predicted.tolist() == [-1]


class TestLocalHistoryPredictor:
    def test_learns_periodic_pattern(self):
        # The hybrid's local-history component alone.
        pattern = [True, True, False, True]
        taken = np.array(pattern * 45)
        slots = np.full(len(taken), _hash_pc(0x200) & 4095, dtype=np.int64)
        history = _histories(slots, taken, np.zeros(4096, np.int64), 8)
        predicted = _counter_scan(_pht(1 << 18), (slots << 8) | history, taken)
        mistakes = np.count_nonzero(predicted[-20:] != taken[-20:])
        assert mistakes <= 2


class TestPredictorsOnStreams:
    def run_mix(self, predictor_cls, profile, n=12_000, seed=5):
        generator = BranchStreamGenerator(profile, seed=seed)
        predictor = predictor_cls()
        simulate_branches(generator.generate(n), predictor)  # warm
        return simulate_branches(generator.generate(n), predictor)

    def test_hybrid_beats_simple_on_bigdata_mix(self):
        profile = BranchProfile(
            loop_fraction=0.40, pattern_fraction=0.10,
            data_dependent_fraction=0.50, taken_prob=0.04,
            loop_trip=24, indirect_fraction=0.04, indirect_targets=4,
            static_sites=2048,
        )
        hybrid = self.run_mix(HybridPredictor, profile)
        simple = self.run_mix(SimplePredictor, profile)
        assert hybrid.misprediction_ratio < simple.misprediction_ratio
        # Paper: 2.8% vs 7.8% — require the same order-of-2-4x gap.
        assert simple.misprediction_ratio > 1.5 * hybrid.misprediction_ratio

    def test_loops_are_highly_predictable_on_hybrid(self):
        profile = BranchProfile(
            loop_fraction=1.0, pattern_fraction=0.0,
            data_dependent_fraction=0.0, loop_trip=32,
            indirect_fraction=0.0, static_sites=128,
        )
        stats = self.run_mix(HybridPredictor, profile)
        assert stats.misprediction_ratio < 0.05

    def test_random_branches_bound_by_bias(self):
        profile = BranchProfile(
            loop_fraction=0.0, pattern_fraction=0.0,
            data_dependent_fraction=1.0, taken_prob=0.10,
            indirect_fraction=0.0, static_sites=256,
        )
        stats = self.run_mix(HybridPredictor, profile)
        # Cannot beat the Bernoulli bias, should not be far worse either.
        assert 0.05 < stats.misprediction_ratio < 0.25

    def test_misfetch_counted_separately(self):
        profile = BranchProfile(
            loop_fraction=1.0, pattern_fraction=0.0,
            data_dependent_fraction=0.0, loop_trip=16,
            indirect_fraction=0.0, static_sites=2048,
        )
        stats = self.run_mix(SimplePredictor, profile)
        assert stats.misfetches > 0
        assert stats.branches == 12_000

    def test_mispredictions_pki(self):
        stats = self.run_mix(
            HybridPredictor,
            BranchProfile(
                loop_fraction=0.5, pattern_fraction=0.2,
                data_dependent_fraction=0.3, static_sites=64,
            ),
            n=2000,
        )
        assert stats.mispredictions_pki(10_000) == pytest.approx(
            stats.mispredictions / 10.0
        )


class TestBranchStreamGenerator:
    def test_determinism(self):
        profile = BranchProfile(
            loop_fraction=0.4, pattern_fraction=0.2,
            data_dependent_fraction=0.4, static_sites=128,
        )
        a = BranchStreamGenerator(profile, seed=9).generate(500)
        b = BranchStreamGenerator(profile, seed=9).generate(500)
        for field in ("pc", "taken", "is_indirect", "target"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_event_count(self):
        profile = BranchProfile(
            loop_fraction=0.4, pattern_fraction=0.2,
            data_dependent_fraction=0.4, static_sites=128,
        )
        events = BranchStreamGenerator(profile, seed=1).generate(321)
        assert len(events) == 321

    def test_indirect_fraction_respected(self):
        profile = BranchProfile(
            loop_fraction=0.4, pattern_fraction=0.2,
            data_dependent_fraction=0.4, indirect_fraction=0.25,
            static_sites=128,
        )
        events = BranchStreamGenerator(profile, seed=2).generate(4000)
        assert 0.18 < events.is_indirect.mean() < 0.32

    def test_taken_bias(self):
        profile = BranchProfile(
            loop_fraction=0.0, pattern_fraction=0.0,
            data_dependent_fraction=1.0, taken_prob=0.1,
            indirect_fraction=0.0, static_sites=64,
        )
        events = BranchStreamGenerator(profile, seed=3).generate(5000)
        assert 0.05 < events.taken.mean() < 0.18


# --- Differential tests against the per-branch oracle -------------------


@st.composite
def branch_profiles(draw, min_sites=1, max_sites=512):
    weights = draw(st.lists(st.integers(0, 8), min_size=3, max_size=3)
                   .filter(any))
    fractions = [w / sum(weights) for w in weights]
    return BranchProfile(
        loop_fraction=fractions[0],
        pattern_fraction=fractions[1],
        data_dependent_fraction=fractions[2],
        taken_prob=draw(st.sampled_from([0.0, 0.04, 0.3, 0.5, 0.9, 1.0])),
        loop_trip=draw(st.integers(2, 40)),
        pattern_period=draw(st.integers(2, 9)),
        indirect_fraction=draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0])),
        indirect_targets=draw(st.integers(1, 16)),
        static_sites=draw(st.integers(min_sites, max_sites)),
    )


def event_tuples(stream):
    return list(zip(stream.pc.tolist(), stream.taken.tolist(),
                    stream.is_indirect.tolist(), stream.target.tolist()))


def oracle_tuples(events):
    return [(e.pc, bool(e.taken), e.is_indirect, e.target) for e in events]


def assert_replays_match(profile, seed, lengths, make, make_oracle):
    """Warm-then-measure on one predictor of each model; every call's
    stream and statistics must agree exactly."""
    arrays = BranchStreamGenerator(profile, seed=seed)
    scalar = BranchStreamGenerator(profile, seed=seed)
    predictor, reference = make(), make_oracle()
    for n in lengths:
        stream = arrays.generate(n)
        events = oracle.oracle_generate(scalar, n)
        assert event_tuples(stream) == oracle_tuples(events)
        assert simulate_branches(stream, predictor) == oracle.oracle_simulate(
            events, reference)


call_lengths = st.lists(st.integers(0, 1500), min_size=1, max_size=3)


class TestAgainstOracle:
    @given(branch_profiles(), st.integers(0, 2**16), call_lengths)
    @settings(max_examples=40, deadline=None)
    def test_generator_matches_event_loop(self, profile, seed, lengths):
        arrays = BranchStreamGenerator(profile, seed=seed)
        scalar = BranchStreamGenerator(profile, seed=seed)
        for n in lengths:
            assert event_tuples(arrays.generate(n)) == oracle_tuples(
                oracle.oracle_generate(scalar, n))
        assert (arrays._rng.bit_generator.state
                == scalar._rng.bit_generator.state)

    @given(branch_profiles(), st.integers(0, 2**16), call_lengths)
    @settings(max_examples=30, deadline=None)
    def test_default_predictors_match(self, profile, seed, lengths):
        assert_replays_match(profile, seed, lengths,
                             HybridPredictor, oracle.HybridPredictor)
        assert_replays_match(profile, seed, lengths,
                             SimplePredictor, oracle.SimplePredictor)

    @given(
        branch_profiles(min_sites=4096, max_sites=9000),
        st.integers(0, 2**16),
        call_lengths,
        st.integers(4, 64),
        st.sampled_from([16, 32, 64, 128]),
    )
    @settings(max_examples=30, deadline=None)
    def test_heavy_eviction(self, profile, seed, lengths, loop_entries,
                            btb_entries):
        def config(cls):
            return lambda: cls(loop_entries=loop_entries,
                               btb_entries=btb_entries)
        assert_replays_match(profile, seed, lengths,
                             config(HybridPredictor),
                             config(oracle.HybridPredictor))
        assert_replays_match(
            profile, seed, lengths,
            lambda: SimplePredictor(btb_entries=btb_entries),
            lambda: oracle.SimplePredictor(btb_entries=btb_entries))

    @given(
        branch_profiles(),
        st.integers(0, 2**16),
        call_lengths,
        st.integers(0, 12),
        st.integers(0, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_heavy_aliasing(self, profile, seed, lengths, history_bits,
                            log_entries):
        # Local PHTs of 1..4096 counters, far below 4096 << history_bits.
        def config(cls):
            return lambda: cls(history_bits=history_bits,
                               table_entries=1 << log_entries,
                               btb_entries=16)
        assert_replays_match(profile, seed, lengths,
                             config(HybridPredictor),
                             config(oracle.HybridPredictor))
        assert_replays_match(profile, seed, lengths,
                             config(SimplePredictor),
                             config(oracle.SimplePredictor))
