"""Per-branch reference model of branch replay (test-only oracle).

This is the scalar model :mod:`repro.uarch.branch` used before the
generator and the predictors moved onto whole arrays: the generator
builds one :class:`BranchEvent` per dynamic branch, and each predictor
component handles one branch at a time through ``predict``/``update``.
The differential tests hold the array code to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.uarch.branch import BranchStats, _hash_pc


class BranchOutcome(enum.Enum):
    """Result of one prediction."""

    CORRECT = "correct"
    MISPREDICT = "mispredict"
    MISFETCH = "misfetch"


@dataclass(frozen=True)
class BranchEvent:
    """One dynamic branch: its site, outcome and (if taken) target."""

    pc: int
    taken: bool
    is_indirect: bool
    target: int


class SaturatingCounterTable:
    """A table of 2-bit saturating counters, the classic PHT building block."""

    def __init__(self, entries: int, initial: int = 2):
        if entries <= 0:
            raise ValueError("entries must be positive")
        if not 0 <= initial <= 3:
            raise ValueError("initial counter value must be in [0, 3]")
        self._mask = entries - 1
        if entries & self._mask:
            raise ValueError("entries must be a power of two")
        self._counters = [initial] * entries

    @property
    def counters(self) -> List[int]:
        """Every counter's value, by entry."""
        return list(self._counters)

    def predict(self, index: int) -> bool:
        """Predict taken when the counter's high bit is set."""
        return self._counters[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        i = index & self._mask
        value = self._counters[i]
        if taken:
            if value < 3:
                self._counters[i] = value + 1
        elif value > 0:
            self._counters[i] = value - 1


class BranchTargetBuffer:
    """A set-associative BTB over branch PCs.

    A taken branch whose PC misses in the BTB is a *misfetch*: the front
    end cannot redirect until the target is computed, costing a short
    bubble rather than a full flush.
    """

    def __init__(self, entries: int, ways: int = 4):
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self._ways = ways
        self._num_sets = entries // ways
        self._sets: List[List[List[int]]] = [[] for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Return the stored target for ``pc``, or None on BTB miss."""
        ways = self._sets[_hash_pc(pc) % self._num_sets]
        for i, entry in enumerate(ways):
            if entry[0] == pc:
                ways.append(ways.pop(i))
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        ways = self._sets[_hash_pc(pc) % self._num_sets]
        for i, entry in enumerate(ways):
            if entry[0] == pc:
                entry[1] = target
                ways.append(ways.pop(i))
                return
        if len(ways) >= self._ways:
            ways.pop(0)
        ways.append([pc, target])

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class TwoLevelGlobalPredictor:
    """Two-level adaptive predictor with a global history register.

    The global history is XOR-folded with the branch PC (gshare indexing)
    into a pattern history table of 2-bit counters.  This is the paper's
    model of the Atom D510 conditional predictor: with many interleaved
    branch sites the global history carries little per-branch signal, so
    accuracy degrades towards bimodal behaviour with aliasing noise.
    """

    def __init__(self, history_bits: int = 2, table_entries: int = 4096):
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._pht = SaturatingCounterTable(table_entries)

    def _index(self, pc: int) -> int:
        # PC-dominant indexing: with a short global history the PHT entry
        # is mostly per-branch, degrading gracefully towards bimodal
        # behaviour when history carries no per-branch signal.
        return _hash_pc(pc) ^ (self._history << 1)

    def predict(self, pc: int) -> bool:
        return self._pht.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self._pht.update(self._index(pc), taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class LocalHistoryPredictor:
    """Two-level predictor with per-branch (local) history.

    Each branch PC owns a shift register of its own recent outcomes; the
    pattern table is indexed by (PC, local history).  Local history makes
    per-branch patterns learnable even when many branch sites interleave
    arbitrarily — the key accuracy advantage modelled for the E5645's
    hybrid predictor over the Atom's global-history scheme.
    """

    def __init__(
        self,
        history_bits: int = 8,
        history_entries: int = 4096,
        table_entries: int = 1 << 18,
    ):
        self._history_mask = (1 << history_bits) - 1
        self._history_bits = history_bits
        self._histories = [0] * history_entries
        self._history_index_mask = history_entries - 1
        if history_entries & self._history_index_mask:
            raise ValueError("history_entries must be a power of two")
        self._pht = SaturatingCounterTable(table_entries)

    def _index(self, pc: int) -> int:
        slot = _hash_pc(pc) & self._history_index_mask
        history = self._histories[slot]
        return (slot << self._history_bits) | history

    def predict(self, pc: int) -> bool:
        return self._pht.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self._pht.update(self._index(pc), taken)
        slot = _hash_pc(pc) & self._history_index_mask
        self._histories[slot] = (
            (self._histories[slot] << 1) | int(taken)
        ) & self._history_mask


class BimodalPredictor:
    """Per-PC 2-bit counters — the floor any decent predictor achieves."""

    def __init__(self, table_entries: int = 16384):
        self._pht = SaturatingCounterTable(table_entries)

    def predict(self, pc: int) -> bool:
        return self._pht.predict(_hash_pc(pc))

    def update(self, pc: int, taken: bool) -> None:
        self._pht.update(_hash_pc(pc), taken)


class LoopPredictor:
    """Detects branches with fixed trip counts and predicts the exit.

    Per-PC entries track the current iteration count and the last observed
    trip count; once the same trip count has been seen twice, the entry is
    confident and predicts not-taken exactly at the trip boundary.
    Entries are managed LRU so hot loops stay resident.
    """

    def __init__(self, entries: int = 1024):
        self._entries = entries
        # pc -> [current_count, last_trip, confident]; dict order is LRU.
        self._table: dict = {}

    def _touch(self, pc: int, entry: list) -> None:
        # Re-insert to refresh recency (Python dicts preserve order).
        del self._table[pc]
        self._table[pc] = entry

    def predict(self, pc: int) -> Optional[bool]:
        """Confident prediction for ``pc`` or None when unsure."""
        entry = self._table.get(pc)
        if entry is None or not entry[2]:
            return None
        current, trip, _ = entry
        return current < trip

    def update(self, pc: int, taken: bool) -> None:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self._entries:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = [1 if taken else 0, -1, False]
            return
        if taken:
            entry[0] += 1
        else:
            observed_trip = entry[0]
            entry[2] = entry[1] == observed_trip
            entry[1] = observed_trip
            entry[0] = 0
        self._touch(pc, entry)


class IndirectPredictor:
    """Target predictor for indirect jumps and calls.

    Models the E5645's dedicated indirect predictor (Table 4): a
    history-indexed target cache backed by a per-PC most-frequent-target
    table (real predictors converge on the dominant target of mostly-
    monomorphic virtual-dispatch sites; plain last-target BTBs do not).
    """

    def __init__(self, entries: int = 2048, history_bits: int = 4):
        self._history_table: dict = {}
        self._freq_table: dict = {}
        self._entries = entries
        self._history = 0
        self._mask = (1 << history_bits) - 1

    def _dominant(self, pc: int) -> Optional[int]:
        counts = self._freq_table.get(pc)
        if not counts:
            return None
        return max(counts, key=counts.get)

    def predict(self, pc: int) -> Optional[int]:
        predicted = self._history_table.get((pc, self._history))
        if predicted is not None:
            return predicted
        return self._dominant(pc)

    def update(self, pc: int, target: int) -> None:
        if len(self._history_table) >= self._entries:
            self._history_table.pop(next(iter(self._history_table)))
        self._history_table[(pc, self._history)] = target
        counts = self._freq_table.get(pc)
        if counts is None:
            if len(self._freq_table) >= self._entries:
                self._freq_table.pop(next(iter(self._freq_table)))
            counts = self._freq_table[pc] = {}
        counts[target] = counts.get(target, 0) + 1
        if len(counts) > 8:
            # Periodically halve so stale targets age out.
            for key in list(counts):
                counts[key] //= 2
                if counts[key] == 0:
                    del counts[key]
        self._history = ((self._history << 1) ^ (target & 0x7)) & self._mask


class Predictor:
    """Common front-end predictor interface: direction + target."""

    name = "abstract"

    def predict_and_update(self, event: BranchEvent) -> BranchOutcome:
        """Process one branch and classify the prediction outcome."""
        raise NotImplementedError


class SimplePredictor(Predictor):
    """Atom-D510-class front end (Table 4, left column)."""

    name = "two-level-global"

    def __init__(
        self,
        history_bits: int = 2,
        table_entries: int = 4096,
        btb_entries: int = 128,
    ):
        self.direction = TwoLevelGlobalPredictor(history_bits, table_entries)
        self.btb = BranchTargetBuffer(btb_entries)

    def predict_and_update(self, event: BranchEvent) -> BranchOutcome:
        if event.is_indirect:
            # No indirect predictor: the BTB's last target is the guess;
            # a wrong target is a full misprediction.
            predicted_target = self.btb.lookup(event.pc)
            self.btb.update(event.pc, event.target)
            if predicted_target == event.target:
                return BranchOutcome.CORRECT
            return BranchOutcome.MISPREDICT
        predicted = self.direction.predict(event.pc)
        self.direction.update(event.pc, event.taken)
        if predicted != event.taken:
            return BranchOutcome.MISPREDICT
        if event.taken:
            in_btb = self.btb.lookup(event.pc) == event.target
            self.btb.update(event.pc, event.target)
            if not in_btb:
                return BranchOutcome.MISFETCH
        return BranchOutcome.CORRECT


class HybridPredictor(Predictor):
    """Xeon-E5645-class front end (Table 4, right column)."""

    name = "hybrid"

    def __init__(
        self,
        history_bits: int = 8,
        table_entries: int = 1 << 18,
        btb_entries: int = 8192,
        loop_entries: int = 1024,
    ):
        self.local = LocalHistoryPredictor(
            history_bits=history_bits, table_entries=table_entries
        )
        self.bimodal = BimodalPredictor()
        self.chooser = SaturatingCounterTable(16384)
        self.loop = LoopPredictor(loop_entries)
        self.indirect = IndirectPredictor()
        self.btb = BranchTargetBuffer(btb_entries)

    def predict_and_update(self, event: BranchEvent) -> BranchOutcome:
        if event.is_indirect:
            predicted_target = self.indirect.predict(event.pc)
            if predicted_target is None:
                predicted_target = self.btb.lookup(event.pc)
            else:
                self.btb.lookup(event.pc)  # keep BTB stats comparable
            self.indirect.update(event.pc, event.target)
            self.btb.update(event.pc, event.target)
            if predicted_target == event.target:
                return BranchOutcome.CORRECT
            return BranchOutcome.MISPREDICT

        loop_prediction = self.loop.predict(event.pc)
        local_prediction = self.local.predict(event.pc)
        bimodal_prediction = self.bimodal.predict(event.pc)
        # The chooser tracks which component has served this PC better.
        use_local = self.chooser.predict(_hash_pc(event.pc))
        if loop_prediction is not None:
            predicted = loop_prediction
        elif use_local:
            predicted = local_prediction
        else:
            predicted = bimodal_prediction

        # Update every component; train the chooser towards the component
        # that was right when they disagreed.
        if local_prediction != bimodal_prediction:
            self.chooser.update(_hash_pc(event.pc), local_prediction == event.taken)
        self.local.update(event.pc, event.taken)
        self.bimodal.update(event.pc, event.taken)
        self.loop.update(event.pc, event.taken)

        if predicted != event.taken:
            return BranchOutcome.MISPREDICT
        if event.taken:
            in_btb = self.btb.lookup(event.pc) == event.target
            self.btb.update(event.pc, event.target)
            if not in_btb:
                return BranchOutcome.MISFETCH
        return BranchOutcome.CORRECT


def oracle_site_popularity(generator, count: int, size: int) -> np.ndarray:
    """Zipf-skewed choice of ``size`` site indices in ``[0, count)``,
    with ``Generator.choice(p=...)``."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    ranks = np.arange(1, count + 1, dtype=float)
    weights = np.power(ranks, -generator.SITE_ZIPF)
    weights /= weights.sum()
    return generator._rng.choice(count, size=size, p=weights)


def oracle_generate(generator, n: int) -> List[BranchEvent]:
    """:meth:`repro.uarch.branch.BranchStreamGenerator.generate`, one
    event at a time, drawing from ``generator``'s random state with
    ``Generator.choice(p=...)``."""
    profile = generator.profile
    rng = generator._rng
    events: List[BranchEvent] = []

    kind_probs = np.array(
        [
            profile.loop_fraction * (1 - profile.indirect_fraction),
            profile.pattern_fraction * (1 - profile.indirect_fraction),
            profile.data_dependent_fraction * (1 - profile.indirect_fraction),
            profile.indirect_fraction,
        ]
    )
    kind_probs /= kind_probs.sum()
    kinds = rng.choice(4, size=n, p=kind_probs)

    counts = np.bincount(kinds, minlength=4)
    def popularity(count, size):
        return oracle_site_popularity(generator, count, size)

    loop_choice = popularity(len(generator._loop_sites), counts[0])
    pattern_choice = popularity(len(generator._pattern_sites), counts[1])
    datadep_choice = popularity(generator._datadep_sites, counts[2])
    indirect_choice = popularity(generator._indirect_sites, counts[3])
    datadep_outcomes = rng.random(counts[2]) < profile.taken_prob
    indirect_dominant = rng.random(counts[3]) < generator.INDIRECT_DOMINANT_PROB
    indirect_minor = rng.integers(
        1, max(2, profile.indirect_targets), size=counts[3]
    )

    loop_iter: dict = {}
    pattern_pos: dict = {}
    idx = [0, 0, 0, 0]
    for kind in kinds:
        if kind == 0:
            site = int(loop_choice[idx[0]])
            idx[0] += 1
            trip = generator._loop_sites[site]
            it = loop_iter.get(site, 0)
            taken = it < trip - 1
            loop_iter[site] = 0 if not taken else it + 1
            pc = 0x10000 + site * 16
            events.append(BranchEvent(pc, taken, False, pc - 64))
        elif kind == 1:
            site = int(pattern_choice[idx[1]])
            idx[1] += 1
            pattern = generator._pattern_sites[site]
            pos = pattern_pos.get(site, 0)
            taken = bool(pattern[pos])
            pattern_pos[site] = (pos + 1) % len(pattern)
            pc = 0x200000 + site * 16
            events.append(BranchEvent(pc, taken, False, pc + 128))
        elif kind == 2:
            site = int(datadep_choice[idx[2]])
            taken = bool(datadep_outcomes[idx[2]])
            idx[2] += 1
            pc = 0x400000 + site * 16
            events.append(BranchEvent(pc, taken, False, pc + 256))
        else:
            site = int(indirect_choice[idx[3]])
            if indirect_dominant[idx[3]]:
                target_id = 0
            else:
                target_id = int(indirect_minor[idx[3]])
            idx[3] += 1
            pc = 0x800000 + site * 16
            events.append(
                BranchEvent(pc, True, True, 0x900000 + target_id * 64)
            )
    return events


def oracle_simulate(events: Sequence[BranchEvent],
                    predictor: Predictor) -> BranchStats:
    """Replay ``events`` one at a time and collect statistics."""
    mispredictions = 0
    misfetches = 0
    for event in events:
        outcome = predictor.predict_and_update(event)
        if outcome is BranchOutcome.MISPREDICT:
            mispredictions += 1
        elif outcome is BranchOutcome.MISFETCH:
            misfetches += 1
    btb = getattr(predictor, "btb", None)
    btb_miss_ratio = btb.miss_ratio if btb is not None else 0.0
    return BranchStats(
        branches=len(events),
        mispredictions=mispredictions,
        misfetches=misfetches,
        btb_miss_ratio=btb_miss_ratio,
    )
