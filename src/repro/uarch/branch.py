"""Branch predictor simulation (Table 4 and §5.1 of the paper).

Two predictor organisations are modelled after the paper's comparison:

- :class:`SimplePredictor` — the Intel Atom D510: a two-level adaptive
  predictor with a global history table, no indirect-branch predictor
  (indirect targets come from the BTB's last-target entry) and a
  128-entry BTB.
- :class:`HybridPredictor` — the Intel Xeon E5645: a hybrid combining a
  (local-history) two-level predictor, a bimodal fallback with a chooser,
  and a loop counter; plus a history-based indirect predictor and an
  8192-entry BTB.

Branch streams are synthesised from a workload's
:class:`repro.uarch.profile.BranchProfile` by :class:`BranchStreamGenerator`
as packed arrays (:class:`BranchStream`) and replayed through a predictor
by :func:`simulate_branches`.

Replay runs on whole arrays (DESIGN §5k): history registers are shifts
of the outcome array, counter tables are segmented prefix scans
(:func:`_counter_scan`), and the BTB and the loop predictor's table
run on the LRU kernels of :mod:`repro.uarch.cache`.  Only the indirect
predictor loops over branches.  The counts equal those of the
per-branch model in ``tests/branch_oracle.py`` exactly.

Outcome accounting distinguishes *mispredictions* (wrong direction or
wrong indirect target — a full pipeline flush) from *misfetches* (correct
direction but the BTB lacked the target — a short fetch bubble); hardware
counts these separately and so do we.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.uarch.cache import _stable_order, lru_hits, lru_hits_full
from repro.uarch.trace import category_cdf, draw_categories
from repro.uarch.profile import BranchProfile


@dataclass(frozen=True)
class BranchStream:
    """A dynamic branch stream as packed arrays, one element per branch:
    its site ``pc``, outcome, whether it is indirect, and its target."""

    pc: np.ndarray
    taken: np.ndarray
    is_indirect: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.pc)


def _hash_pc(pc):
    """Scatter branch PCs across prediction tables (ints or arrays).

    Real tables index with low PC bits, which are well-distributed for
    real code layouts; our synthetic PCs are strided within per-kind
    regions, so a multiplicative hash restores uniform spread and avoids
    pathological aliasing between regions.
    """
    return ((pc >> 4) * 0x9E3779B1) >> 8


def _segments(keys: np.ndarray):
    """Stable sort by non-negative integer key: the order, the sorted keys,
    each element's rank in its run of equal keys, and a mask of the last
    element of each run.  Sorts a copy: callers reuse their keys."""
    order, keys = _stable_order(keys.copy(), int(keys.max(initial=0)) + 1)
    last = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    position = np.arange(len(keys))
    first = np.where(np.append(True, last[:-1]), position, 0)
    rank = position - np.maximum.accumulate(first)
    return order, keys, rank, last


def _occurrences(keys: np.ndarray) -> np.ndarray:
    """How many earlier elements of ``keys`` equal each element."""
    order, _, rank, _ = _segments(keys)
    occurrence = np.empty(len(keys), dtype=np.int64)
    occurrence[order] = rank
    return occurrence


#: A map of the 4 states of a 2-bit counter, packed into one byte as
#: ``f(0) | f(1) << 2 | f(2) << 4 | f(3) << 6``: count down, count up,
#: and the constant maps to 0 and 3, indexed by ``up | saturated << 1``.
_UPDATE_MAPS = np.array([0b10_01_00_00, 0b11_11_10_01, 0x00, 0xFF],
                        dtype=np.uint8)


@functools.lru_cache(maxsize=None)
def _compose_table() -> np.ndarray:
    """``table[f << 8 | g]`` is the packed map "apply ``f``, then ``g``"."""
    maps = np.arange(256)
    shifts = 2 * np.arange(4)
    first = (maps[:, None] >> shifts) & 3
    both = (maps[None, :, None] >> (2 * first[:, None, :])) & 3
    table = (both << shifts).sum(axis=2).astype(np.uint8).ravel()
    table.setflags(write=False)  # shared by every caller
    return table


def _counter_scan(table: np.ndarray, index: np.ndarray, up: np.ndarray,
                  train: Optional[np.ndarray] = None) -> np.ndarray:
    """Replay updates through a table of 2-bit saturating counters.

    Event ``i`` reads counter ``index[i]`` (masked to the table size),
    then counts it up if ``up[i]``, down otherwise, or leaves it where
    ``train[i]`` is false.  Returns each event's prediction (counter >= 2
    before its update) and leaves the final counters in ``table``.

    Only the trained events are composed, grouped by entry in a stable
    sort.  The third of three same-direction updates of an entry leaves
    its counter saturated whatever it held, so it carries a constant map
    and starts a new run; log-step doubling composes each run's maps and
    reaches back only to the run's start.  An event's counter before it
    is the value after its entry's latest trained event, or the table
    value if there is none: one cumulative count and one gather.
    """
    order, keys = _stable_order(index & (len(table) - 1), len(table))
    if train is None:
        trained = np.ones(len(keys), dtype=bool)
        source, entry = order, keys
    else:
        trained = train[order]
        source, entry = order[trained], keys[trained]
    count = len(entry)
    rising = up[source]
    first = np.ones(count, dtype=bool)
    np.not_equal(entry[1:], entry[:-1], out=first[1:])
    saturated = np.zeros(count, dtype=bool)
    np.equal(rising[2:], rising[1:-1], out=saturated[2:])
    saturated[2:] &= rising[1:-1] == rising[:-2]
    saturated[2:] &= entry[2:] == entry[:-2]
    prefix = _UPDATE_MAPS[rising.view(np.uint8)
                          | (saturated.view(np.uint8) << 1)]
    # Each trained event's rank in its run; runs start at an entry's
    # first trained event and at every saturating one.
    position = np.arange(count, dtype=np.int32)
    begin = np.where(first | saturated, position, 0)
    np.maximum.accumulate(begin, out=begin)
    rank = np.subtract(position, begin, out=position)
    compose = _compose_table()
    ahead = np.flatnonzero(rank)
    step = 1
    while len(ahead):
        earlier = prefix[ahead - step].astype(np.intp) << 8
        prefix[ahead] = compose[earlier | prefix[ahead]]
        step *= 2
        ahead = ahead[rank[ahead] >= step]
    counters = table[keys]
    # After each trained event, and whose it is; slot 0 stands for none.
    after = np.zeros(count + 1, dtype=np.uint8)
    np.right_shift(prefix, table[entry] << 1, out=after[1:])
    after &= 3
    owner = np.full(count + 1, len(table), dtype=keys.dtype)
    owner[1:] = entry
    latest = np.cumsum(trained, dtype=np.int32)
    latest -= trained
    before = np.where(owner[latest] == keys, after[latest], counters)
    last = np.ones(count, dtype=bool)
    last[:-1] = first[1:]
    table[entry[last]] = after[1:][last]
    predicted = np.empty(len(index), dtype=bool)
    predicted[order] = before >= 2
    return predicted


def _histories(slots: np.ndarray, taken: np.ndarray, table: np.ndarray,
               bits: int) -> np.ndarray:
    """Each event's ``bits``-bit outcome history: the previous outcomes
    of its slot, newest in bit 0, continuing from (and updating) the
    history registers in ``table``."""
    order, keys, rank, last = _segments(slots)
    outcome = taken[order].astype(np.int64)
    mask = (1 << bits) - 1
    history = (table[keys] << np.minimum(rank, bits)) & mask
    for back in range(1, min(bits, int(rank.max(initial=0))) + 1):
        reach = rank[back:] >= back
        history[back:][reach] |= outcome[:-back][reach] << (back - 1)
    table[keys[last]] = ((history[last] << 1) | outcome[last]) & mask
    result = np.empty(len(slots), dtype=np.int64)
    result[order] = history
    return result


def _pht(entries: int) -> np.ndarray:
    """A pattern history table of weakly-taken 2-bit counters."""
    if entries <= 0 or entries & (entries - 1):
        raise ValueError("table entries must be a positive power of two")
    return np.full(entries, 2, dtype=np.uint8)


class BranchTargetBuffer:
    """A set-associative LRU BTB over branch PCs.

    A taken branch whose PC misses in the BTB is a *misfetch*: the front
    end cannot redirect until the target is computed, costing a short
    bubble rather than a full flush.
    """

    def __init__(self, entries: int, ways: int = 4):
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self._ways = ways
        self._num_sets = entries // ways
        # Resident entries, oldest access first (so LRU -> MRU per set).
        self._pc = np.zeros(0, dtype=np.int64)
        self._target = np.zeros(0, dtype=np.int64)
        self.hits = 0
        self.misses = 0

    def access(self, pc: np.ndarray,
               target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Look up, then store, each (pc, target) in order; returns the
        hit mask and, on a hit, the stored target (that of the PC's
        previous access).  The resident entries are replayed first, LRU
        first, as uncounted references, restoring the LRU state exactly.
        """
        resident = len(self._pc)
        pc = np.concatenate([self._pc, pc])
        target = np.concatenate([self._target, target])
        sets = _hash_pc(pc) % self._num_sets
        hits = lru_hits(pc * self._num_sets + sets, self._num_sets,
                        self._ways)[resident:]
        order, _, _, last = _segments(pc)
        stored = np.empty(len(pc), dtype=np.int64)
        stored[order[1:]] = target[order[:-1]]
        # Keep each set's ``ways`` most recently used PCs.
        last = np.sort(order[last])[::-1]
        newest, _, rank, _ = _segments(sets[last])
        keep = np.sort(last[newest[rank < self._ways]])
        self._pc, self._target = pc[keep], target[keep]
        self.hits += int(np.count_nonzero(hits))
        self.misses += len(hits) - int(np.count_nonzero(hits))
        return hits, stored[resident:]

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class LoopPredictor:
    """Detects branches with fixed trip counts and predicts the exit.

    Per-PC entries track the current iteration count and the last observed
    trip count; once the same trip count has been seen twice, the entry is
    confident and predicts not-taken exactly at the trip boundary.
    Entries are managed LRU so hot loops stay resident.
    """

    def __init__(self, entries: int = 1024):
        self._entries = entries
        # Resident entries, LRU first: pc, count, last trip, confident.
        self._resident = np.zeros((4, 0), dtype=np.int64)

    def replay(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        """Predict, then train on, each branch in order: 1 (taken) or 0
        (not taken) where the entry was confident, -1 where it was not.

        The resident entries are replayed first, LRU first, as uncounted
        references.  A miss (re)allocates an entry, so each PC's branches
        split into runs that start at a miss or a replayed entry.  Within
        a run, only a not-taken branch changes the trip state, and every
        taken branch adds one to the count.  So the state before a branch
        is the state after the run's latest *anchor* (run start or
        not-taken branch) plus the taken branches since.
        """
        resident = self._resident.shape[1]
        pc = np.concatenate([self._resident[0], pcs])
        order, _, _, last = _segments(pc)
        hit = lru_hits_full(pc, self._entries)[order]
        step = np.arange(len(pc))
        replayed = order < resident
        outcome = np.concatenate([np.zeros(resident, dtype=np.int64),
                                  taken.astype(np.int64)])[order]
        anchor = ~hit | (outcome == 0)
        previous = np.zeros(len(pc), dtype=np.int64)
        previous[1:] = np.maximum.accumulate(np.where(anchor, step, 0))[:-1]
        # The state right after each anchor; a new entry counts its branch.
        count = outcome.copy()
        trip = np.full(len(pc), -1, dtype=np.int64)
        confident = np.zeros(len(pc), dtype=np.int64)
        _, count[replayed], trip[replayed], confident[replayed] = (
            self._resident[:, order[replayed]])
        before = count[previous] + step - previous - 1
        ended = hit & (outcome == 0)
        trip[ended] = before[ended]
        confident[ended] = trip[previous[ended]] == before[ended]

        anchor_of = previous[hit]
        predicted = np.full(len(pc), -1, dtype=np.int8)
        predicted[order[hit]] = np.where(
            confident[anchor_of], before[hit] < trip[anchor_of], -1)

        # The ``entries`` most recently used PCs stay, with their state.
        final = np.flatnonzero(last)
        final = final[np.argsort(order[final])][-self._entries:]
        latest = np.where(anchor[final], final, previous[final])
        self._resident = np.stack([
            pc[order[final]],
            np.where(anchor[final], count[final], before[final] + 1),
            trip[latest],
            confident[latest],
        ])
        return predicted[resident:]


class IndirectPredictor:
    """Target predictor for indirect jumps and calls.

    Models the E5645's dedicated indirect predictor (Table 4): a
    history-indexed target cache backed by a per-PC most-frequent-target
    table (real predictors converge on the dominant target of mostly-
    monomorphic virtual-dispatch sites; plain last-target BTBs do not).

    Known defect, kept until a change meant to move Table 4: the history
    register never carries information.  :class:`BranchStreamGenerator`
    makes every indirect target ``0x900000 + 64 * k``, so ``target & 0x7``
    is always 0 and ``_history`` stays 0; the "(pc, history)" table is a
    per-PC last-target table.
    """

    def __init__(self, entries: int = 2048, history_bits: int = 4):
        self._history_table: dict = {}
        self._freq_table: dict = {}
        self._entries = entries
        self._history = 0
        self._mask = (1 << history_bits) - 1

    def replay(self, pcs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Predict, then train on, each indirect branch in order; returns
        the predicted targets, -1 where there was no prediction."""
        predictions = []
        for pc, target in zip(pcs.tolist(), targets.tolist()):
            predicted = self._history_table.get((pc, self._history))
            if predicted is None:
                counts = self._freq_table.get(pc)
                predicted = max(counts, key=counts.get) if counts else -1
            predictions.append(predicted)
            self._update(pc, target)
        return np.array(predictions, dtype=np.int64)

    def _update(self, pc: int, target: int) -> None:
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
    """Common front-end predictor interface: direction + target.

    A predictor keeps its state between :meth:`replay` calls, so a
    warm-up stream followed by a measured stream behaves as one stream.
    """

    name = "abstract"
    btb: BranchTargetBuffer

    def replay(self, stream: BranchStream) -> Tuple[int, int]:
        """Replay ``stream``; returns (mispredictions, misfetches)."""
        raise NotImplementedError

    def _resolve(self, stream: BranchStream, predicted: np.ndarray,
                 indirect_guess: Optional[np.ndarray] = None
                 ) -> Tuple[int, int]:
        """Count outcomes from the direction predictions of the
        conditional branches and, if the front end has an indirect
        predictor, its guesses for the indirect ones (-1: none).

        The BTB sees every indirect branch and every taken conditional
        branch whose direction was predicted correctly.
        """
        indirect = stream.is_indirect
        taken = stream.taken[~indirect]
        correct = predicted == taken
        mispredictions = len(correct) - int(np.count_nonzero(correct))
        access = indirect.copy()
        access[~indirect] = correct & taken
        target = stream.target[access]
        hits, stored = self.btb.access(stream.pc[access], target)
        known = hits & (stored == target)
        accessed_indirect = indirect[access]
        misfetches = int(np.count_nonzero(~known & ~accessed_indirect))
        guess = np.where(hits, stored, -1)[accessed_indirect]
        if indirect_guess is not None:
            guess = np.where(indirect_guess >= 0, indirect_guess, guess)
        mispredictions += int(np.count_nonzero(
            guess != target[accessed_indirect]))
        return mispredictions, misfetches


class SimplePredictor(Predictor):
    """Atom-D510-class front end (Table 4, left column).

    The conditional predictor XOR-folds a short global history with the
    branch PC (gshare indexing) into a table of 2-bit counters: with many
    interleaved branch sites the global history carries little
    per-branch signal, so accuracy degrades towards bimodal behaviour
    with aliasing noise.  There is no indirect predictor: the BTB's last
    target is the guess, and a wrong target is a full misprediction.
    """

    name = "two-level-global"

    def __init__(
        self,
        history_bits: int = 2,
        table_entries: int = 4096,
        btb_entries: int = 128,
    ):
        self._history_bits = history_bits
        self._history = np.zeros(1, dtype=np.int64)
        self._pht = _pht(table_entries)
        self.btb = BranchTargetBuffer(btb_entries)

    def replay(self, stream: BranchStream) -> Tuple[int, int]:
        direct = ~stream.is_indirect
        pc, taken = stream.pc[direct], stream.taken[direct]
        history = _histories(np.zeros(len(pc), dtype=np.int64), taken,
                             self._history, self._history_bits)
        predicted = _counter_scan(self._pht, _hash_pc(pc) ^ (history << 1),
                                  taken)
        return self._resolve(stream, predicted)


class HybridPredictor(Predictor):
    """Xeon-E5645-class front end (Table 4, right column).

    Each branch PC owns a shift register of its own recent outcomes that,
    with the PC, indexes a pattern table: local history makes per-branch
    patterns learnable even when many branch sites interleave
    arbitrarily, the accuracy advantage modelled for the E5645 over the
    Atom's global-history scheme.  A chooser, trained towards whichever
    of the local and bimodal tables was right when they disagreed,
    picks between them, and a confident loop counter overrides both.
    """

    name = "hybrid"

    #: Local history registers, and bimodal/chooser counters.
    HISTORY_ENTRIES = 4096
    BIMODAL_ENTRIES = 16384

    def __init__(
        self,
        history_bits: int = 8,
        table_entries: int = 1 << 18,
        btb_entries: int = 8192,
        loop_entries: int = 1024,
    ):
        self._history_bits = history_bits
        self._histories = np.zeros(self.HISTORY_ENTRIES, dtype=np.int64)
        self._local = _pht(table_entries)
        self._bimodal = _pht(self.BIMODAL_ENTRIES)
        self._chooser = _pht(self.BIMODAL_ENTRIES)
        self.loop = LoopPredictor(loop_entries)
        self.indirect = IndirectPredictor()
        self.btb = BranchTargetBuffer(btb_entries)

    def replay(self, stream: BranchStream) -> Tuple[int, int]:
        indirect = stream.is_indirect
        pc, taken = stream.pc[~indirect], stream.taken[~indirect]
        hashed = _hash_pc(pc)
        slot = hashed & (self.HISTORY_ENTRIES - 1)
        history = _histories(slot, taken, self._histories, self._history_bits)
        local = _counter_scan(
            self._local, (slot << self._history_bits) | history, taken)
        bimodal = _counter_scan(self._bimodal, hashed, taken)
        use_local = _counter_scan(self._chooser, hashed, local == taken,
                                  train=local != bimodal)
        loop = self.loop.replay(pc, taken)
        predicted = np.where(loop >= 0, loop == 1,
                             np.where(use_local, local, bimodal))
        guess = self.indirect.replay(stream.pc[indirect],
                                     stream.target[indirect])
        return self._resolve(stream, predicted, guess)


#: Per branch kind (loop, patterned, data-dependent, indirect): the base
#: of its sites' PCs and the offset of a conditional branch's target.
_PC_BASE = np.array([0x10000, 0x200000, 0x400000, 0x800000])
_TARGET_OFFSET = np.array([-64, 128, 256, 0])
_INDIRECT_TARGET_BASE = 0x900000


def _zipf_cdf(count: int, exponent: float) -> np.ndarray:
    """:func:`repro.uarch.trace.category_cdf` of the rank weights
    ``rank ** -exponent`` over ranks ``1..count``."""
    weights = np.power(np.arange(1, count + 1, dtype=float), -exponent)
    weights /= weights.sum()
    return category_cdf(weights)


class BranchStreamGenerator:
    """Synthesises dynamic branch streams from a :class:`BranchProfile`.

    Static sites are instantiated per kind (loop / patterned /
    data-dependent / indirect) and dynamic branches are drawn from a
    skewed (Zipf-like) popularity distribution over the sites, reflecting
    hot kernel loops versus cold framework code.
    """

    #: Skew of dynamic execution over static branch sites.  Real programs
    #: concentrate the vast majority of dynamic branches in a few hot
    #: sites (inner loops); 1.6 puts most dynamic branches in the top few
    #: dozen sites while still exercising the long tail.
    SITE_ZIPF = 1.6

    #: Taken bias within repeating patterns (e.g. a bounds check that
    #: passes three times out of four).
    PATTERN_TAKEN_BIAS = 0.75

    #: Probability that an indirect branch jumps to its site's dominant
    #: target (virtual dispatch is usually monomorphic-dominated).
    INDIRECT_DOMINANT_PROB = 0.85

    def __init__(self, profile: BranchProfile, seed: int = 7):
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        kinds = np.array(
            [
                profile.loop_fraction,
                profile.pattern_fraction,
                profile.data_dependent_fraction,
            ]
        )
        site_counts = np.maximum(1, (kinds * profile.static_sites).astype(int))
        self._loop_sites = self._make_loop_sites(int(site_counts[0]))
        self._pattern_sites = self._make_pattern_sites(int(site_counts[1]))
        self._datadep_sites = int(site_counts[2])
        self._indirect_sites = max(1, profile.static_sites // 32)
        # Zipf-skewed site popularity of each kind (loop, pattern,
        # data-dependent, indirect): the CDF over its site indices.
        self._site_cdfs = [
            _zipf_cdf(count, self.SITE_ZIPF)
            for count in (len(self._loop_sites), len(self._pattern_sites),
                          self._datadep_sites, self._indirect_sites)
        ]

    def _make_loop_sites(self, count: int) -> np.ndarray:
        """Trip count of each loop site."""
        trips = self._rng.geometric(1.0 / self.profile.loop_trip, size=count)
        # Degenerate 2-3 iteration "loops" behave like patterned branches
        # and are modelled there; loop sites get at least 4 trips.
        return np.maximum(4, trips)

    def _make_pattern_sites(self, count: int) -> np.ndarray:
        """One row of outcomes per patterned site."""
        period = self.profile.pattern_period
        n_taken = max(1, int(round(self.PATTERN_TAKEN_BIAS * period)))
        sites = np.zeros((count, period), dtype=bool)
        sites[:, : min(n_taken, period)] = True
        for pattern in sites:
            self._rng.shuffle(pattern)
        return sites

    def generate(self, n: int) -> BranchStream:
        """Generate ``n`` dynamic branches.

        A loop site is taken on every occurrence but the last of each
        trip; a patterned site follows its pattern.  Each call starts
        every site at its first iteration or pattern position.
        """
        profile = self.profile
        rng = self._rng

        kind_probs = np.array(
            [
                profile.loop_fraction * (1 - profile.indirect_fraction),
                profile.pattern_fraction * (1 - profile.indirect_fraction),
                profile.data_dependent_fraction * (1 - profile.indirect_fraction),
                profile.indirect_fraction,
            ]
        )
        kind_probs /= kind_probs.sum()
        kinds = draw_categories(rng, category_cdf(kind_probs), n)

        counts = np.bincount(kinds, minlength=4)
        loop_choice, pattern_choice, datadep_choice, indirect_choice = (
            draw_categories(rng, cdf, count)
            for cdf, count in zip(self._site_cdfs, counts)
        )
        datadep_outcomes = rng.random(counts[2]) < profile.taken_prob
        indirect_dominant = rng.random(counts[3]) < self.INDIRECT_DOMINANT_PROB
        indirect_minor = rng.integers(
            1, max(2, profile.indirect_targets), size=counts[3]
        )

        site = np.empty(n, dtype=np.int64)
        taken = np.ones(n, dtype=bool)
        of_kind = [kinds == kind for kind in range(4)]
        choices = (loop_choice, pattern_choice, datadep_choice, indirect_choice)
        for mask, choice in zip(of_kind, choices):
            site[mask] = choice
        trips = self._loop_sites[loop_choice]
        taken[of_kind[0]] = _occurrences(loop_choice) % trips < trips - 1
        taken[of_kind[1]] = self._pattern_sites[
            pattern_choice,
            _occurrences(pattern_choice) % profile.pattern_period,
        ]
        taken[of_kind[2]] = datadep_outcomes
        pc = _PC_BASE[kinds] + site * 16
        target = pc + _TARGET_OFFSET[kinds]
        target[of_kind[3]] = _INDIRECT_TARGET_BASE + 64 * np.where(
            indirect_dominant, 0, indirect_minor)
        return BranchStream(pc, taken, of_kind[3], target)


@dataclass
class BranchStats:
    """Outcome of replaying a branch stream through a predictor.

    ``btb_miss_ratio`` is the predictor's BTB miss ratio over every
    lookup since the predictor was built, warm-up streams included: the
    BTB counters are never reset between :func:`simulate_branches`
    calls.  The recorded ``btb_miss_ratio`` metric is this number, so it
    stays as it is until a change that is meant to move the metric.
    """

    branches: int
    mispredictions: int
    misfetches: int
    btb_miss_ratio: float

    @property
    def misprediction_ratio(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def misfetch_ratio(self) -> float:
        return self.misfetches / self.branches if self.branches else 0.0

    def mispredictions_pki(self, instructions: float) -> float:
        """Mispredictions per kilo-instruction."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.mispredictions / instructions


def simulate_branches(
    events: BranchStream, predictor: Predictor
) -> BranchStats:
    """Replay ``events`` through ``predictor`` and collect statistics."""
    mispredictions, misfetches = predictor.replay(events)
    return BranchStats(
        branches=len(events),
        mispredictions=mispredictions,
        misfetches=misfetches,
        btb_miss_ratio=predictor.btb.miss_ratio,
    )
