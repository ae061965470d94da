"""MARSSx86-style cache capacity sweeps (§5.4, Figures 6-9).

The paper's locality study fixes an Atom-like single-core configuration
(8-way L1 with 64-byte lines, shared 8-way L2) and sweeps the L1 size
from 16 KB to 8192 KB, recording the miss ratio at every size.  The same
study is reproduced here by running the synthetic instruction/data
streams of :mod:`repro.uarch.trace` through exact LRU caches: the first
half of each trace warms the cache, the second half is measured.  One
:func:`repro.uarch.cache.lru_sweep_misses` call covers every swept size
of a trace: it sorts the trace's lines once, and runs the LRU kernel
:func:`repro.uarch.cache.lru_hits` only on the references of sets that
receive more distinct lines than ways.

Workloads may be simulated in *segments*: sweep each segment's profile
once and combine the curves with
:meth:`CacheSweepSimulator.weighted_curve`.  The paper samples Hadoop
executions at Map 0-1%, 50-51% and 99-100% and at Reduce 0-1% and
99-100% and takes the weighted mean.  A mean over equal curves is that
curve, so points of one stationary phase collapse into one segment
carrying the phase's whole weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.uarch.cache import CacheConfig, lru_sweep_misses
from repro.uarch.profile import CodeFootprint, DataFootprint
from repro.uarch.trace import generate_data_trace, generate_fetch_trace

#: The paper's sweep points, in KB (Figures 6-9 x-axis).
DEFAULT_SIZES_KB: Tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def sweep_set_counts(sizes_kb: Sequence[int], ways: int) -> List[int]:
    """The set count of a ``ways``-way cache at each of ``sizes_kb``;
    a size that is no valid geometry raises."""
    return [
        CacheConfig(f"L1@{size_kb}KB", size_kb * 1024, ways=ways).num_sets
        for size_kb in sizes_kb
    ]


@dataclass
class SweepResult:
    """Miss-ratio-versus-capacity curve for one workload."""

    name: str
    sizes_kb: List[int]
    miss_ratios: List[float]

    def at(self, size_kb: int) -> float:
        """Miss ratio at a specific swept size."""
        try:
            return self.miss_ratios[self.sizes_kb.index(size_kb)]
        except ValueError:
            raise KeyError(f"size {size_kb} KB was not swept") from None

    def knee_kb(self, threshold: Optional[float] = None) -> Optional[int]:
        """Smallest swept size where the curve has flattened.

        This estimates the workload *footprint* the way the paper reads
        Figures 6-9 ("the footprint of PARSEC is about 128 KB ... that of
        big data Hadoop workloads is about 1024 KB").  With ``threshold``
        given, returns the first size whose miss ratio drops below it;
        otherwise uses a relative criterion — within 10% (plus a small
        absolute epsilon) of the curve's floor, which is robust to the
        residual compulsory misses of finite sampled traces.  Returns
        None when the curve never flattens.
        """
        if threshold is None:
            floor = min(self.miss_ratios)
            threshold = 1.10 * floor + 0.002
            for size, ratio in zip(self.sizes_kb, self.miss_ratios):
                if ratio <= threshold:
                    return size
            return None
        for size, ratio in zip(self.sizes_kb, self.miss_ratios):
            if ratio < threshold:
                return size
        return None


class CacheSweepSimulator:
    """Sweeps a single cache level's capacity over a synthetic trace."""

    def __init__(
        self,
        trace_refs: int,
        sizes_kb: Sequence[int] = DEFAULT_SIZES_KB,
        ways: int = 8,
        seed: int = 2024,
    ):
        if not sizes_kb:
            raise ValueError("need at least one sweep size")
        self.sizes_kb = list(sizes_kb)
        self.ways = ways
        self.trace_refs = trace_refs
        self.seed = seed

    def _sweep(self, name: str, trace: np.ndarray) -> SweepResult:
        """Miss ratio of the second half of ``trace`` at every cache size,
        the first half warming each cold cache: one
        :func:`lru_sweep_misses` call over the sizes' set counts."""
        half = len(trace) // 2
        measured = len(trace) - half
        misses = lru_sweep_misses(
            trace, sweep_set_counts(self.sizes_kb, self.ways), self.ways,
            start=half,
        )
        ratios = [count / measured if measured else 0.0 for count in misses]
        return SweepResult(name=name, sizes_kb=list(self.sizes_kb), miss_ratios=ratios)

    def instruction_curve(
        self, name: str, footprint: CodeFootprint
    ) -> SweepResult:
        """Instruction-cache miss ratio versus capacity (Figures 6, 9)."""
        trace = generate_fetch_trace(
            footprint, 2 * self.trace_refs, seed=self.seed
        )
        return self._sweep(name, trace)

    def data_curve(self, name: str, data: DataFootprint) -> SweepResult:
        """Data-cache miss ratio versus capacity (Figure 7)."""
        trace = generate_data_trace(
            data, 2 * self.trace_refs, seed=self.seed + 1
        )
        return self._sweep(name, trace)

    def unified_curve(
        self,
        name: str,
        footprint: CodeFootprint,
        data: DataFootprint,
        fetch_share: float = 0.6,
    ) -> SweepResult:
        """Unified (instruction + data) miss ratio versus capacity (Figure 8).

        ``fetch_share`` is the fraction of references that are instruction
        fetches; the two streams are interleaved deterministically.
        """
        if not 0.0 < fetch_share < 1.0:
            raise ValueError("fetch_share must be in (0, 1)")
        total = 2 * self.trace_refs
        n_fetch = int(total * fetch_share)
        n_data = total - n_fetch
        fetch = generate_fetch_trace(footprint, n_fetch, seed=self.seed)
        data_trace = generate_data_trace(data, n_data, seed=self.seed + 1)
        rng = np.random.default_rng(self.seed + 2)
        merged = np.empty(total, dtype=np.int64)
        is_fetch = np.zeros(total, dtype=bool)
        is_fetch[rng.choice(total, size=n_fetch, replace=False)] = True
        merged[is_fetch] = fetch
        merged[~is_fetch] = data_trace
        return self._sweep(name, merged)

    @staticmethod
    def weighted_curve(
        name: str, parts: Sequence[Tuple[SweepResult, float]]
    ) -> SweepResult:
        """Weighted mean of segment curves (the paper's §5.4 sampling)."""
        if not parts:
            raise ValueError("need at least one segment")
        sizes = parts[0][0].sizes_kb
        for result, _ in parts:
            if result.sizes_kb != sizes:
                raise ValueError("segment sweeps use different size grids")
        total_weight = sum(weight for _, weight in parts)
        if total_weight <= 0:
            raise ValueError("total weight must be positive")
        ratios = [
            sum(result.miss_ratios[i] * weight for result, weight in parts)
            / total_weight
            for i in range(len(sizes))
        ]
        return SweepResult(name=name, sizes_kb=list(sizes), miss_ratios=ratios)

    @staticmethod
    def average_curves(name: str, curves: Sequence[SweepResult]) -> SweepResult:
        """Unweighted mean across workloads (the figures plot suite means)."""
        return CacheSweepSimulator.weighted_curve(
            name, [(curve, 1.0) for curve in curves]
        )
