"""Ablations of the architectural implications (§5.1/§5.3 implications).

The paper's implication paragraphs argue for (a) sophisticated branch
prediction, (b) attention to front-end capacity for stack-heavy code.
These benches quantify both on our models:

- BTB capacity sweep on a big data branch stream;
- the loop predictor's contribution to the hybrid's accuracy;
- L1I capacity sweep for a Hadoop workload (the front-end implication).
"""

import numpy as np
import pytest
from conftest import run_once

from repro.uarch.branch import (
    BranchStreamGenerator,
    HybridPredictor,
    SimplePredictor,
    simulate_branches,
)
from repro.uarch.cache import CacheConfig, SetAssociativeCache
from repro.uarch.profile import BranchProfile
from repro.uarch.trace import generate_fetch_trace
from repro.workloads.kernels import hadoop_wordcount

BIGDATA_BRANCHES = BranchProfile(
    loop_fraction=0.40,
    pattern_fraction=0.10,
    data_dependent_fraction=0.50,
    taken_prob=0.04,
    loop_trip=24,
    indirect_fraction=0.04,
    indirect_targets=4,
    static_sites=2048,
)


def test_ablation_btb_capacity(benchmark):
    """Misfetch rate vs BTB entries (Table 4: 128 vs 8192)."""
    generator = BranchStreamGenerator(BIGDATA_BRANCHES, seed=5)
    warm = generator.generate(20_000)
    events = generator.generate(20_000)

    def sweep():
        rates = {}
        for entries in (128, 512, 2048, 8192):
            predictor = SimplePredictor(btb_entries=entries)
            simulate_branches(warm, predictor)
            stats = simulate_branches(events, predictor)
            rates[entries] = stats.misfetch_ratio
        return rates

    rates = run_once(benchmark, sweep)
    print()
    for entries, rate in rates.items():
        print(f"  BTB={entries:5d}  misfetch ratio={rate:.4f}")
    assert rates[8192] < rates[128]


def test_ablation_loop_predictor(benchmark):
    """The loop counter's contribution to the hybrid (Table 4)."""
    loopy = BranchProfile(
        loop_fraction=0.70, pattern_fraction=0.10,
        data_dependent_fraction=0.20, taken_prob=0.05,
        loop_trip=24, indirect_fraction=0.005, static_sites=512,
    )
    generator = BranchStreamGenerator(loopy, seed=7)
    warm = generator.generate(20_000)
    events = generator.generate(20_000)

    def compare():
        with_loop = HybridPredictor(loop_entries=1024)
        without_loop = HybridPredictor(loop_entries=1024)
        # Disable the component: no confident prediction for any branch.
        without_loop.loop.replay = lambda pcs, taken: np.full(
            len(pcs), -1, dtype=np.int8)
        results = {}
        for name, predictor in (("with", with_loop), ("without", without_loop)):
            simulate_branches(warm, predictor)
            results[name] = simulate_branches(events, predictor).misprediction_ratio
        return results

    results = run_once(benchmark, compare)
    print(f"\n  hybrid with loop counter:    {results['with']:.4f}")
    print(f"  hybrid without loop counter: {results['without']:.4f}")
    assert results["with"] <= results["without"] + 0.002


@pytest.fixture(scope="module")
def hadoop_code():
    return hadoop_wordcount(scale=0.4).profile.code


def test_ablation_l1i_capacity(benchmark, hadoop_code):
    """Front-end implication: L1I capacity vs miss ratio for Hadoop code."""
    trace = generate_fetch_trace(hadoop_code, 80_000, seed=9)
    warm, measured = trace[:40_000].tolist(), trace[40_000:].tolist()

    def sweep():
        ratios = {}
        for size_kb in (16, 32, 64, 128, 256):
            cache = SetAssociativeCache(
                CacheConfig("L1I", size_kb * 1024, ways=4)
            )
            cache.run(warm)
            cache.reset_stats()
            cache.run(measured)
            ratios[size_kb] = cache.miss_ratio
        return ratios

    ratios = run_once(benchmark, sweep)
    print()
    for size_kb, ratio in ratios.items():
        print(f"  L1I={size_kb:3d}KB  miss ratio={ratio:.4f}")
    # Doubling the paper's 32 KB L1I should cut Hadoop's misses hard —
    # the co-design implication of §5.4.
    assert ratios[64] < 0.6 * ratios[32] + 0.01
