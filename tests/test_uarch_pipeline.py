"""Tests for TLBs, platforms, the pipeline model and counters."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch import (
    ATOM_D510,
    XEON_E5645,
    BehaviorProfile,
    BranchProfile,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
    characterize,
)
import repro.uarch.counters as counters_module
import repro.uarch.tlb as tlb_module
from repro.comparison import SUITES
from repro.experiments import ExperimentContext
from repro.experiments.counter_figures import FIG3, FIG4, FIG5
from repro.uarch.branch import BranchStats
from repro.uarch.counters import METRIC_NAMES, PerfCounters
from repro.uarch.isa import InstructionMix, IntBreakdown
from repro.uarch.pipeline import estimate_mlp, model_pipeline
from repro.uarch.platforms import Platform
from repro.uarch.tlb import LINES_PER_PAGE, TlbConfig, tlb_misses
from tests.cache_oracle import (
    ScalarHierarchy,
    Tlb,
    hierarchy_counts,
    oracle_tlb_misses,
)


def make_profile(name="toy", ilp=2.0, state_fraction=0.05, **branch_overrides):
    branch_kwargs = dict(
        loop_fraction=0.4, pattern_fraction=0.1, data_dependent_fraction=0.5,
        taken_prob=0.04, static_sites=512,
    )
    branch_kwargs.update(branch_overrides)
    return BehaviorProfile(
        name=name,
        mix=InstructionMix.from_ratios(
            1e8, load=0.26, store=0.11, branch=0.19, integer=0.38,
            fp=0.02, other=0.04,
        ),
        int_breakdown=IntBreakdown(0.64, 0.18, 0.18),
        code=CodeFootprint(
            [
                CodeRegion("kernel", 16 * 1024, weight=0.85, sequentiality=8),
                CodeRegion("framework", 256 * 1024, weight=0.15, sequentiality=4),
            ]
        ),
        data=DataFootprint(
            stream_bytes=4 * 1024 * 1024,
            state_bytes=1024 * 1024,
            state_fraction=state_fraction,
            hot_bytes=16 * 1024,
            hot_fraction=0.9 - state_fraction,
        ),
        branches=BranchProfile(**branch_kwargs),
        ilp=ilp,
        instructions=1e8,
        fp_ops=1e5,
        bytes_processed=1e7,
        threads=6,
    )


class TestTlb:
    def test_hit_miss(self):
        tlb = Tlb(TlbConfig("DTLB", entries=16, ways=4))
        assert tlb.access(3) is False
        assert tlb.access(3) is True

    def test_capacity(self):
        tlb = Tlb(TlbConfig("DTLB", entries=8, ways=8))
        for page in range(9):
            tlb.access(page)
        assert tlb.access(0) is False  # evicted

    def test_mpki(self):
        tlb = Tlb(TlbConfig("ITLB", entries=8, ways=4))
        tlb.access(1)
        assert tlb.mpki(1000) == 1.0

    def test_tlb_misses_match_per_access_tlb(self):
        config = TlbConfig("t", entries=8, ways=2)
        pages = [0, 1, 0, 5, 9, 13, 1, 0, 17, 5, 0]
        lines = [page * LINES_PER_PAGE + i for i, page in enumerate(pages)]
        tlb = Tlb(config)
        tlb.run(pages[:3])
        warm = tlb.misses
        tlb.run(pages[3:])
        assert tlb_misses(lines, config, start=3) == tlb.misses - warm

    def test_tlb_misses_across_page_blocks(self, monkeypatch):
        # Blocks of 4 references: the second block repeats one page
        # throughout, so none of its references is kept.
        monkeypatch.setattr(tlb_module, "_PAGE_BLOCK", 4)
        config = TlbConfig("t", entries=4, ways=2)
        pages = [0, 1, 2, 3, 3, 3, 3, 3, 4, 0, 2, 6, 3]
        lines = [page * LINES_PER_PAGE + i % 3 for i, page in enumerate(pages)]
        for start in (0, 5, 9):
            assert (tlb_misses(lines, config, start=start)
                    == oracle_tlb_misses(lines, config, start=start))


@st.composite
def page_runs(draw):
    """(lines, config): a line trace made of runs on one page, up to 40
    references long, so that a whole page block can repeat one page, in
    a TLB of random geometry.  ``base`` moves the pages past int32."""
    ways = draw(st.integers(1, 6))
    config = TlbConfig("t", entries=ways * draw(st.integers(1, 6)),
                       ways=ways)
    base = draw(st.sampled_from([0, 1 << 33]))
    universe = draw(st.integers(1, 3 * config.entries))
    runs = draw(st.lists(
        st.tuples(st.integers(0, universe - 1), st.integers(1, 40)),
        max_size=30,
    ))
    lines = [(base + page) * LINES_PER_PAGE + (7 * i) % LINES_PER_PAGE
             for page, length in runs for i in range(length)]
    return lines, config


class TestTlbPageBlocks:
    """``tlb_misses`` turns lines into pages one block at a time;
    shrinking the block makes every trace span several blocks."""

    @given(page_runs(), st.sampled_from([1, 2, 3, 16]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_tlb_across_page_blocks(self, case, block, data):
        lines, config = case
        n = len(lines)
        start = data.draw(st.one_of(
            st.integers(0, n),  # inside a block
            st.integers(0, n // block).map(lambda k: k * block),  # an edge
            st.integers(n, n + 2 * block),  # past the last block
        ))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tlb_module, "_PAGE_BLOCK", block)
            misses = tlb_misses(lines, config, start=start)
        assert misses == oracle_tlb_misses(lines, config, start=start)


class TestPlatforms:
    def test_xeon_config_matches_table3(self):
        assert XEON_E5645.cores == 6
        assert XEON_E5645.frequency_ghz == 2.40
        assert XEON_E5645.l1i.size_bytes == 32 * 1024
        assert XEON_E5645.l1d.size_bytes == 32 * 1024
        assert XEON_E5645.l2.size_bytes == 256 * 1024
        assert XEON_E5645.l3.size_bytes == 12 * 1024 * 1024
        assert XEON_E5645.peak_gflops == 57.6

    def test_atom_config_matches_table4(self):
        assert ATOM_D510.branch_penalty == 15.0
        assert not ATOM_D510.out_of_order
        assert ATOM_D510.l3 is None

    def test_fresh_components(self):
        a = XEON_E5645.make_hierarchy()
        b = XEON_E5645.make_hierarchy()
        assert a is not b
        assert XEON_E5645.make_predictor() is not XEON_E5645.make_predictor()


class TestPipelineModel:
    def test_mlp_in_order_is_one(self):
        assert estimate_mlp(make_profile(), ATOM_D510) == 1.0

    def test_mlp_grows_with_ilp(self):
        low = estimate_mlp(make_profile(ilp=1.2), XEON_E5645)
        high = estimate_mlp(make_profile(ilp=3.0), XEON_E5645)
        assert high > low

    def test_more_mispredictions_lower_ipc(self):
        profile = make_profile()
        hierarchy = XEON_E5645.make_hierarchy()
        good = model_pipeline(
            profile, XEON_E5645, hierarchy,
            BranchStats(10_000, 100, 0, 0.0), 0, 0, 100_000,
        )
        bad = model_pipeline(
            profile, XEON_E5645, hierarchy,
            BranchStats(10_000, 2_000, 0, 0.0), 0, 0, 100_000,
        )
        assert bad.ipc < good.ipc

    def test_stall_ratios_sum_below_one(self):
        profile = make_profile()
        hierarchy = XEON_E5645.make_hierarchy()
        hierarchy.fetch_fills["l2"] = 500
        hierarchy.data_fills["l3"] = 300
        stats = model_pipeline(
            profile, XEON_E5645, hierarchy,
            BranchStats(19_000, 400, 50, 0.1), 10, 20, 100_000,
        )
        total = (
            stats.frontend_stall_ratio
            + stats.branch_stall_ratio
            + stats.backend_stall_ratio
        )
        assert 0.0 < total < 1.0
        assert math.isclose(stats.ipc, 1.0 / stats.cpi)

    def test_requires_positive_instructions(self):
        with pytest.raises(ValueError):
            model_pipeline(
                make_profile(), XEON_E5645, XEON_E5645.make_hierarchy(),
                BranchStats(0, 0, 0, 0.0), 0, 0, 0,
            )


class TestCharacterize:
    def test_produces_all_45_metrics(self):
        counters = characterize(make_profile(), XEON_E5645, seed=5)
        metrics = counters.metric_dict()
        assert len(METRIC_NAMES) == 45
        assert list(metrics) == METRIC_NAMES
        assert all(math.isfinite(v) for v in metrics.values())

    def test_metric_vector_order(self):
        counters = characterize(make_profile(), XEON_E5645, seed=5)
        vector = counters.metric_vector()
        metrics = counters.metric_dict()
        assert vector.shape == (45,)
        assert vector[METRIC_NAMES.index("ipc")] == pytest.approx(metrics["ipc"])

    def test_deterministic_given_seed(self):
        a = characterize(make_profile(), XEON_E5645, seed=9)
        b = characterize(make_profile(), XEON_E5645, seed=9)
        assert a.metric_vector() == pytest.approx(b.metric_vector())

    def test_bigger_footprint_more_l1i_misses(self):
        small = make_profile()
        big = make_profile()
        big.code = CodeFootprint(
            [
                CodeRegion("kernel", 16 * 1024, weight=0.4, sequentiality=8),
                CodeRegion("framework", 1024 * 1024, weight=0.6, sequentiality=4),
            ]
        )
        small_counters = characterize(small, XEON_E5645, seed=4)
        big_counters = characterize(big, XEON_E5645, seed=4)
        assert big_counters.l1i_mpki > small_counters.l1i_mpki

    def test_ipc_within_machine_limits(self):
        counters = characterize(make_profile(ilp=3.5), XEON_E5645, seed=2)
        assert 0.0 < counters.ipc <= XEON_E5645.issue_width

    def test_atom_has_no_l3_metrics(self):
        counters = characterize(make_profile(), ATOM_D510, seed=2)
        assert counters.l3_mpki == 0.0

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            characterize(make_profile(), XEON_E5645, sample_instructions=0)


class TestCharacterizeOracle:
    """``characterize`` on the array kernel counts exactly what the
    per-access walk counts, for real profiles on both platforms."""

    @pytest.fixture(scope="class")
    def profiles(self, ctx):
        return {
            "H-Grep": ctx.result("H-Grep").profile,
            "blackscholes": SUITES["PARSEC"][0].profile(scale=ctx.scale),
        }

    @pytest.mark.parametrize("platform", [XEON_E5645, ATOM_D510],
                             ids=["xeon", "atom"])
    @pytest.mark.parametrize("workload", ["H-Grep", "blackscholes"])
    def test_counts_match_scalar_walk(self, profiles, workload, platform,
                                      monkeypatch):
        profile = profiles[workload]
        walked = []
        make_hierarchy = Platform.make_hierarchy

        def fast_hierarchy(self):
            walked.append(make_hierarchy(self))
            return walked[-1]

        def scalar_hierarchy(self):
            walked.append(ScalarHierarchy(self.l1i, self.l1d, self.l2, self.l3))
            return walked[-1]

        monkeypatch.setattr(Platform, "make_hierarchy", fast_hierarchy)
        fast = characterize(profile, platform, sample_instructions=30_000)
        monkeypatch.setattr(Platform, "make_hierarchy", scalar_hierarchy)
        monkeypatch.setattr(counters_module, "tlb_misses", oracle_tlb_misses)
        slow = characterize(profile, platform, sample_instructions=30_000)

        fast_counts, slow_counts = map(hierarchy_counts, walked)
        assert fast_counts == slow_counts
        assert fast_counts["L1I.accesses"] > 0
        assert fast.to_dict() == slow.to_dict()


class TestDeferredReplay:
    """The branch replay and pipeline model run on the first read of a
    value that needs them, and give what an eager read gives."""

    #: Subsets read first: memory-phase only, and mixed with replay ones.
    SUBSETS = (
        ("l1i_mpki", "itlb_mpki", "ratio_load", "branches_pki"),
        ("l3_mpki", "ipc", "snoop_hit_ratio"),
        ("gflops", "dtlb_mpki", "btb_miss_ratio", "mlp"),
    )

    @pytest.fixture(scope="class")
    def profiles(self, ctx):
        return [
            ctx.result("H-Grep").profile,
            ctx.result("S-Kmeans").profile,
            ctx.result("M-WordCount").profile,
            SUITES["PARSEC"][0].profile(scale=ctx.scale),
            SUITES["SPECINT"][2].profile(scale=ctx.scale),
        ]

    @pytest.mark.parametrize("platform", [XEON_E5645, ATOM_D510],
                             ids=["xeon", "atom"])
    def test_any_read_order_equals_one_read(self, profiles, platform):
        def run(profile):
            return characterize(profile, platform, seed=7,
                                sample_instructions=30_000)

        expected, serialised = [], []
        for profile in profiles:
            eager = run(profile)
            expected.append(eager.metric_dict())
            serialised.append(eager.to_dict())

        # Characterize all before reading any, then read in reverse
        # order with another characterization between reads.
        lazy = [run(profile) for profile in profiles]
        for index in reversed(range(len(profiles))):
            counters = lazy[index]
            subset = self.SUBSETS[index % len(self.SUBSETS)]
            assert counters.metrics(subset) == {
                name: expected[index][name] for name in subset}
            if subset == self.SUBSETS[0]:
                assert "branch_phase" not in vars(counters)
            run(profiles[0]).metrics(["l2_mpki"])
            if index % 2:
                assert counters.to_dict() == serialised[index]
                assert counters.metric_dict() == expected[index]
            else:
                assert counters.metric_dict() == expected[index]
                assert counters.to_dict() == serialised[index]
            rehydrated = PerfCounters.from_dict(counters.to_dict())
            assert rehydrated == counters
            assert rehydrated.metric_dict() == expected[index]

    def test_cache_and_tlb_figures_never_replay_branches(self, monkeypatch):
        original = counters_module.simulate_branches

        def refuse(events, predictor):
            raise AssertionError("a cache or TLB figure replayed branches")

        monkeypatch.setattr(counters_module, "simulate_branches", refuse)
        context = ExperimentContext(scale=0.1, seed=3)
        FIG4.run(context)
        FIG5.run(context)

        replayed = []

        def spy(events, predictor):
            replayed.append(len(events))
            return original(events, predictor)

        monkeypatch.setattr(counters_module, "simulate_branches", spy)
        FIG3.run(context)
        # A warm-up and a measured stream per workload and suite member.
        assert len(replayed) == 2 * (23 + sum(map(len, SUITES.values())))
