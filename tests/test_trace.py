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
    _DRAW_BLOCK,
    _skewed_refs,
    category_cdf,
    code_line_ranges,
    data_line_ranges,
    draw_categories,
    generate_data_trace,
    generate_fetch_trace,
)
from tests import trace_oracle as oracle


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


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_draws(got, want, rng, reference):
    """Equal arrays (dtype included) and equal generator states."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == reference.bit_generator.state


#: Category weights with zeros anywhere, at least one positive; up to
#: 40 categories, so both the comparison sum and the binary search run.
category_weights = st.lists(
    st.integers(0, 6), min_size=1, max_size=40).filter(any)


class FixedUniforms:
    """Stand-in generator whose ``random`` returns chosen values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


class TestDrawCategories:
    @given(category_weights, st.integers(0, 3000), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_choice(self, weights, size, seed):
        p = np.array(weights, dtype=float) / sum(weights)
        rng, reference = rng_pair(seed)
        assert_same_draws(draw_categories(rng, category_cdf(p), size),
                          reference.choice(len(p), size=size, p=p),
                          rng, reference)

    @pytest.mark.parametrize("p", [
        [1.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.3, 0.7],
        [0.5, 0.5 + 1e-9],
        [0.0] + [1 / 30] * 30 + [0.0],
    ])
    @pytest.mark.parametrize("size", [1, 2 * _DRAW_BLOCK + 5])
    def test_edge_vectors_match_choice(self, p, size):
        rng, reference = rng_pair(17)
        assert_same_draws(draw_categories(rng, category_cdf(p), size),
                          reference.choice(len(p), size=size, p=p),
                          rng, reference)

    @pytest.mark.parametrize("p", [[0.25, 0.25, 0.5], [0.0, 0.5, 0.0, 0.5],
                                   [1 / 20] * 20])
    def test_ties_fall_right_like_searchsorted(self, p):
        """A draw equal to a CDF entry goes past it, as in choice's
        ``searchsorted(side="right")``; 0.0 skips leading zeros."""
        cdf = category_cdf(p)
        values = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0)])
        got = draw_categories(FixedUniforms(values), cdf, values.size)
        assert np.array_equal(got, cdf.searchsorted(values, side="right"))

    @pytest.mark.parametrize("p", [
        [0.5, float("nan")],
        [1.5, -0.5],
        [-np.inf, 1.0],
        [np.inf, 1.0],
        [np.inf, -np.inf],
        [0.5, 0.5 + 2e-8],
        [0.2, 0.2],
    ])
    def test_invalid_p_raises_like_choice(self, p):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).choice(len(p), size=3, p=p)
        with pytest.raises(ValueError) as got:
            category_cdf(p)
        assert str(got.value) == str(expected.value)

    def test_sum_check_is_compensated_like_choice(self):
        """A plain sum loses the 512 tiny weights and stays at exactly
        ``1 + sqrt(eps)``, the tolerance; choice's compensated sum keeps
        them, lands past it and rejects ``p``."""
        p = [1.0 + 2.0**-26] + [2.0**-60] * 512
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).choice(len(p), size=3, p=p)
        with pytest.raises(ValueError) as got:
            category_cdf(p)
        assert str(got.value) == str(expected.value)

    def test_rejects_empty_and_nested_p(self):
        with pytest.raises(ValueError):
            category_cdf([])
        with pytest.raises(ValueError, match="1-dimensional"):
            category_cdf([[0.5, 0.5]])

    def test_cdf_ends_at_one(self):
        cdf = category_cdf(np.full(7, 1 / 7))
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)


#: Region sizes in lines: one page or less, whole pages, and whole pages
#: plus a partial last page.
region_lines = st.one_of(
    st.integers(1, 64),
    st.integers(1, 64).map(lambda pages: 64 * pages),
    st.tuples(st.integers(1, 64), st.integers(1, 63)).map(
        lambda pp: 64 * pp[0] + pp[1]),
    st.integers(65, 200_000),
)


@st.composite
def data_footprints(draw):
    def region_bytes():
        return draw(st.one_of(
            st.just(0),
            st.integers(1, 127),
            region_lines.map(lambda lines: lines * LINE_BYTES),
            st.integers(1, 8 * 1024 * 1024),
        ))

    sizes = [region_bytes(), region_bytes(), region_bytes()]
    if not any(sizes):
        sizes[draw(st.integers(0, 2))] = LINE_BYTES
    hot_fraction = draw(st.sampled_from([0.0, 0.3, 0.82, 1.0]))
    state_fraction = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    state_fraction = min(state_fraction, 1.0 - hot_fraction)
    hot_bytes, state_bytes, stream_bytes = sizes
    if not ((hot_fraction and hot_bytes) or (state_fraction and state_bytes)
            or (1.0 - hot_fraction - state_fraction > 0 and stream_bytes)):
        hot_bytes, hot_fraction, state_fraction = max(hot_bytes, 1), 1.0, 0.0
    return DataFootprint(
        stream_bytes=stream_bytes,
        state_bytes=state_bytes,
        state_fraction=state_fraction,
        hot_bytes=hot_bytes,
        hot_fraction=hot_fraction,
        stream_reuse=draw(st.sampled_from([0.0, 0.4, 2.0, 3.7])),
        state_zipf=draw(st.sampled_from([0.0, 0.3, 0.6, 0.95, 1.4])),
    )


@st.composite
def code_footprints(draw):
    n_regions = draw(st.integers(1, 5))
    regions = [
        CodeRegion(
            f"r{i}",
            draw(st.one_of(
                region_lines.map(lambda lines: lines * LINE_BYTES),
                st.integers(LINE_BYTES, 4 * 1024 * 1024),
            )),
            weight=draw(st.sampled_from([0.0, 0.01, 0.2, 1.0, 3.0])),
            sequentiality=draw(st.sampled_from([1.0, 1.5, 4.0, 12.0, 90.0])),
        )
        for i in range(n_regions)
    ]
    if not any(region.weight for region in regions):
        regions[0] = CodeRegion("r0", regions[0].size_bytes, weight=1.0,
                                sequentiality=regions[0].sequentiality)
    return CodeFootprint(regions)


ref_counts = st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 5000))


class TestAgainstOracle:
    """The generators equal the choice-and-modulo formulation of
    ``tests/trace_oracle.py`` array for array, and leave the generator
    in the same state (a Generator passed as ``seed`` is used as is)."""

    @given(region_lines, st.sampled_from([0.0, 0.3, 0.6, 0.95, 2.0]),
           st.integers(1, 3000), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_skewed_refs(self, lines, zipf, n, seed):
        rng, reference = rng_pair(seed)
        assert_same_draws(_skewed_refs(n, lines, zipf, rng),
                          oracle.skewed_refs(n, lines, zipf, reference),
                          rng, reference)

    @pytest.mark.parametrize("lines", [64 * 5 + 1, 64 * 7 + 63])
    def test_skewed_refs_fold_partial_last_page(self, lines):
        """Uniform ranks land on the partial last page, whose lines the
        scramble folds onto page 0, inside the whole pages."""
        whole = lines // 64 * 64
        ranks = np.floor(lines * np.random.default_rng(3).random(50_000))
        assert (ranks >= whole).any()
        rng, reference = rng_pair(3)
        got = _skewed_refs(50_000, lines, 0.0, rng)
        assert got.max() < whole
        assert_same_draws(got, oracle.skewed_refs(50_000, lines, 0.0,
                                                  reference),
                          rng, reference)

    @given(data_footprints(), ref_counts, st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_data_trace(self, data, n_refs, seed):
        rng, reference = rng_pair(seed)
        assert_same_draws(
            generate_data_trace(data, n_refs, seed=rng),
            oracle.generate_data_trace(data, n_refs, seed=reference),
            rng, reference)

    @pytest.mark.parametrize("kinds", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (1, 1, 0), (0, 1, 1), (1, 0, 1)])
    def test_data_trace_with_unreferenced_kinds(self, kinds):
        hot, state, stream = kinds
        data = DataFootprint(
            stream_bytes=stream * 3 * 1024 * 1024 + 64,
            state_bytes=state * (64 * 1000 + 7 * LINE_BYTES),
            state_fraction=0.4 * state if hot else 1.0 * state,
            hot_bytes=hot * 16 * 1024,
            hot_fraction=0.5 * hot if state or stream else 1.0 * hot,
        )
        for n_refs in (1, 2, 3, 5000):
            for seed in range(4):
                rng, reference = rng_pair(seed)
                assert_same_draws(
                    generate_data_trace(data, n_refs, seed=rng),
                    oracle.generate_data_trace(data, n_refs, seed=reference),
                    rng, reference)

    @pytest.mark.parametrize("boundary", [0, 1])
    def test_data_trace_kind_ties(self, boundary):
        """The first kind draw equals the CDF entry at ``boundary`` and
        falls to its right, as in choice."""
        for seed in range(100):
            u0 = float(np.random.default_rng(seed).random())
            hot, state = (u0, 0.0) if boundary == 0 else (0.0, u0)
            data = DataFootprint(stream_bytes=1 << 20, state_bytes=1 << 20,
                                 state_fraction=state, hot_bytes=1 << 14,
                                 hot_fraction=hot)
            fractions = np.array([hot, state, data.stream_fraction])
            if category_cdf(fractions / fractions.sum())[boundary] == u0:
                break
        else:
            pytest.fail("no seed puts the first draw on the CDF entry")
        rng, reference = rng_pair(seed)
        assert_same_draws(
            generate_data_trace(data, 7, seed=rng),
            oracle.generate_data_trace(data, 7, seed=reference),
            rng, reference)

    @given(code_footprints(), ref_counts, st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_fetch_trace(self, footprint, n_refs, seed):
        rng, reference = rng_pair(seed)
        assert_same_draws(
            generate_fetch_trace(footprint, n_refs, seed=rng),
            oracle.generate_fetch_trace(footprint, n_refs, seed=reference),
            rng, reference)
