"""Tests for the BDGS data generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import (
    DATASETS,
    AmazonReviews,
    EcommerceTransactions,
    FacebookSocialGraph,
    GoogleWebGraph,
    ProfSearchResumes,
    TpcDsWebTables,
    WikipediaCorpus,
    dataset,
)
from repro.datagen.graph import GraphConfig, GraphGenerator
from repro.datagen import text
from repro.datagen.text import TextConfig, TextGenerator, _lemire, _make_vocabulary
from tests import text_oracle as oracle


class TestTextGenerator:
    def test_determinism(self):
        a = list(WikipediaCorpus(seed=5).documents(3))
        b = list(WikipediaCorpus(seed=5).documents(3))
        assert a == b

    def test_word_frequencies_are_zipfian(self):
        generator = TextGenerator(TextConfig(vocabulary_size=500), seed=2)
        words = generator.words(20_000)
        from collections import Counter

        counts = Counter(words)
        frequencies = sorted(counts.values(), reverse=True)
        # Head should massively dominate the tail.
        assert frequencies[0] > 10 * frequencies[min(99, len(frequencies) - 1)]

    def test_doc_length_near_mean(self):
        generator = TextGenerator(
            TextConfig(mean_words_per_doc=100), seed=3
        )
        lengths = [len(d.split()) for d in generator.documents(30)]
        assert 80 < np.mean(lengths) < 120

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TextConfig(zipf_exponent=0.9)
        with pytest.raises(ValueError):
            TextConfig(vocabulary_size=0)

    def test_amazon_scores_j_shaped(self):
        reviews = list(AmazonReviews(seed=4).reviews(400))
        scores = [score for _, score in reviews]
        five = scores.count(5) / len(scores)
        two = scores.count(2) / len(scores)
        assert five > 0.4
        assert two < 0.15

    def test_amazon_sentiment_signal(self):
        for text, score in AmazonReviews(seed=4).reviews(50):
            if score >= 4:
                assert "wonderful" in text
            else:
                assert "terrible" in text


class TestGraphGenerator:
    def test_determinism(self):
        a = GoogleWebGraph(scale=0.001, seed=1).edges()
        b = GoogleWebGraph(scale=0.001, seed=1).edges()
        assert a == b

    def test_degree_skew(self):
        graph = GoogleWebGraph(scale=0.002, seed=2)
        adjacency = graph.adjacency()
        in_degrees = {}
        for _source, targets in adjacency.items():
            for target in targets:
                in_degrees[target] = in_degrees.get(target, 0) + 1
        degrees = sorted(in_degrees.values(), reverse=True)
        # Power-law-ish: the top node has many times the median degree.
        assert degrees[0] >= 10 * max(1, degrees[len(degrees) // 2])

    def test_mean_degree_preserved(self):
        graph = GoogleWebGraph(scale=0.002, seed=3)
        edges = graph.edges()
        ratio = len(edges) / graph.config.n_nodes
        expected = GoogleWebGraph.SEED_EDGES / GoogleWebGraph.SEED_NODES
        assert 0.6 * expected < ratio < 1.6 * expected

    def test_undirected_graph_has_symmetric_edges(self):
        graph = FacebookSocialGraph(scale=0.05, seed=4)
        edges = set(graph.edges())
        sampled = list(edges)[:50]
        assert all((b, a) in edges for a, b in sampled)

    def test_feature_vectors_shape(self):
        graph = FacebookSocialGraph(scale=0.05, seed=5)
        features = graph.feature_vectors(dimensions=6)
        assert features.shape == (graph.config.n_nodes, 6)

    def test_no_self_loops(self):
        generator = GraphGenerator(
            GraphConfig(n_nodes=200, mean_out_degree=4), seed=6
        )
        assert all(a != b for a, b in generator.edges())

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            GoogleWebGraph(scale=0.0)


#: PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _rng_emitting(first: int, second: int, buffered=None) -> np.random.Generator:
    """A PCG64 generator whose next two raw outputs are ``first``, ``second``.

    With ``buffered``, that 32-bit half is held as if left by an earlier
    draw, so the next bounded draw reads it before either output.

    PCG64 steps its state ``s`` to ``s * MULT + inc`` and outputs the
    XOR of the state's two 64-bit halves rotated right by its top six
    bits.  So a state that outputs a given word can be solved for, and
    ``inc`` chosen (odd) to step from the first such state to the second.
    """
    def state_emitting(out, high):
        rot = high >> 58
        return high << 64 | (((out << rot | out >> (64 - rot)) & _MASK64) ^ high)

    s1 = state_emitting(first, 0x5EED_0000_1234_5678)
    high2 = 0x0BAD_C0DE_8765_4320
    if (state_emitting(second, high2) - s1) % 2 == 0:
        high2 ^= 1  # flips the low bit of the state, so inc is odd
    s2 = state_emitting(second, high2)
    inc = (s2 - s1 * _PCG_MULT) & _MASK128
    s0 = ((s1 - inc) * pow(_PCG_MULT, -1, 1 << 128)) & _MASK128
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": s0, "inc": inc},
        "has_uint32": int(buffered is not None),
        "uinteger": buffered or 0,
    }
    return np.random.Generator(bitgen)


def _halves_rejected_by_55():
    """32-bit values whose product with 55 has low bits below 2**32 % 55."""
    candidates = [-(-(k << 32) // 55) for k in range(1, 55)]  # ceil(k * 2**32 / 55)
    return [0] + [u for u in candidates if (u * 55) & 0xFFFFFFFF < 26]


_BAD = _halves_rejected_by_55()[1:3]
_GOOD = 0x8000_0000  # accepted by range 55
_COUNT1 = 0x1000_0000  # one syllable; accepted by range 55


class TestVocabularyBuild:
    """The block build against the word-by-word scalar oracle."""

    @staticmethod
    def assert_same_stream(fast, slow):
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(0, 1000) == slow.integers(0, 1000)
        assert fast.random() == slow.random()
        assert fast.choice(text._SYLLABLES) == slow.choice(text._SYLLABLES)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=9000),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_oracle(self, seed, size, half_buffered):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_buffered:  # a draw that leaves the high half buffered
            fast.integers(0, 5)
            slow.integers(0, 5)
        assert _make_vocabulary(size, fast) == oracle._make_vocabulary(size, slow)
        self.assert_same_stream(fast, slow)

    @pytest.mark.parametrize("max_block", [1, 3])
    @pytest.mark.parametrize("half_buffered", [False, True])
    def test_short_blocks_chain_exactly(self, monkeypatch, max_block, half_buffered):
        # Blocks shorter than a word: most words straddle block ends.
        monkeypatch.setattr(text, "_MAX_BLOCK", max_block)
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        if half_buffered:
            fast.integers(0, 5)
            slow.integers(0, 5)
        assert _make_vocabulary(400, fast) == oracle._make_vocabulary(400, slow)
        self.assert_same_stream(fast, slow)

    def test_zero_size_leaves_generator_untouched(self):
        rng = np.random.default_rng(4)
        rng.integers(0, 5)
        before = rng.bit_generator.state
        assert _make_vocabulary(0, rng) == []
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_exact_on_other_bit_generators(self, bit_generator):
        # Bounded draws read the bit generator's own 32-bit stream, so the
        # build is exact whatever produces it.
        fast, slow = (np.random.Generator(bit_generator(5)) for _ in range(2))
        fast.integers(0, 5)
        slow.integers(0, 5)
        assert _make_vocabulary(3000, fast) == oracle._make_vocabulary(3000, slow)
        assert fast.integers(0, 1000) == slow.integers(0, 1000)
        assert fast.random() == slow.random()

    def test_lemire_rejection_zone(self):
        rejected = np.array(_halves_rejected_by_55(), dtype=np.uint32)
        assert len(rejected) > 20
        assert (_lemire(rejected, 55) == -1).all()
        accepted = rejected + np.uint32(27)  # low product bits rise by 27 * 55
        assert (_lemire(accepted, 55) == (accepted.astype(np.uint64) * 55) >> 32).all()
        # 2**32 % 4 == 0: range 4 never rejects, whatever the half.
        edges = np.array([0, 1, 2**30 - 1, 2**30, 2**32 - 1], dtype=np.uint32)
        for halves in (rejected, edges):
            assert (_lemire(halves, 4) == halves >> 30).all()

    def test_rejected_halves_retry_like_integers(self):
        (bad1, bad2), good, after = _BAD, _GOOD, 0x1234_5678
        rng = _rng_emitting(bad2 << 32 | bad1, after << 32 | good)
        halves = np.array([bad1, bad2, good], dtype=np.uint32)
        assert _lemire(halves, 55).tolist() == [-1, -1, (good * 55) >> 32]
        # numpy consumes both rejected halves, takes the third, and buffers
        # the fourth: a full-range 32-bit draw returns it unchanged.
        assert rng.integers(0, 55) == (good * 55) >> 32
        assert rng.integers(0, 2**32) == after

    @pytest.mark.parametrize(
        "halves",
        [
            # A one-syllable count of 0, which 55 would reject (counts never
            # reject), then two rejected syllable halves before an accepted one.
            (None, 0, _BAD[0], _BAD[1], _GOOD),
            # A buffered one-syllable count; a rejection inside the first
            # word, then another inside the second.
            (_COUNT1, _BAD[0], _GOOD, _COUNT1, _BAD[1]),
        ],
        ids=["consecutive", "buffered"],
    )
    def test_vocabulary_through_rejected_syllables(self, halves):
        buffered, lo0, hi0, lo1, hi1 = halves

        def build(builder):
            rng = _rng_emitting(hi0 << 32 | lo0, hi1 << 32 | lo1, buffered)
            return builder(300, rng), rng

        (fast_words, fast), (slow_words, slow) = (
            build(_make_vocabulary), build(oracle._make_vocabulary)
        )
        assert fast_words == slow_words
        assert text._SYLLABLES[(_GOOD * 55) >> 32] in fast_words[0]
        self.assert_same_stream(fast, slow)


class TestTableGenerators:
    def test_ecommerce_item_ratio(self):
        generator = EcommerceTransactions(seed=7)
        orders = list(generator.orders(200))
        items = list(generator.items(200))
        ratio = len(items) / len(orders)
        expected = (
            EcommerceTransactions.SEED_ITEMS / EcommerceTransactions.SEED_ORDERS
        )
        assert 0.7 * expected < ratio < 1.3 * expected

    def test_order_schema(self):
        row = next(EcommerceTransactions(seed=8).orders(1))
        assert len(row.fields) == 3  # + key = 4 columns (Table 1)

    def test_item_schema(self):
        row = next(EcommerceTransactions(seed=8).items(1))
        assert len(row.fields) == 5  # + key = 6 columns (Table 1)

    def test_resume_record_size(self):
        row = next(ProfSearchResumes(seed=9).rows(1))
        assert 1000 < row.size_bytes() < 1200  # ~1128 bytes per Table 2


class TestTpcDs:
    def test_table_shapes(self):
        tables = TpcDsWebTables(scale=0.1, seed=11).generate()
        sizes = TpcDsWebTables.sizes(tables)
        assert sizes["web_sales"] >= 100
        assert sizes["date_dim"] == 365 * TpcDsWebTables.N_YEARS
        assert set(sizes) == {
            "date_dim", "item", "customer", "customer_demographics", "web_sales",
        }

    def test_foreign_keys_resolve(self):
        tables = TpcDsWebTables(scale=0.05, seed=12).generate()
        item_keys = {row["i_item_sk"] for row in tables.item}
        date_keys = {row["d_date_sk"] for row in tables.date_dim}
        for sale in tables.web_sales[:200]:
            assert sale["ws_item_sk"] in item_keys
            assert sale["ws_sold_date_sk"] in date_keys

    def test_item_popularity_skew(self):
        tables = TpcDsWebTables(scale=0.3, seed=13).generate()
        from collections import Counter

        counts = Counter(s["ws_item_sk"] for s in tables.web_sales)
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] > 4 * max(1, frequencies[len(frequencies) // 2])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            TpcDsWebTables(scale=0)


class TestCatalog:
    def test_seven_datasets(self):
        assert len(DATASETS) == 7  # Table 1

    def test_lookup(self):
        assert dataset("wikipedia").record_bytes == 64 * 1024

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            dataset("nope")


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=10, deadline=None)
def test_word_count_requested(n):
    generator = TextGenerator(TextConfig(vocabulary_size=100), seed=1)
    assert len(generator.words(n)) == n
