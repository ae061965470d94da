"""Ablations: each model mechanism the paper's implications lean on.

- prefetch: a stride prefetcher covers streaming misses, as the
  pipeline model's analytic prefetch coverage assumes;
- stacks (§5.5): the combiner cuts Hadoop's shuffle, and Spark's
  dispatch-style shuffle is what puts its L1I MPKI above Hadoop's;
- uarch (§5.1/§5.4): BTB capacity, the loop predictor, L1I capacity;
- WCRT (§3): the choice of K, the PCA threshold, and agreement between
  microarchitecture-dependent and -independent clustering.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    adjusted_rand_index,
    fit_kmeans,
    fit_pca,
    gaussian_normalize,
    independent_matrix,
    reduce_workloads,
)
from repro.core.kmeans import bic_score
from repro.stacks.base import SPARK_TRAITS
from repro.stacks.hadoop import Hadoop, MapReduceJob
from repro.stacks.spark import Spark
from repro.uarch import XEON_E5645, characterize
from repro.uarch.branch import (
    BranchStreamGenerator,
    HybridPredictor,
    SimplePredictor,
    simulate_branches,
)
from repro.uarch.cache import CacheConfig
from repro.uarch.profile import BranchProfile
from repro.uarch.trace import generate_data_trace, generate_fetch_trace
from repro.workloads import ALL_WORKLOADS
from repro.workloads.kernels import (
    WORDCOUNT_KERNEL,
    _meter_words,
    hadoop_wordcount,
    spark_sort,
    wiki_documents,
)
from tests.cache_oracle import SetAssociativeCache
from tests.prefetch_model import run_with_prefetcher


class TestPrefetch:
    def test_stride_prefetcher_covers_sort_stream(self):
        # Only the stream region: the skewed-state misses are pointer
        # chasing that no prefetcher covers.
        profile = spark_sort(scale=0.4).profile
        stream_only = dataclasses.replace(
            profile.data, hot_fraction=0.0, state_fraction=0.0
        )
        trace = generate_data_trace(stream_only, 60_000, seed=21).tolist()
        results = {}
        for kind in (None, "nextline", "stride"):
            cache = SetAssociativeCache(CacheConfig("L1D", 32 * 1024, ways=8))
            results[str(kind)] = run_with_prefetcher(
                cache, trace, kind, degree=2
            )
        baseline = results["None"].miss_ratio
        assert results["stride"].miss_ratio < baseline
        covered = 1 - results["stride"].miss_ratio / max(1e-9, baseline)
        assert covered > 0.2


def _wordcount_job(with_combiner: bool) -> MapReduceJob:
    def mapper(record, emit, meter):
        words = record.split()
        _meter_words(record, meter, len(words))
        for word in words:
            emit(word, 1)

    def reducer(key, values, emit, meter):
        meter.ops(int_op=len(values))
        emit(key, sum(values))

    return MapReduceJob(
        name="wc",
        mapper=mapper,
        reducer=reducer,
        combiner=reducer if with_combiner else None,
        kernel=WORDCOUNT_KERNEL,
        state_bytes=4 * 1024 * 1024,
    )


def _spark_wordcount_l1i(docs, spark: Spark, name: str) -> float:
    counts = spark.parallelize(docs).flat_map(
        lambda doc: [(w, 1) for w in doc.split()],
        lambda doc, meter: _meter_words(doc, meter, doc.count(" ") + 1),
    ).reduce_by_key(lambda a, b: a + b)
    counts.collect()
    result = spark.finish(
        name, None, WORDCOUNT_KERNEL,
        state_bytes=4 * 1024 * 1024, output_bytes=1,
    )
    return characterize(result.profile, XEON_E5645).l1i_mpki


class TestStacks:
    @pytest.fixture(scope="class")
    def docs(self):
        return wiki_documents(0.4, seed=0)

    def test_combiner_cuts_shuffle(self, docs):
        combined = Hadoop().run(_wordcount_job(True), docs).meter
        raw = Hadoop().run(_wordcount_job(False), docs).meter
        assert combined.records_shuffled < 0.7 * raw.records_shuffled
        assert combined.bytes_shuffled < raw.bytes_shuffled

    def test_streaming_shuffle_erases_spark_l1i_penalty(self, docs):
        stock = _spark_wordcount_l1i(docs, Spark(), "S-WC-stock")
        streaming = _spark_wordcount_l1i(
            docs,
            Spark(traits=dataclasses.replace(
                SPARK_TRAITS, shuffle_is_streaming=True)),
            "S-WC-streaming-shuffle",
        )
        assert streaming < stock


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


class TestUarch:
    def test_larger_btb_misfetches_less(self):
        # Table 4: 128 (Atom) vs 8192 (Xeon) BTB entries.
        generator = BranchStreamGenerator(BIGDATA_BRANCHES, seed=5)
        warm = generator.generate(20_000)
        events = generator.generate(20_000)
        rates = {}
        for entries in (128, 8192):
            predictor = SimplePredictor(btb_entries=entries)
            simulate_branches(warm, predictor)
            rates[entries] = simulate_branches(events, predictor).misfetch_ratio
        assert rates[8192] < rates[128]

    def test_loop_predictor_never_hurts_the_hybrid(self):
        loopy = BranchProfile(
            loop_fraction=0.70, pattern_fraction=0.10,
            data_dependent_fraction=0.20, taken_prob=0.05,
            loop_trip=24, indirect_fraction=0.005, static_sites=512,
        )
        generator = BranchStreamGenerator(loopy, seed=7)
        warm = generator.generate(20_000)
        events = generator.generate(20_000)
        with_loop = HybridPredictor(loop_entries=1024)
        without_loop = HybridPredictor(loop_entries=1024)
        # Disable the component: no confident prediction for any branch.
        without_loop.loop.replay = lambda pcs, taken: np.full(
            len(pcs), -1, dtype=np.int8)
        ratios = {}
        for name, predictor in (("with", with_loop), ("without", without_loop)):
            simulate_branches(warm, predictor)
            ratios[name] = simulate_branches(events, predictor).misprediction_ratio
        assert ratios["with"] <= ratios["without"] + 0.002

    def test_doubling_l1i_cuts_hadoop_misses(self):
        code = hadoop_wordcount(scale=0.4).profile.code
        trace = generate_fetch_trace(code, 80_000, seed=9)
        warm, measured = trace[:40_000].tolist(), trace[40_000:].tolist()
        ratios = {}
        for size_kb in (32, 64):
            cache = SetAssociativeCache(CacheConfig("L1I", size_kb * 1024, ways=4))
            cache.run(warm)
            cache.reset_stats()
            cache.run(measured)
            ratios[size_kb] = cache.miss_ratio
        assert ratios[64] < 0.6 * ratios[32] + 0.01


class TestWcrt:
    @pytest.fixture(scope="class")
    def characterized(self, ctx):
        """A 40-workload subset keeps the ablation affordable."""
        names, vectors, profiles = [], [], []
        for definition in ALL_WORKLOADS[:40]:
            names.append(definition.workload_id)
            vectors.append(ctx.counters(definition.workload_id).metric_vector())
            profiles.append(ctx.result(definition.workload_id).profile)
        return names, np.vstack(vectors), profiles

    def test_bic_does_not_collapse_to_few_clusters(self, characterized):
        _names, matrix, _profiles = characterized
        normalized, _ = gaussian_normalize(matrix)
        projected = fit_pca(normalized, variance_to_keep=0.9).transform(normalized)
        scores = {
            k: bic_score(projected, fit_kmeans(projected, k, seed=1, n_restarts=4))
            for k in range(2, 21, 2)
        }
        assert max(scores, key=scores.get) >= 4

    def test_clusters_stable_across_pca_thresholds(self, characterized):
        names, matrix, _profiles = characterized
        labels = {
            threshold: reduce_workloads(
                names, matrix, k=10, variance_to_keep=threshold, seed=2
            ).labels
            for threshold in (0.75, 0.85, 0.90, 0.95)
        }
        for threshold, labeling in labels.items():
            assert adjusted_rand_index(labels[0.90], labeling) > 0.3, threshold

    def test_independent_metrics_agree_with_pmu_clustering(self, characterized):
        names, matrix, profiles = characterized
        dependent = reduce_workloads(names, matrix, k=10, seed=3)
        independent = reduce_workloads(
            names, independent_matrix(profiles), k=10, seed=3
        )
        assert adjusted_rand_index(dependent.labels, independent.labels) > 0.25
