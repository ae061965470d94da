"""Tests for the additional BigDataBench operations (registry fillers)."""

import pytest

from repro.workloads.extra import (
    hadoop_bfs,
    hadoop_index,
    hadoop_pagerank,
    hbase_scan,
    hbase_write,
    hive_aggregation,
    hive_join,
    impala_aggregation,
    spark_bfs,
    spark_connected_components,
    spark_index,
)
from repro.workloads.kernels import wiki_documents
from repro.workloads.ml import mpi_pagerank

SCALE = 0.25


class TestGraphOperations:
    def test_bfs_variants_agree_on_reachability(self):
        spark = spark_bfs(scale=SCALE)
        hadoop = hadoop_bfs(scale=SCALE)
        assert spark.output["reached"] == hadoop.output["reached"]
        assert spark.output["reached"] > 1

    def test_connected_components_positive(self):
        result = spark_connected_components(scale=SCALE)
        assert result.output["components"] >= 1

    def test_hadoop_pagerank_ordered(self):
        result = hadoop_pagerank(scale=SCALE)
        scores = [score for _node, score in result.output]
        assert scores == sorted(scores, reverse=True)
        assert all(score > 0 for score in scores)


class TestIndexOperations:
    def test_inverted_index_postings_point_at_word(self):
        result = hadoop_index(scale=SCALE)
        docs = wiki_documents(SCALE, seed=0)
        # Sample a few index entries and verify the posting positions.
        checked = 0
        for word, postings in result.output[:50]:
            for doc_id, position in postings[:2]:
                tokens = docs[doc_id].split()
                assert tokens[position] == word
                checked += 1
        assert checked > 10

    def test_spark_index_groups_by_word(self):
        result = spark_index(scale=SCALE)
        words = [word for word, _postings in result.output]
        assert len(words) == len(set(words))


class TestHBaseOperations:
    def test_write_creates_sstables(self):
        result = hbase_write(scale=SCALE)
        assert result.output >= 1  # flushed at least one SSTable
        assert result.meter.records_in > 0

    def test_scan_returns_rows(self):
        result = hbase_scan(scale=SCALE)
        assert result.output > 100
        assert result.meter.bytes_out > result.meter.bytes_in


class TestQueryPrimitives:
    def test_aggregation_totals_positive(self):
        result = hive_aggregation(scale=SCALE)
        assert all(row["revenue"] > 0 for row in result.output)
        assert all(row["n"] >= 1 for row in result.output)

    def test_aggregation_engines_agree(self):
        hive = hive_aggregation(scale=SCALE)
        impala = impala_aggregation(scale=SCALE)
        hive_by_goods = {row["goods_id"]: row["revenue"] for row in hive.output}
        impala_by_goods = {
            row["goods_id"]: row["revenue"] for row in impala.output
        }
        assert hive_by_goods == impala_by_goods

    def test_join_filters_by_total(self):
        result = hive_join(scale=SCALE)
        assert all("buyer_id" in row for row in result.output)


class TestStackFingerprints:
    """Every stack leaves its footprint signature on the profile."""

    @pytest.mark.parametrize(
        "runner,min_kb,max_kb",
        [
            (mpi_pagerank, 64, 512),
            (spark_bfs, 512, 2048),
            (hadoop_bfs, 512, 2048),
        ],
    )
    def test_code_footprints(self, runner, min_kb, max_kb):
        result = runner(scale=SCALE)
        footprint_kb = result.profile.code.total_bytes / 1024
        assert min_kb <= footprint_kb <= max_kb
