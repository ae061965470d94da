"""Additional BigDataBench operations beyond the 17 representatives.

BigDataBench 3.0's 77 workloads cover basic operations (BFS, inverted
index, connected components, scans, writes) and query primitives beyond
those chosen as representatives.  These implementations populate the
full registry so the WCRT reduction (77 → 17) has the real population
to cluster.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.datagen.graph import FacebookSocialGraph
from repro.datagen.table import ProfSearchResumes
from repro.stacks.base import KernelTraits, Meter, WorkloadResult
from repro.stacks.hadoop import Hadoop, MapReduceJob
from repro.stacks.hbase import HBase
from repro.stacks.spark import Spark
from repro.stacks.sql import HiveEngine, ImpalaEngine, Query, SharkEngine
from repro.workloads.kernels import wiki_documents
from repro.workloads.ml import PAGERANK_KERNEL, _pagerank_graph, _pagerank_iteration
from repro.workloads.relational import SQL_KERNEL, ecommerce_tables

BFS_KERNEL = KernelTraits(
    code_kb=10.0,
    ilp=1.8,
    loop_fraction=0.40,
    pattern_fraction=0.08,
    data_dependent_fraction=0.52,
    taken_prob=0.10,
    loop_trip=8,
    state_zipf=0.25,
)

INDEX_KERNEL = KernelTraits(
    code_kb=14.0,
    ilp=2.2,
    loop_fraction=0.35,
    pattern_fraction=0.10,
    data_dependent_fraction=0.55,
    taken_prob=0.05,
    loop_trip=40,
    state_zipf=0.85,
)


def _bfs(adjacency: Dict[int, List[int]], source: int, meter: Meter) -> Dict[int, int]:
    """Breadth-first distances with per-edge metering."""
    distances = {source: 0}
    frontier = deque([source])
    edges = 0
    while frontier:
        node = frontier.popleft()
        for neighbor in adjacency.get(node, ()):
            edges += 1
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    meter.ops(
        hash=float(2 * edges),
        compare=float(edges),
        array_access=float(edges),
        int_op=float(len(distances)),
    )
    return distances


def _graph_state_bytes(adjacency: Dict[int, List[int]]) -> int:
    edges = sum(len(v) for v in adjacency.values())
    return max(1024 * 1024, 16 * len(adjacency) + 12 * edges)


def _bfs_source(adjacency: Dict[int, List[int]]) -> int:
    """A well-connected source: preferential-attachment node 0 only has
    in-edges, so BFS roots at the highest-out-degree node instead."""
    return max(adjacency, key=lambda node: len(adjacency[node]))


def spark_bfs(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """S-BFS over the Google web graph."""
    adjacency = _pagerank_graph(scale, seed)
    spark = Spark()
    rdd = spark.parallelize(sorted(adjacency.items()))
    rdd.count()
    distances = _bfs(adjacency, _bfs_source(adjacency), spark._meter)
    return spark.finish(
        name="S-BFS",
        output={"reached": len(distances)},
        kernel=BFS_KERNEL,
        state_bytes=_graph_state_bytes(adjacency),
        state_fraction=0.09,
        stream_fraction=0.004,
        output_bytes=8 * len(distances),
        cluster=cluster,
    )


def hadoop_bfs(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """H-BFS: level-synchronous BFS as iterative MapReduce."""
    adjacency = _pagerank_graph(scale, seed)

    def mapper(record, emit, meter):
        node, targets = record
        meter.ops(array_access=len(targets) + 1, hash=len(targets))
        for target in targets:
            emit(target, node)

    def reducer(key, values, emit, meter):
        meter.ops(compare=len(values), int_op=len(values))
        emit(key, min(values))

    job = MapReduceJob(
        name="H-BFS",
        mapper=mapper,
        reducer=reducer,
        kernel=BFS_KERNEL,
        state_bytes=_graph_state_bytes(adjacency),
        state_fraction=0.08,
        stream_fraction=0.006,
    )
    hadoop = Hadoop()
    result = hadoop.run(job, sorted(adjacency.items()), cluster=cluster)
    probe = Meter()
    distances = _bfs(adjacency, _bfs_source(adjacency), probe)
    result.meter.merge(probe)
    result.output = {"reached": len(distances)}
    return result


def spark_connected_components(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """S-CC: label propagation over the Facebook graph."""
    graph = FacebookSocialGraph(scale=min(1.0, 0.4 * scale + 0.05), seed=13 + seed)
    adjacency = graph.adjacency()
    spark = Spark()
    rdd = spark.parallelize(sorted(adjacency.items()))
    rdd.count()
    labels = {node: node for node in adjacency}
    meter = spark._meter
    for _ in range(8):
        changed = 0
        edges = 0
        for node, targets in adjacency.items():
            for target in targets:
                edges += 1
                if labels[target] < labels[node]:
                    labels[node] = labels[target]
                    changed += 1
        meter.ops(
            hash=float(2 * edges), compare=float(edges), int_op=float(changed)
        )
        if changed == 0:
            break
    components = len(set(labels.values()))
    return spark.finish(
        name="S-CC",
        output={"components": components},
        kernel=BFS_KERNEL,
        state_bytes=_graph_state_bytes(adjacency),
        state_fraction=0.09,
        stream_fraction=0.004,
        output_bytes=8 * len(labels),
        cluster=cluster,
    )


def hadoop_pagerank(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """H-PageRank: one power iteration per MapReduce job."""
    adjacency = _pagerank_graph(scale, seed)
    n = len(adjacency)
    ranks = {node: 1.0 / n for node in adjacency}

    def mapper(record, emit, meter):
        node, targets = record
        if targets:
            share = ranks[node] / len(targets)
            meter.ops(fp_op=len(targets), array_access=len(targets))
            for target in targets:
                emit(target, share)
        emit(node, 0.0)

    def reducer(key, values, emit, meter):
        meter.ops(fp_op=len(values) + 1)
        emit(key, 0.15 / n + 0.85 * sum(values))

    job = MapReduceJob(
        name="H-PageRank",
        mapper=mapper,
        reducer=reducer,
        kernel=PAGERANK_KERNEL,
        state_bytes=_graph_state_bytes(adjacency),
        state_fraction=0.07,
        stream_fraction=0.006,
    )
    hadoop = Hadoop()
    result = hadoop.run(job, sorted(adjacency.items()), cluster=cluster)
    # Refine functionally to convergence for the output.
    probe = Meter()
    for _ in range(4):
        ranks = _pagerank_iteration(adjacency, ranks, probe)
    result.meter.merge(probe)
    result.output = sorted(ranks.items(), key=lambda kv: -kv[1])[:20]
    return result


def hadoop_index(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """H-Index: inverted index over Wikipedia documents."""

    def mapper(record, emit, meter):
        doc_id, text = record
        words = text.split()
        meter.ops(
            str_byte=len(text), hash=len(words), array_access=len(words),
            compare=len(words),
        )
        for position, word in enumerate(words):
            if position % 8 == 0:  # sampled postings
                emit(word, (doc_id, position))

    def reducer(key, values, emit, meter):
        meter.ops(array_access=len(values), compare=len(values))
        emit(key, sorted(values))

    docs = list(enumerate(wiki_documents(scale, seed)))
    job = MapReduceJob(
        name="H-Index",
        mapper=mapper,
        reducer=reducer,
        kernel=INDEX_KERNEL,
        state_bytes=lambda meter: int(140 * max(512, meter.records_shuffled)),
        state_fraction=0.035,
        stream_fraction=0.010,
    )
    return Hadoop().run(job, docs, cluster=cluster)


def spark_index(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """S-Index: the Spark inverted index."""
    spark = Spark()
    docs = list(enumerate(wiki_documents(scale, seed)))
    rdd = spark.parallelize(docs)

    def to_postings(record):
        doc_id, text = record
        return [
            (word, (doc_id, position))
            for position, word in enumerate(text.split())
            if position % 8 == 0
        ]

    def meter_doc(record, meter):
        _doc_id, text = record
        words = text.count(" ") + 1
        meter.ops(str_byte=len(text), hash=words, array_access=words)

    postings = rdd.flat_map(to_postings, meter_doc).group_by_key()
    output = postings.collect()
    return spark.finish(
        name="S-Index",
        output=output,
        kernel=INDEX_KERNEL,
        state_bytes=int(140 * max(512, spark._meter.records_shuffled)),
        state_fraction=0.04,
        cluster=cluster,
    )


# --------------------------------------------------------------------------
# Cloud OLTP: HBase write and scan (the paper's Cloud OLTP category)
# --------------------------------------------------------------------------

def hbase_write(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """H-Write: random puts into an HBase region."""
    n_rows = max(500, int(3000 * scale))
    generator = ProfSearchResumes(seed=31 + seed)
    store = HBase()
    meter = Meter()
    for row in generator.rows(n_rows):
        meter.record_in(row.size_bytes())
        store.put(row.key, row.fields, meter)
        meter.record_out(row.size_bytes())
    store.flush()
    kernel = KernelTraits(
        code_kb=14.0, ilp=1.7, loop_fraction=0.25,
        pattern_fraction=0.10, data_dependent_fraction=0.65,
        taken_prob=0.07, loop_trip=12, state_zipf=0.4,
    )
    return store.result(
        "H-Write", store.n_sstables, meter, kernel,
        state_bytes=max(16 * 1024 * 1024, n_rows * 1128),
        state_fraction=0.08, stream_fraction=0.01, offcore_write_share=0.6,
        cluster=cluster,
        waves=lambda: store.request_waves(meter, cluster, writes=True),
    )


def hbase_scan(
    scale: float = 1.0, cluster: Optional[Cluster] = None, seed: int = 0
) -> WorkloadResult:
    """H-Scan: sequential range scans over an HBase region."""
    n_rows = max(500, int(3000 * scale))
    generator = ProfSearchResumes(seed=33 + seed)
    store = HBase()
    store.load([(row.key, row.fields) for row in generator.rows(n_rows)])
    meter = Meter()
    scanned = 0
    rng = np.random.default_rng(59 + seed)
    for _ in range(max(20, int(60 * scale))):
        start = int(rng.integers(0, max(1, n_rows - 100)))
        meter.record_in(64)
        for key in range(start, min(n_rows, start + 100)):
            value = store.get(key, meter)
            if value is not None:
                scanned += 1
                meter.record_out(1128)
    kernel = KernelTraits(
        code_kb=12.0, ilp=2.1, loop_fraction=0.45,
        pattern_fraction=0.10, data_dependent_fraction=0.45,
        taken_prob=0.05, loop_trip=100, state_zipf=0.3,
    )
    return store.result(
        "H-Scan", scanned, meter, kernel,
        state_bytes=max(16 * 1024 * 1024, n_rows * 1128),
        state_fraction=0.05, stream_fraction=0.02,
        cluster=cluster,
        waves=lambda: store.request_waves(meter, cluster),
    )


# --------------------------------------------------------------------------
# Additional query primitives (aggregation, join) per SQL engine
# --------------------------------------------------------------------------

def _aggregation_query() -> Query:
    return Query("items").group_by(
        ("goods_id",), {"revenue": ("sum", "goods_amount"), "n": ("count", "item_id")}
    )


def _join_query() -> Query:
    return (
        Query("items")
        .join("orders", "order_id", "order_id")
        .filter(lambda row: row["total"] > 50.0)
        .project(("order_id", "buyer_id", "goods_amount"))
    )


def _run_sql(engine_cls, name, query, scale, cluster, seed, **kwargs):
    tables = ecommerce_tables(scale, seed)
    return engine_cls().execute(
        name, query, tables, kernel=SQL_KERNEL, cluster=cluster, **kwargs
    )


def hive_aggregation(scale=1.0, cluster=None, seed=0):
    """Hive GROUP BY aggregation over the e-commerce items."""
    return _run_sql(HiveEngine, "H-Aggregation", _aggregation_query(), scale, cluster, seed)


def shark_aggregation(scale=1.0, cluster=None, seed=0):
    """Shark GROUP BY aggregation."""
    return _run_sql(SharkEngine, "S-Aggregation", _aggregation_query(), scale, cluster, seed)


def impala_aggregation(scale=1.0, cluster=None, seed=0):
    """Impala GROUP BY aggregation."""
    return _run_sql(ImpalaEngine, "I-Aggregation", _aggregation_query(), scale, cluster, seed)


def hive_join(scale=1.0, cluster=None, seed=0):
    """Hive equi-join of orders and items."""
    return _run_sql(HiveEngine, "H-JoinQuery", _join_query(), scale, cluster, seed)


def shark_join(scale=1.0, cluster=None, seed=0):
    """Shark equi-join."""
    return _run_sql(SharkEngine, "S-JoinQuery", _join_query(), scale, cluster, seed)


def impala_join(scale=1.0, cluster=None, seed=0):
    """Impala equi-join."""
    return _run_sql(ImpalaEngine, "I-JoinQuery", _join_query(), scale, cluster, seed)
