"""Tests for the comparison suites and their paper-relative orderings."""

import numpy as np
import pytest

from repro.comparison import SUITES
from repro.comparison.base import NativeBenchmark
from repro.comparison.kernels import (
    dgemm,
    fsm_parse,
    grid_sssp,
    hash_churn,
    rle_compress,
    stream_triad,
    transaction_mix,
)
from repro.stacks.base import Meter
from repro.workloads import REPRESENTATIVE_WORKLOADS


class TestKernelsCompute:
    def test_rle_compresses(self):
        meter = Meter()
        out_len = rle_compress(meter, scale=0.2)
        assert out_len > 0
        assert meter.bytes_in > out_len  # compression happened

    def test_fsm_counts_tokens(self):
        meter = Meter()
        tokens = fsm_parse(meter, scale=0.2)
        assert tokens > 0

    def test_sssp_finds_path(self):
        meter = Meter()
        distance = grid_sssp(meter, scale=0.3)
        assert distance > 0

    def test_hash_churn_hits(self):
        meter = Meter()
        hits = hash_churn(meter, scale=0.2)
        assert hits > 0

    def test_dgemm_fp_ops(self):
        meter = Meter()
        dgemm(meter, scale=0.2)
        assert meter.fp_ops > 1e5

    def test_stream_records_bytes(self):
        meter = Meter()
        stream_triad(meter, scale=0.1)
        assert meter.bytes_in > 0 and meter.bytes_out > 0

    def test_transactions_commit(self):
        meter = Meter()
        committed = transaction_mix(meter, scale=0.2)
        assert committed > 1000


class TestSuiteCatalog:
    def test_six_suites(self):
        assert set(SUITES) == {
            "SPECINT", "SPECFP", "PARSEC", "HPCC", "CloudSuite", "TPC-C",
        }

    def test_member_counts_match_paper_setup(self):
        assert len(SUITES["PARSEC"]) == 12   # all 12 benchmarks
        assert len(SUITES["HPCC"]) == 7      # all 7 benchmarks
        assert len(SUITES["CloudSuite"]) == 6
        assert len(SUITES["SPECINT"]) == 12  # all 12 INT benchmarks
        assert len(SUITES["SPECFP"]) == 10

    def test_profiles_build(self):
        for suite in SUITES.values():
            for benchmark in suite[:2]:
                profile = benchmark.profile(scale=0.2)
                assert profile.instructions > 0
                assert profile.mix.total > 0


class TestPaperOrderings:
    """The relative suite-level facts the paper's §5 relies on."""

    @pytest.fixture(scope="class")
    def averages(self, ctx):
        metrics = (
            "ipc", "ratio_branch", "ratio_integer", "ratio_fp",
            "l1i_mpki", "l2_mpki", "l3_mpki", "dtlb_mpki",
        )
        table = {}
        for suite_name in SUITES:
            samples = [
                c.metric_dict() for c in ctx.suite_counters(suite_name)
            ]
            table[suite_name] = {
                m: float(np.mean([s[m] for s in samples])) for m in metrics
            }
        representatives = [
            ctx.counters(d.workload_id).metric_dict()
            for d in REPRESENTATIVE_WORKLOADS
        ]
        table["bigdata"] = {
            m: float(np.mean([r[m] for r in representatives]))
            for m in metrics
        }
        return table

    def test_bigdata_has_more_branches(self, averages):
        bigdata = averages["bigdata"]["ratio_branch"]
        for suite in ("HPCC", "PARSEC", "SPECFP", "SPECINT"):
            assert bigdata > averages[suite]["ratio_branch"]

    def test_tpcc_branchiest(self, averages):
        assert averages["TPC-C"]["ratio_branch"] > averages["bigdata"]["ratio_branch"]

    def test_integer_dominated_workloads(self, averages):
        # Big data ~38%, close to SPECINT/CloudSuite/TPC-C, above SPECFP/HPCC.
        assert averages["bigdata"]["ratio_integer"] > averages["SPECFP"]["ratio_integer"]
        assert averages["bigdata"]["ratio_integer"] > averages["HPCC"]["ratio_fp"]

    def test_fp_suites_have_fp(self, averages):
        assert averages["SPECFP"]["ratio_fp"] > 0.2
        assert averages["bigdata"]["ratio_fp"] < 0.1

    def test_ipc_ordering(self, averages):
        # Paper: HPCC 1.5 > PARSEC 1.28 ≈ bigdata 1.28 > SPECFP 1.1 > SPECINT 0.9.
        assert averages["HPCC"]["ipc"] > averages["PARSEC"]["ipc"]
        assert averages["PARSEC"]["ipc"] > averages["SPECINT"]["ipc"]
        assert averages["bigdata"]["ipc"] > averages["SPECINT"]["ipc"] * 0.9

    def test_l1i_ordering(self, averages):
        # Paper: CloudSuite 32 > bigdata 15 > SPECINT/SPECFP/PARSEC/HPCC.
        assert averages["CloudSuite"]["l1i_mpki"] > averages["bigdata"]["l1i_mpki"]
        for suite in ("SPECINT", "SPECFP", "PARSEC", "HPCC"):
            assert averages["bigdata"]["l1i_mpki"] > averages[suite]["l1i_mpki"]

    def test_l2_bigdata_above_hpc_below_services(self, averages):
        assert averages["bigdata"]["l2_mpki"] > averages["HPCC"]["l2_mpki"]
        assert averages["bigdata"]["l2_mpki"] > averages["PARSEC"]["l2_mpki"]
        assert averages["bigdata"]["l2_mpki"] < averages["CloudSuite"]["l2_mpki"]

    def test_l3_bigdata_smallest(self, averages):
        # Paper: big data L3 MPKI smaller than all other suites.
        for suite in SUITES:
            assert (
                averages["bigdata"]["l3_mpki"]
                < averages[suite]["l3_mpki"] + 1.0
            )

    def test_dtlb_bigdata_small(self, averages):
        assert averages["bigdata"]["dtlb_mpki"] < averages["CloudSuite"]["dtlb_mpki"]
        assert averages["bigdata"]["dtlb_mpki"] < averages["TPC-C"]["dtlb_mpki"]
