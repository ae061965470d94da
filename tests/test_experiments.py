"""Integration tests: every experiment regenerates its paper shape."""

import dataclasses

import numpy as np
import pytest

from repro.core import reduce_workloads
from repro.experiments import (
    ExperimentContext,
    fig6to9_locality,
    system_behaviors,
    table1_datasets,
    table2_reduction,
)
from repro.experiments.counter_figures import (
    ALGORITHM_STACKS,
    BEHAVIOR_GROUPS,
    CATEGORY_GROUPS,
    FIG1,
    FIG2,
    FIG3,
    FIG4,
    FIG5,
    STACKS,
    TABLE4,
)
from repro.obs.anchors import FAIL, PASS, anchors_for
from repro.workloads import ALL_WORKLOADS, REPRESENTATIVE_WORKLOADS, workload


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return FIG1.run(ctx)

    def test_branch_ratio_near_paper(self, result):
        metrics = result.fidelity_metrics()
        assert 0.15 < metrics["bigdata.ratio_branch"] < 0.23  # paper 18.7%

    def test_integer_ratio_near_paper(self, result):
        metrics = result.fidelity_metrics()
        assert 0.32 < metrics["bigdata.ratio_integer"] < 0.45  # paper 38%

    def test_renders(self, result):
        text = result.render()
        assert "Figure 1" in text and "H-Read" in text

    def test_rows_complete(self, result):
        assert len(result.workload_rows) == 23  # 17 + 6 MPI
        assert len(_suites(result.fidelity_metrics())) == 6


def _suites(metrics):
    """The suite names of a record's ``suite.<name>.<metric>`` keys."""
    return {key.split(".")[1] for key in metrics if key.startswith("suite.")}


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return FIG2.run(ctx)

    def test_int_addr_dominates(self, result):
        assert result.fidelity_metrics()["avg.int_addr"] > 0.5  # paper 64%

    def test_data_movement_share(self, result):
        metrics = result.fidelity_metrics()
        assert 0.6 < metrics["avg.data_movement"] < 0.85  # paper ~73%

    def test_with_branches_headline(self, result):
        metrics = result.fidelity_metrics()
        assert 0.8 < metrics["avg.with_branches"] < 0.97  # paper up to 92%

    def test_renders(self, result):
        assert "Figure 2" in result.render()

    def test_reads_profiles_without_characterizing(self, monkeypatch):
        from repro.uarch import counters

        def refuse(*args, **kwargs):
            raise AssertionError("fig 2 characterized a workload")

        monkeypatch.setattr(counters, "characterize", refuse)
        FIG2.run(ExperimentContext(scale=0.1))

    def test_paper_shares_anchored(self, result):
        # §5.1: 64% integer-array addresses, ~73% data movement.
        metrics = result.fidelity_metrics()
        status = {anchor.metric: anchor.evaluate(metrics)[1]
                  for anchor in anchors_for("fig2")}
        assert status["avg.int_addr"] == PASS
        assert status["avg.data_movement"] == PASS
        assert FAIL not in status.values()


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return FIG3.run(ctx)

    def test_service_has_lowest_category_ipc(self, result):
        metrics = result.fidelity_metrics()
        service = metrics["group.category: service.ipc"]
        assert service < metrics["group.category: data analysis.ipc"]
        assert service < metrics["group.category: interactive analysis.ipc"]

    def test_bigdata_avg_in_band(self, result):
        assert 0.8 < result.fidelity_metrics()["bigdata.ipc"] < 1.5  # paper 1.28

    def test_hpcc_fastest_suite(self, result):
        metrics = result.fidelity_metrics()
        suite_ipcs = {suite: metrics[f"suite.{suite}.ipc"]
                      for suite in _suites(metrics)}
        assert suite_ipcs["HPCC"] == max(suite_ipcs.values())

    def test_ipc_disparities_exist(self, result):
        ipcs = [row[1] for row in result.workload_rows]
        assert max(ipcs) > 2 * min(ipcs)  # "significant disparities"

    # §5.1: big data leaves the FP units idle; HPC does not.
    def test_bigdata_uses_vanishing_share_of_peak_fp(self, ctx, result):
        metrics = result.fidelity_metrics()
        assert metrics["bigdata.fp_utilization"] < 0.05
        assert metrics["bigdata.fp_utilization"] == (
            metrics["bigdata.gflops"] / ctx.xeon.peak_gflops
        )

    def test_hpcc_uses_far_more_fp_than_bigdata(self, result):
        metrics = result.fidelity_metrics()
        assert metrics["suite.HPCC.gflops"] > 10 * metrics["bigdata.gflops"]


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return FIG4.run(ctx)

    def test_bigdata_l1i_band(self, result):
        assert 10 < result.fidelity_metrics()["bigdata.l1i_mpki"] < 22  # paper 15

    def test_bigdata_l3_band(self, result):
        assert 0.4 < result.fidelity_metrics()["bigdata.l3_mpki"] < 2.5  # paper 1.2

    def test_h_read_is_worst_l1i(self, result):
        by_workload = {row[0]: row[1] for row in result.workload_rows}
        assert by_workload["H-Read"] == max(
            value for name, value in by_workload.items()
            if not name.startswith("M-")
        )
        assert by_workload["H-Read"] > 35  # paper 51

    def test_service_category_worst(self, result):
        metrics = result.fidelity_metrics()
        assert (metrics["group.category: service.l1i_mpki"]
                > metrics["group.category: data analysis.l1i_mpki"])


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return FIG5.run(ctx)

    def test_itlb_small(self, result):
        assert result.fidelity_metrics()["bigdata.itlb_mpki"] < 0.5  # paper 0.05

    def test_dtlb_band(self, result):
        assert 0.2 < result.fidelity_metrics()["bigdata.dtlb_mpki"] < 3.0  # paper 0.9

    def test_service_has_highest_itlb(self, result):
        metrics = result.fidelity_metrics()
        assert (metrics["group.category: service.itlb_mpki"]
                >= metrics["group.category: data analysis.itlb_mpki"])


@pytest.mark.parametrize("figure", [FIG1, FIG3, FIG4, FIG5],
                         ids=["fig1", "fig3", "fig4", "fig5"])
def test_counter_figure_rows_and_means(ctx, figure):
    # Every counter figure: 17 representatives + 6 MPI rows, 6 suites,
    # and each mean over exactly the representatives it names.
    result = figure.run(ctx)
    assert len(result.workload_rows) == 23
    metrics = result.fidelity_metrics()
    assert len(_suites(metrics)) == 6
    columns = {column.name for column in figure.columns}
    keys = [key for key, _ in figure.summaries]
    bigdata_metrics = [key.split(".", 1)[1] for key in keys
                       if key.startswith("bigdata.")
                       and key.split(".", 1)[1] in columns]
    group_metrics = list(dict.fromkeys(
        key.rsplit(".", 1)[1] for key in keys if key.startswith("group.")))
    assert bigdata_metrics and group_metrics

    def mean(definitions, metric):
        values = [metrics[f"workload.{d.workload_id}.{metric}"]
                  for d in definitions]
        return sum(values) / len(values)

    assert len(REPRESENTATIVE_WORKLOADS) == 17
    for metric in bigdata_metrics:
        assert metrics[f"bigdata.{metric}"] == mean(
            REPRESENTATIVE_WORKLOADS, metric)
    subclasses = [("category", g, lambda d, g=g: d.category.value == g)
                  for g in CATEGORY_GROUPS]
    subclasses += [
        ("behavior", g, lambda d, g=g: d.expected_system_behavior.value == g)
        for g in BEHAVIOR_GROUPS
    ]
    for kind, group, member in subclasses:
        members = [d for d in REPRESENTATIVE_WORKLOADS if member(d)]
        assert members, group
        for metric in group_metrics:
            assert metrics[f"group.{kind}: {group}.{metric}"] == mean(
                members, metric)


class TestLocality:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig6to9_locality.run(ctx, trace_refs=15_000)

    def test_hadoop_instruction_curve_above_parsec(self, result):
        hadoop = result.instruction["Hadoop-workloads"]
        parsec = result.instruction["PARSEC-workloads"]
        # At small capacities Hadoop misses far more (Figure 6).
        for i, size in enumerate(result.sizes_kb):
            if size <= 256:
                assert hadoop[i] > parsec[i]

    def test_footprint_knees(self, result):
        hadoop_knee = result.knees_kb["Hadoop-workloads"]
        parsec_knee = result.knees_kb["PARSEC-workloads"]
        # Paper: ~1024 KB vs ~128 KB.
        assert hadoop_knee >= 4 * parsec_knee

    def test_mpi_matches_parsec(self, result):
        mpi = result.instruction["MPI-workloads"]
        hadoop = result.instruction["Hadoop-workloads"]
        at_32kb = result.sizes_kb.index(32)
        # Figure 9: MPI far below Hadoop at L1I-like sizes, near PARSEC.
        assert mpi[at_32kb] < 0.5 * hadoop[at_32kb]
        parsec = result.instruction["PARSEC-workloads"]
        assert abs(mpi[at_32kb] - parsec[at_32kb]) < 0.12

    def test_data_curves_converge(self, result):
        hadoop = result.data["Hadoop-workloads"]
        parsec = result.data["PARSEC-workloads"]
        at_large = result.sizes_kb.index(4096)
        # Figure 7: close at large capacities.
        assert abs(hadoop[at_large] - parsec[at_large]) < 0.05

    def test_unified_curves_converge_beyond_1mb(self, result):
        hadoop = result.unified["Hadoop-workloads"]
        parsec = result.unified["PARSEC-workloads"]
        at_2mb = result.sizes_kb.index(2048)
        assert abs(hadoop[at_2mb] - parsec[at_2mb]) < 0.06

    def test_one_sample_per_hadoop_phase(self, ctx):
        # A phase is stationary, so one sample carrying the phase's whole
        # instruction count stands for the paper's points in that phase.
        for workload_id in fig6to9_locality.HADOOP_WORKLOADS:
            segments = ctx.result(workload_id).segments
            assert [profile.name for profile, _ in segments] == [
                f"{workload_id}/map", f"{workload_id}/reduce"]
            for profile, weight in segments:
                assert weight == pytest.approx(profile.instructions, rel=1e-12)

    def test_curves_monotone(self, result):
        # Each swept size doubles the set count at fixed associativity,
        # so LRU inclusion makes every curve exactly non-increasing.
        for curves in (result.instruction, result.data, result.unified):
            for series in curves.values():
                for small, large in zip(series, series[1:]):
                    assert large <= small


class TestStackImpact:
    @pytest.fixture(scope="class")
    def metrics(self, ctx):
        return STACKS.run(ctx).fidelity_metrics()

    def test_mpi_ipc_higher(self, metrics):
        assert metrics["mpi_avg.ipc"] > metrics["others_avg.ipc"]
        assert metrics["summary.ipc_gap"] > 0.15  # paper 21%

    def test_l1i_order_of_magnitude(self, metrics):
        # Paper: one order of magnitude between implementations.
        assert metrics["summary.l1i_ratio"] > 3.0

    def test_wordcount_triplet_ordering(self, metrics):
        def wordcount(stack, metric):
            return metrics[f"workload.{stack}-WordCount.{metric}"]

        # IPC: MPI > Hadoop > Spark (paper 1.8 / 1.1 / 0.9).
        assert wordcount("M", "ipc") > wordcount("H", "ipc")
        assert wordcount("H", "ipc") > wordcount("S", "ipc")
        # L1I: MPI < Hadoop < Spark (paper 2 / 7 / 17).
        assert wordcount("M", "l1i_mpki") < wordcount("H", "l1i_mpki")
        assert wordcount("H", "l1i_mpki") < wordcount("S", "l1i_mpki")

    def test_l2_l3_stack_effect(self, metrics):
        assert metrics["mpi_avg.l2_mpki"] < metrics["others_avg.l2_mpki"]

    def test_series_is_the_record_metrics(self, ctx):
        # The series is `repro stacks --json`'s document; `repro diff`
        # compares only metrics, so this is what gates the series.
        result = STACKS.run(ctx)
        series = result.to_dict()
        assert list(series) == ["rows", "mpi_avg", "others_avg", "ipc_gap",
                                "l1i_ratio"]
        assert [row[0] for row in series["rows"]] == [
            w for ids in ALGORITHM_STACKS.values() for w in ids]
        names = ("ipc", "l1i_mpki", "l2_mpki", "l3_mpki")
        assert {len(row) for row in series["rows"]} == {1 + len(names)}
        flat = {f"workload.{row[0]}.{name}": value
                for row in series["rows"]
                for name, value in zip(names, row[1:])}
        for prefix in ("mpi_avg", "others_avg"):
            assert tuple(series[prefix]) == names
            flat.update({f"{prefix}.{name}": value
                         for name, value in series[prefix].items()})
        flat["summary.ipc_gap"] = series["ipc_gap"]
        flat["summary.l1i_ratio"] = series["l1i_ratio"]
        assert flat == result.fidelity_metrics()


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return TABLE4.run(ctx)

    def test_atom_mispredicts_more(self, result):
        metrics = result.fidelity_metrics()
        assert metrics["summary.d510_mispred"] > metrics["summary.e5645_mispred"]
        assert 1.5 < metrics["summary.ratio"] < 5.0  # paper ~2.8x

    def test_absolute_bands(self, result):
        metrics = result.fidelity_metrics()
        assert metrics["summary.e5645_mispred"] < 0.08   # paper 2.8%
        assert metrics["summary.d510_mispred"] < 0.20    # paper 7.8%

    def test_renders(self, result):
        assert "E5645" in result.render()

    # §5.2: every workload is slower on the Atom, by varying factors.
    def test_atom_slower_on_every_workload(self, result):
        assert result.fidelity_metrics()["summary.slowdown_min"] > 1.0

    def test_no_one_size_fits_all_core(self, result):
        assert result.fidelity_metrics()["summary.slowdown_spread"] > 1.3


#: Every counter spec, under the experiment name its record carries.
COUNTER_SPECS = {"fig1": FIG1, "fig2": FIG2, "fig3": FIG3, "fig4": FIG4,
                 "fig5": FIG5, "table4": TABLE4, "stacks": STACKS}


class TestCounterCells:
    @pytest.fixture(scope="class")
    def fresh(self):
        return ExperimentContext(scale=0.1)

    @pytest.mark.parametrize("experiment", list(COUNTER_SPECS))
    def test_primed_cells_are_the_cells_read(self, fresh, experiment,
                                             monkeypatch):
        # `--jobs` primes a spec's cells: a cell it left out would be
        # characterized serially, and one it added would be wasted.
        # Every read goes through `counters`, cached or not.
        spec = COUNTER_SPECS[experiment]
        read = []
        counters = fresh.counters

        def logged(ref, platform=fresh.xeon):
            read.append((ref, platform.name))
            return counters(ref, platform)

        monkeypatch.setattr(fresh, "counters", logged)
        spec.run(fresh)
        cells = {(w, platform.name) for w, platform in spec.cells}
        assert len(cells) == len(spec.cells)
        assert set(read) == cells
        assert (cells == set()) == (experiment == "fig2")


class TestAnchorCoverage:
    def test_every_anchor_names_a_recorded_metric(self, ctx):
        # A misspelt anchor metric would only show as "missing" in
        # `repro report`; here it fails instead.
        missing = []
        for experiment, spec in COUNTER_SPECS.items():
            metrics = spec.run(ctx).fidelity_metrics()
            anchors = anchors_for(experiment)
            assert anchors, experiment
            missing += [f"{experiment}: {anchor.metric}" for anchor in anchors
                        if anchor.evaluate(metrics)[0] is None]
        assert missing == []


class TestTable1:
    def test_catalog_renders(self):
        result = table1_datasets.run()
        assert len(result.rows) == 7
        assert "Table 1" in result.render()


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return table2_reduction.run(ctx)

    def test_seventeen_clusters_cover_the_catalog(self, result):
        assert result.n_clusters == 17
        assert result.members_total == len(ALL_WORKLOADS) == 77

    def test_rows_are_the_context_characterizations(self, ctx, result):
        names = [d.workload_id for d in ALL_WORKLOADS]
        matrix = np.vstack([ctx.counters(n).metric_vector() for n in names])
        reduction = result.reduction
        assert reduction.names == names
        np.testing.assert_array_equal(reduction.normalization.mean,
                                      matrix.mean(axis=0))
        again = reduce_workloads(names, matrix, k=17, seed=ctx.seed)
        np.testing.assert_array_equal(reduction.labels, again.labels)
        assert reduction.representatives == again.representatives

    def test_characterizes_with_the_context_seed(self, monkeypatch):
        from repro.uarch import counters

        population = [workload(i) for i in
                      ("H-Grep", "S-Grep", "H-Read", "I-SelectQuery")]
        monkeypatch.setattr(table2_reduction, "ALL_WORKLOADS", population)
        seeds = []
        characterize = counters.characterize

        def spy(profile, platform, seed):
            seeds.append(seed)
            return characterize(profile, platform, seed=seed)

        monkeypatch.setattr(counters, "characterize", spy)
        result = table2_reduction.run(ExperimentContext(scale=0.1, seed=1),
                                      k=2)
        assert seeds == [1234 + 1] * len(population)
        assert result.members_total == len(population)


class TestCustomDefinitions:
    def test_custom_definition_is_cached_under_its_id(self):
        context = ExperimentContext(scale=0.1)
        calls = []

        def runner(scale, seed):
            calls.append(seed)
            return workload("H-Grep").runner(scale=scale, seed=seed)

        mine = dataclasses.replace(
            workload("H-Grep"), workload_id="X-Grep", runner=runner
        )
        assert context.result(mine) is context.result("X-Grep")
        assert context.counters(mine) is context.counters("X-Grep")
        assert calls == [0]

    def test_alias_of_a_cached_id_is_rejected(self):
        context = ExperimentContext(scale=0.1)
        context.result("H-Grep")
        impostor = dataclasses.replace(
            workload("H-Grep"), runner=workload("S-Grep").runner
        )
        with pytest.raises(ValueError, match="H-Grep"):
            context.counters(impostor)
        with pytest.raises(ValueError, match="H-Grep"):
            context.result(impostor)


class TestSystemBehaviors:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return system_behaviors.run(ctx)

    def test_all_representatives_classified(self, result):
        assert result.total == 17

    def test_majority_match_table2(self, result):
        # The classification rules operate on simulated resource usage;
        # most of Table 2's column should reproduce.
        assert result.match_ratio >= 0.5

    def test_renders(self, result):
        assert "cpu util" in result.render()
