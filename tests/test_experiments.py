"""Tests for the experiment harness and each table/figure module."""

import pytest

from repro.experiments import ablation, congestion, fig1, fig2, fig3
from repro.experiments import related_work, relaxed, scalefree
from repro.experiments import structures, sweeps, table1, table2
from repro.experiments.harness import (
    ExperimentTable,
    sample_pairs,
    standard_suite,
)
from repro.graphs.generators import grid_2d
from repro.metric.graph_metric import GraphMetric

TINY_SUITE = [("grid 5x5", grid_2d(5))]


class TestHarness:
    def test_standard_suite_shapes(self):
        small = standard_suite("small")
        assert len(small) == 4
        names = [name for name, _ in small]
        assert any("holes" in n for n in names)
        assert any("exp" in n for n in names)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            standard_suite("galactic")

    def test_sample_pairs_deterministic(self, grid_metric):
        assert sample_pairs(grid_metric, 50, seed=1) == sample_pairs(
            grid_metric, 50, seed=1
        )

    def test_sample_pairs_distinct(self, grid_metric):
        pairs = sample_pairs(grid_metric, 60, seed=2)
        assert len(set(pairs)) == 60
        assert all(u != v for u, v in pairs)

    def test_sample_pairs_all_for_tiny(self):
        metric = GraphMetric(grid_2d(2))
        pairs = sample_pairs(metric, 10**6)
        assert len(pairs) == 4 * 3

    def test_table_formatting(self):
        table = ExperimentTable(
            title="T",
            columns=["a", "b"],
            rows=[[1, 2.5], ["x", 3]],
            notes=["hello"],
        )
        text = table.formatted()
        assert "T" in text and "2.500" in text and "note: hello" in text

    def test_row_dicts(self):
        table = ExperimentTable(title="T", columns=["a"], rows=[[7]])
        assert table.row_dicts() == [{"a": 7}]

    def test_build_scheme_defaults(self, grid_metric):
        from repro.experiments.harness import build_scheme
        from repro.schemes.shortest_path import ShortestPathScheme

        scheme = build_scheme(ShortestPathScheme, grid_metric)
        assert scheme.params.epsilon == 0.5
        assert scheme.route(0, 1).stretch == 1.0


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(pair_count=60, suite=TINY_SUITE)

    def test_three_schemes_per_graph(self, result):
        assert len(result.rows) == 3

    def test_baseline_stretch_one(self, result):
        baseline = result.rows[0]
        assert baseline[2] == pytest.approx(1.0)

    def test_compact_schemes_within_bound(self, result):
        for row in result.rows[1:]:
            assert row[2] <= 9 + 8 * 0.5

    def test_compact_tables_smaller_than_baseline_scales(self, result):
        # Baseline tables are n*(2 log n); compact are polylog * consts.
        baseline_bits = result.rows[0][4]
        assert baseline_bits > 0


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(pair_count=60, suite=TINY_SUITE)

    def test_labels_are_log_n(self, result):
        for row in result.rows:
            assert row[7] == 5  # ceil(log2 25)

    def test_labeled_stretch_bound(self, result):
        for row in result.rows[1:]:
            assert row[2] <= 1 + 8 * 0.5


class TestFigures:
    def test_fig1_shares_sum_to_one(self):
        result = fig1.run(pair_count=40, suite=TINY_SUITE)
        for row in result.rows:
            assert row[2] + row[3] + row[4] == pytest.approx(1.0, abs=0.01)

    def test_fig2_shares_sum_to_one(self):
        result = fig2.run(pair_count=40, suite=TINY_SUITE)
        for row in result.rows:
            assert row[1] + row[2] + row[3] + row[4] == pytest.approx(
                1.0, abs=0.01
            )

    def test_fig2_zero_fallbacks(self):
        result = fig2.run(pair_count=40, suite=TINY_SUITE)
        for row in result.rows:
            assert row[8] == 0

    def test_fig3_construction_rows(self):
        result = fig3.run_construction(epsilons=[6.0], n=256)
        assert len(result.rows) == 1
        eps, p, q, n = result.rows[0][:4]
        assert (p, q) == (18, 4)
        assert n == 256

    def test_fig3_counting_rows_verified(self):
        result = fig3.run_counting(epsilons=[2.0, 6.0])
        for row in result.rows:
            assert row[4] is True   # Claim 5.10 base
            assert row[7] is True   # Claim 5.11

    def test_fig3_adversary_runs(self):
        result = fig3.run_adversary(
            epsilon=6.0, n=128, namings=2, routes_per_naming=5
        )
        worst = result.rows[-1][2]
        assert worst >= 1.0


class TestScaleFreeAblation:
    def test_scale_free_columns_flat(self):
        result = scalefree.run(n=14, bases=[1.5, 8.0])
        first, last = result.rows[0], result.rows[-1]
        # log Delta grows a lot...
        assert last[1] > 2 * first[1]
        # ...non-scale-free storage grows...
        assert last[2] > first[2]
        assert last[4] > first[4]
        # ...scale-free storage roughly flat.
        assert last[3] <= 2.0 * first[3]
        assert last[5] <= 2.0 * first[5]


class TestSweeps:
    def test_stretch_sweep_monotone_bounds(self):
        result = sweeps.run_stretch_sweep(
            epsilons=[0.25, 0.5], grid_side=5, pair_count=50
        )
        for row in result.rows:
            eps = row[0]
            assert row[1] <= 1 + 8 * eps  # labeled non-SF
            assert row[2] <= 1 + 8 * eps  # labeled SF

    def test_storage_scaling_increases_with_n(self):
        result = sweeps.run_storage_scaling(sizes=[32, 64])
        small, large = result.rows
        assert large[2] >= small[2]

    def test_storage_scaling_label_bits(self):
        result = sweeps.run_storage_scaling(sizes=[64])
        assert result.rows[0][-1] == 6


class TestRelatedWork:
    def test_cowen_vs_theorem_1_2(self):
        result = related_work.run(pair_count=40, suite=TINY_SUITE)
        cowen, thm12 = result.rows
        assert cowen[2] <= 3.0 + 1e-9
        assert thm12[2] <= 1 + 8 * 0.5
        # The doubling-metric scheme buys better guarantees with more
        # (but still polylog) storage.
        assert thm12[6] < cowen[6]


class TestAblations:
    def test_a1_same_stretch_both_routers(self):
        result = ablation.run_tree_router(pair_count=40)
        by_graph = {}
        for row in result.rows:
            by_graph.setdefault(row[0], []).append(row[2])
        for stretches in by_graph.values():
            assert stretches[0] == stretches[1]

    def test_a2_savings_increase_with_delta(self):
        result = ablation.run_ring_restriction(sizes=[1.5, 16.0])
        assert result.rows[-1][4] > result.rows[0][4]

    def test_a3_served_fraction_high(self):
        result = ablation.run_packing_service(epsilons=[0.25])
        assert result.rows[0][3] >= 0.5


class TestCongestion:
    def test_compact_schemes_cost_more_traffic(self):
        result = congestion.run(packet_count=60, suite=TINY_SUITE)
        baseline, thm14, thm11 = result.rows
        assert thm14[5] >= baseline[5]
        assert thm11[5] >= baseline[5]

    def test_all_rows_have_positive_latency(self):
        result = congestion.run(packet_count=40, suite=TINY_SUITE)
        for row in result.rows:
            assert row[2] > 0


class TestRelaxed:
    def test_median_below_max(self):
        result = relaxed.run(pair_count=60, suite=TINY_SUITE)
        for row in result.rows:
            assert row[2] <= row[4]

    def test_fractions_are_probabilities(self):
        result = relaxed.run(pair_count=60, suite=TINY_SUITE)
        for row in result.rows:
            assert 0.0 <= row[5] <= 1.0


class TestStructuresAudit:
    def test_audit_passes_on_tiny_suite(self):
        result = structures.run(suite=TINY_SUITE)
        row = result.rows[0]
        assert row[2] is True          # Lemma 2.3 holds
        assert row[3] <= row[4] + 1e-9  # height within (1+eps) r
        assert row[5] <= row[6]        # H-links within 4 log n


class TestChaosExperiment:
    def test_sweep_regimes_on_tiny_suite(self):
        from repro.experiments import chaos

        result = chaos.run(
            pair_count=30, losses=(0.0, 0.3), suite=TINY_SUITE
        )
        # six schemes x two losses x two regimes
        assert len(result.rows) == 6 * 2 * 2
        by_key = {
            (r[1], r[2], r[3]): r for r in result.rows
        }
        for _, label in chaos.SCHEME_LINEUP:
            # Heavy loss without ARQ loses packets; ARQ recovers more.
            failfast = by_key[(label, 0.3, "off")]
            reliable = by_key[(label, 0.3, "on")]
            assert failfast[5] < 1.0
            assert reliable[5] > failfast[5]

    def test_loss_flag_collapses_sweep(self):
        from repro.experiments import chaos

        result = chaos.run(pair_count=10, loss=0.1, suite=TINY_SUITE)
        assert {r[2] for r in result.rows} == {0.1}

    def test_audit_heals_on_tiny_suite(self):
        from repro.experiments import chaos

        result = chaos.run_audit(corrupt_count=3, suite=TINY_SUITE)
        for row in result.rows:
            assert row[4] == 1.0      # detection rate
            assert row[6] == "yes"    # clean after healing
            assert row[7] > 0         # cold-identical pairs compared


class TestScaleExperiment:
    def test_trajectory_on_tiny_sizes(self):
        from repro.experiments import scale

        result = scale.run(pair_count=20, sizes=(48, 64))
        assert len(result.rows) == 2 * 4  # two sizes x four families
        for row in result.rows:
            n, rows_materialized, stretch = row[1], row[3], row[5]
            assert rows_materialized < n
            assert stretch >= 1.0

    def test_builds_each_point_once(self, monkeypatch):
        from repro.experiments import scale
        from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme

        built = []
        init = LandmarkNameIndependentScheme.__init__

        def counted(self, metric, *args, **kwargs):
            built.append(metric)
            init(self, metric, *args, **kwargs)

        monkeypatch.setattr(LandmarkNameIndependentScheme, "__init__", counted)
        result = scale.run(pair_count=20, sizes=(48, 64))
        assert len(built) == len(result.rows)
        column = result.columns.index("row store MiB")
        for metric, row in zip(built, result.rows):
            assert 0 < row[column] * 2**20 <= metric.row_budget_bytes

    def test_doubling_degradation_table(self):
        from repro.experiments import scale

        result = scale.run_doubling(pair_count=20, sizes=(48,))
        by_key = {(r[0], r[2]): r for r in result.rows}
        # The doubling scheme pays more bits on the power-law family
        # than on the doubling one; the landmark scheme is
        # family-agnostic at fixed n.
        assert (
            by_key[("pref-attach m=2", "Thm 1.4 (doubling)")][3]
            > by_key[("geometric", "Thm 1.4 (doubling)")][3]
        )
        assert (
            by_key[("pref-attach m=2", "landmark (KFY)")][3]
            == by_key[("geometric", "landmark (KFY)")][3]
        )

    def test_registered_in_cli_registry(self):
        from repro.pipeline.registry import REGISTRY

        assert "scale" in REGISTRY
