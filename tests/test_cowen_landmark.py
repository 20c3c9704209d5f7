"""Tests for the Cowen stretch-3 landmark baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SchemeParameters
from repro.core.types import PreprocessingError
from repro.graphs.generators import random_geometric
from repro.metric.graph_metric import GraphMetric
from repro.schemes.cowen_landmark import CowenLandmarkScheme

from tests.test_rnet import random_connected_graph


class TestConstruction:
    @pytest.fixture(scope="class")
    def scheme(self, grid_metric):
        return CowenLandmarkScheme(grid_metric, SchemeParameters())

    def test_default_landmark_count(self, scheme, grid_metric):
        assert len(scheme.landmarks) == round(grid_metric.n ** (1 / 3))

    def test_landmarks_are_nodes(self, scheme, grid_metric):
        assert all(0 <= lm < grid_metric.n for lm in scheme.landmarks)

    def test_home_is_nearest_landmark(self, scheme, grid_metric):
        for v in grid_metric.nodes:
            best = min(
                grid_metric.distance(v, lm) for lm in scheme.landmarks
            )
            assert grid_metric.distance(
                v, scheme.home_landmark(v)
            ) == pytest.approx(best)

    def test_cluster_definition(self, scheme, grid_metric):
        """C(u) = {v : d(u,v) < d(v, L(v))}."""
        for u in range(0, grid_metric.n, 7):
            cluster = scheme.cluster(u)
            for v in grid_metric.nodes:
                strictly_closer = grid_metric.distance(
                    u, v
                ) < grid_metric.distance(
                    v, scheme.home_landmark(v)
                ) - 1e-12
                assert (v in cluster) == strictly_closer

    def test_landmarks_have_empty_self_distance_clusters(self, scheme):
        # A landmark's own home is itself, so no node has it in a
        # cluster via the strict inequality with distance 0 ... except
        # the trivial consequence that landmarks are never in clusters.
        for u in range(0, scheme.metric.n, 5):
            for lm in scheme.landmarks:
                assert lm not in scheme.cluster(u)

    def test_bad_landmark_count_rejected(self, grid_metric):
        with pytest.raises(PreprocessingError):
            CowenLandmarkScheme(
                grid_metric, SchemeParameters(), landmark_count=0
            )

    def test_label_packs_node_and_home(self, scheme, grid_metric):
        for v in (0, 13, 35):
            node, home = scheme.unpack_label(scheme.routing_label(v))
            assert node == v
            assert home == scheme.home_landmark(v)


class TestRouting:
    @pytest.fixture(scope="class")
    def scheme(self, grid_metric):
        return CowenLandmarkScheme(grid_metric, SchemeParameters())

    def test_reaches_all_targets(self, scheme, grid_metric):
        for u in range(0, grid_metric.n, 4):
            for v in grid_metric.nodes:
                if u != v:
                    assert scheme.route(u, v).target == v

    def test_stretch_at_most_three(self, scheme):
        ev = scheme.evaluate()
        assert ev.max_stretch <= 3.0 + 1e-9

    def test_cluster_targets_routed_optimally(self, scheme, grid_metric):
        for u in range(0, grid_metric.n, 6):
            for v in scheme.cluster(u):
                if u != v:
                    assert scheme.route(u, v).stretch == pytest.approx(1.0)

    def test_landmark_targets_routed_optimally(self, scheme):
        for u in range(0, scheme.metric.n, 5):
            for lm in scheme.landmarks:
                if u != lm:
                    assert scheme.route(u, lm).stretch == pytest.approx(1.0)

    def test_works_on_all_families(self, any_metric, params):
        scheme = CowenLandmarkScheme(any_metric, params)
        for u in range(0, any_metric.n, 5):
            for v in range(0, any_metric.n, 3):
                if u != v:
                    result = scheme.route(u, v)
                    assert result.target == v
                    assert result.stretch <= 3.0 + 1e-9

    @given(graph=random_connected_graph(), count=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_stretch_three_on_random_graphs(self, graph, count):
        metric = GraphMetric(graph)
        scheme = CowenLandmarkScheme(
            metric,
            SchemeParameters(),
            landmark_count=min(count, metric.n),
        )
        for u in metric.nodes:
            for v in metric.nodes:
                if u != v:
                    assert scheme.route(u, v).stretch <= 3.0 + 1e-9


class TestStorage:
    def test_table_counts_landmarks_plus_cluster(self, grid_metric):
        scheme = CowenLandmarkScheme(grid_metric, SchemeParameters())
        u = 0
        expected = (
            len(scheme.landmarks) + len(scheme.cluster(u))
        ) * 2 * 6
        assert scheme.table_bits(u) == expected

    def test_more_landmarks_shrink_clusters(self, grid_metric):
        few = CowenLandmarkScheme(
            grid_metric, SchemeParameters(), landmark_count=2
        )
        many = CowenLandmarkScheme(
            grid_metric, SchemeParameters(), landmark_count=12
        )
        total_few = sum(len(few.cluster(u)) for u in grid_metric.nodes)
        total_many = sum(len(many.cluster(u)) for u in grid_metric.nodes)
        assert total_many <= total_few

    def test_label_bits_two_ids(self, grid_metric):
        scheme = CowenLandmarkScheme(grid_metric, SchemeParameters())
        assert scheme.label_bits() == 12

    def test_stretch_guarantee(self, grid_metric):
        scheme = CowenLandmarkScheme(grid_metric, SchemeParameters())
        assert scheme.stretch_guarantee() == 3.0


class TestBuildCost:
    def test_home_distances_read_once_under_a_small_row_budget(self):
        # An LRU of 8 full rows: asking d(v, L(v)) anew for every
        # cluster would search from v once per (u, v) pair.
        graph = random_geometric(128, seed=5)
        lazy = GraphMetric(
            graph.copy(), strategy="lazy", row_budget_bytes=8 * 128 * 32
        )
        scheme = CowenLandmarkScheme(lazy, SchemeParameters())
        assert lazy.substrate_stats()["bounded_searches"] <= 32 * lazy.n
        dense = CowenLandmarkScheme(
            GraphMetric(graph.copy(), strategy="dense"), SchemeParameters()
        )
        assert scheme.landmarks == dense.landmarks
        for u in lazy.nodes:
            assert scheme.cluster(u) == dense.cluster(u)
