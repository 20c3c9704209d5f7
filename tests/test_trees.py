"""Tests for Voronoi partitions, shortest-path trees, and tree routing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import RouteFailure
from repro.graphs.generators import path_graph, star_graph
from repro.metric.graph_metric import GraphMetric
from repro.trees.spt import ShortestPathTree, voronoi_partition
from repro.trees.tree_router import TreeRouter

from tests.conftest import FAMILY_GRAPHS
from tests.test_rnet import random_connected_graph


class TestVoronoiPartition:
    def test_is_a_partition(self, grid_metric):
        cells = voronoi_partition(grid_metric, [0, 17, 35])
        seen = sorted(v for cell in cells.values() for v in cell)
        assert seen == list(grid_metric.nodes)

    def test_centers_in_own_cells(self, grid_metric):
        cells = voronoi_partition(grid_metric, [0, 17, 35])
        for c, cell in cells.items():
            assert c in cell

    def test_assignment_is_nearest(self, grid_metric):
        centers = [0, 17, 35]
        cells = voronoi_partition(grid_metric, centers)
        for c, cell in cells.items():
            for v in cell:
                best = min(grid_metric.distance(v, x) for x in centers)
                assert grid_metric.distance(v, c) == pytest.approx(best)

    def test_tie_break_least_id(self):
        metric = GraphMetric(path_graph(5))
        cells = voronoi_partition(metric, [0, 4])
        assert 2 in cells[0]  # equidistant, goes to the smaller id

    def test_single_center_takes_all(self, grid_metric):
        cells = voronoi_partition(grid_metric, [3])
        assert sorted(cells[3]) == list(grid_metric.nodes)

    def test_empty_centers_rejected(self, grid_metric):
        with pytest.raises(ValueError):
            voronoi_partition(grid_metric, [])

    @pytest.mark.parametrize("strategy", ["dense", "lazy"])
    @pytest.mark.parametrize("family", ["grid", "holes", "geometric"])
    def test_cells_equal_brute_force(self, request, family, strategy):
        # The reference reads d(v, c) off v's own full row; a lazy
        # metric answers each node from its bounded nearest_in search.
        reference = request.getfixturevalue(f"{family}_metric")
        metric = GraphMetric(FAMILY_GRAPHS[family](), strategy=strategy)
        rng = random.Random(family)
        for k in (1, 2, 5, reference.n // 4):
            centers = rng.sample(list(reference.nodes), k)
            expected = {c: [] for c in centers}
            for v in reference.nodes:
                best = min(centers, key=lambda c: (reference.distance(v, c), c))
                expected[best].append(v)
            assert voronoi_partition(metric, centers) == expected


class TestShortestPathTree:
    def test_spans_members(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, [5, 11, 30])
        for v in (0, 5, 11, 30):
            assert tree.contains(v)

    def test_depth_equals_metric_distance(self, any_metric):
        members = list(range(0, any_metric.n, 3))
        tree = ShortestPathTree(any_metric, 0, members)
        assert tree.verify_shortest()

    def test_tree_edges_are_graph_edges(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, list(grid_metric.nodes))
        for v in tree.nodes:
            if v != tree.root:
                assert tree.parent_of(v) in grid_metric.neighbors(v)

    def test_tree_path_endpoints(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, list(grid_metric.nodes))
        path = tree.tree_path(7, 29)
        assert path[0] == 7 and path[-1] == 29

    def test_tree_distance_symmetric(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, list(grid_metric.nodes))
        assert tree.tree_distance(3, 20) == pytest.approx(
            tree.tree_distance(20, 3)
        )

    def test_root_path_trivial(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, list(grid_metric.nodes))
        assert tree.tree_path(0, 0) == [0]

    def test_children_sorted(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, list(grid_metric.nodes))
        for v in tree.nodes:
            kids = tree.children_of(v)
            assert kids == sorted(kids)


class TestTreeRouter:
    def _full_router(self, metric, root=0):
        tree = ShortestPathTree(metric, root, list(metric.nodes))
        return TreeRouter(tree)

    def test_labels_are_a_permutation(self, grid_metric):
        router = self._full_router(grid_metric)
        labels = sorted(router.label(v) for v in grid_metric.nodes)
        assert labels == list(range(grid_metric.n))

    def test_root_label_zero(self, grid_metric):
        router = self._full_router(grid_metric, root=9)
        assert router.label(9) == 0

    def test_route_reaches_target(self, any_metric):
        router = self._full_router(any_metric)
        for u in range(0, any_metric.n, 4):
            for v in range(0, any_metric.n, 5):
                path = router.route(u, router.label(v))
                assert path[0] == u and path[-1] == v

    def test_route_cost_is_tree_distance(self, grid_metric):
        router = self._full_router(grid_metric)
        tree = router.tree
        for u, v in [(0, 35), (7, 8), (12, 12), (30, 1)]:
            cost = router.route_cost(u, router.label(v))
            assert cost == pytest.approx(tree.tree_distance(u, v))

    def test_next_hop_uses_local_state_only(self, grid_metric):
        # next_hop must return either the parent or a child of v.
        router = self._full_router(grid_metric)
        tree = router.tree
        for v in tree.nodes:
            for target in (0, grid_metric.n - 1):
                hop = router.next_hop(v, router.label(target))
                if hop == v:
                    continue
                neighbours = set(tree.children_of(v))
                if v != tree.root:
                    neighbours.add(tree.parent_of(v))
                assert hop in neighbours

    def test_verify_optimal_small(self):
        metric = GraphMetric(path_graph(9))
        router = TreeRouter(
            ShortestPathTree(metric, 4, list(metric.nodes))
        )
        assert router.verify_optimal()

    def test_star_routing(self):
        metric = GraphMetric(star_graph(12))
        router = TreeRouter(
            ShortestPathTree(metric, 0, list(metric.nodes))
        )
        assert router.verify_optimal()

    def test_label_of_nonmember_rejected(self, grid_metric):
        tree = ShortestPathTree(grid_metric, 0, [0, 1])
        router = TreeRouter(tree)
        with pytest.raises(KeyError):
            router.label(grid_metric.n - 1)

    def test_bad_label_rejected(self, grid_metric):
        router = self._full_router(grid_metric)
        with pytest.raises(RouteFailure):
            router.next_hop(0, grid_metric.n + 5)

    def test_storage_bits_positive(self, grid_metric):
        router = self._full_router(grid_metric)
        for v in router.tree.nodes:
            assert router.storage_bits(v) > 0

    def test_storage_scales_with_degree(self, grid_metric):
        router = self._full_router(grid_metric)
        tree = router.tree
        leaf = next(
            v for v in tree.nodes if not tree.children_of(v)
        )
        busy = max(tree.nodes, key=lambda v: len(tree.children_of(v)))
        assert router.storage_bits(leaf) < router.storage_bits(busy)

    @given(graph=random_connected_graph(), root=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_routing_optimal_on_random_graphs(self, graph, root):
        metric = GraphMetric(graph)
        root = root % metric.n
        tree = ShortestPathTree(metric, root, list(metric.nodes))
        router = TreeRouter(tree)
        for u in metric.nodes:
            for v in metric.nodes:
                cost = router.route_cost(u, router.label(v))
                assert cost == pytest.approx(
                    tree.tree_distance(u, v), rel=1e-9, abs=1e-9
                )
