"""Unit tests for the shortest-path metric substrate."""

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.core.edits import EditKind, GraphEdit, apply_edit_to_graph
from repro.core.types import PreprocessingError
from repro.graphs.generators import grid_2d, path_graph
from repro.metric.graph_metric import GraphMetric, stretch_of

from tests.conftest import FAMILY_GRAPHS


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(PreprocessingError):
            GraphMetric(nx.Graph())

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_node(2)
        with pytest.raises(PreprocessingError):
            GraphMetric(graph)

    def test_nonpositive_weight_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=0.0)
        with pytest.raises(PreprocessingError):
            GraphMetric(graph)

    def test_nodes_relabelled_consecutively(self):
        graph = nx.Graph()
        graph.add_edge("a", "c", weight=2.0)
        graph.add_edge("c", "b", weight=2.0)
        metric = GraphMetric(graph)
        assert list(metric.nodes) == [0, 1, 2]

    def test_weights_normalized_to_min_one(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=0.5)
        graph.add_edge(1, 2, weight=2.0)
        metric = GraphMetric(graph)
        assert metric.distance(0, 1) == pytest.approx(1.0)
        assert metric.distance(1, 2) == pytest.approx(4.0)

    def test_normalization_can_be_disabled(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=0.5)
        metric = GraphMetric(graph, normalize=False)
        assert metric.distance(0, 1) == pytest.approx(0.5)

    def test_singleton_graph(self):
        graph = nx.Graph()
        graph.add_node(0)
        metric = GraphMetric(graph)
        assert metric.n == 1
        assert metric.diameter == 1.0  # degenerate convention
        assert metric.log_diameter == 0


class TestOwnEdges:
    """The edge array read at construction is the metric's only record
    of its graph: editing the caller's graph afterwards changes nothing
    the metric answers or pickles."""

    @staticmethod
    def _answers(metric):
        return (
            metric.distance(0, 1),
            metric.distance(0, 35),
            metric.edge_weight(0, 1),
            metric.next_hop(0, 35),
        )

    @pytest.mark.parametrize("strategy", ["dense", "lazy"])
    def test_editing_the_graph_after_construction_changes_nothing(
        self, strategy
    ):
        graph = grid_2d(6)
        metric = GraphMetric(graph, strategy=strategy)
        before = self._answers(metric)
        assert before == (1.0, 10.0, 1.0, 6)
        graph[0][1]["weight"] = 7.0
        graph.add_edge(0, 35)
        graph.remove_edge(0, 6)
        assert self._answers(metric) == before
        # A pickle holds the metric's own edges, not the edited graph:
        # rows a lazy clone solves afresh come from them too.
        clone = pickle.loads(pickle.dumps(metric))
        assert self._answers(clone) == before
        assert clone.distance(2, 0) == 2.0  # row 2 never solved before
        assert sorted(metric.neighbors(0)) == sorted(clone.neighbors(0)) == [1, 6]
        assert np.array_equal(clone.edges, metric.edges)
        edited = GraphMetric(graph, strategy=strategy)
        assert self._answers(edited) == (7.0, 1.0, 7.0, 35)
        assert sorted(edited.neighbors(0)) == [1, 35]

    def test_edges_are_read_only(self):
        metric = GraphMetric(path_graph(4))
        edges = metric.edges
        with pytest.raises(ValueError):
            edges[0, 2] = 5.0
        with pytest.raises(ValueError):
            edges.flags.writeable = True
        assert metric.edge_weight(0, 1) == 1.0


class TestDistances:
    def test_path_distances(self):
        metric = GraphMetric(path_graph(5))
        assert metric.distance(0, 4) == pytest.approx(4.0)
        assert metric.distance(2, 2) == 0.0

    def test_symmetry(self, grid_metric):
        for u in range(0, grid_metric.n, 7):
            for v in range(0, grid_metric.n, 5):
                assert grid_metric.distance(u, v) == pytest.approx(
                    grid_metric.distance(v, u)
                )

    def test_triangle_inequality(self, grid_metric):
        nodes = list(range(0, grid_metric.n, 6))
        for u in nodes:
            for v in nodes:
                for w in nodes:
                    assert grid_metric.distance(u, v) <= (
                        grid_metric.distance(u, w)
                        + grid_metric.distance(w, v)
                        + 1e-9
                    )

    def test_diameter_matches_max(self, grid_metric):
        explicit = max(
            grid_metric.distance(u, v)
            for u in grid_metric.nodes
            for v in grid_metric.nodes
        )
        assert grid_metric.diameter == pytest.approx(explicit)

    def test_log_diameter(self):
        metric = GraphMetric(path_graph(9))  # diameter 8
        assert metric.log_diameter == 3

    def test_log_n(self):
        assert GraphMetric(path_graph(9)).log_n == 4

    def test_eccentricity(self):
        metric = GraphMetric(path_graph(5))
        assert metric.eccentricity(0) == pytest.approx(4.0)
        assert metric.eccentricity(2) == pytest.approx(2.0)


class TestBalls:
    def test_ball_contains_center(self, any_metric):
        for u in range(0, any_metric.n, 5):
            assert u in any_metric.ball(u, 0.0)

    def test_ball_membership_inclusive(self):
        metric = GraphMetric(path_graph(5))
        assert set(metric.ball(1, 1.0)) == {0, 1, 2}

    def test_ball_monotone_in_radius(self, grid_metric):
        u = 0
        small = set(grid_metric.ball(u, 2.0))
        large = set(grid_metric.ball(u, 4.0))
        assert small <= large

    def test_ball_size_agrees_with_ball(self, grid_metric):
        for r in (0.5, 1.0, 3.0, 100.0):
            assert grid_metric.ball_size(0, r) == len(grid_metric.ball(0, r))

    def test_size_ball_has_exact_size(self, any_metric):
        for size in (1, 2, any_metric.n // 2, any_metric.n):
            assert len(any_metric.size_ball(0, size)) == size

    def test_size_radius_consistent(self, grid_metric):
        for size in (1, 4, 9, grid_metric.n):
            r = grid_metric.size_radius(0, size)
            # At least `size` nodes within r; fewer within anything less.
            assert grid_metric.ball_size(0, r) >= size

    def test_size_ball_ties_broken_by_id(self):
        metric = GraphMetric(path_graph(5))
        # nodes 1 and 3 are both at distance 1 from node 2.
        assert metric.size_ball(2, 2) == [2, 1]

    def test_r_u_at_zero_is_zero(self, grid_metric):
        assert grid_metric.r_u(0, 0) == 0.0

    def test_r_u_clamped_at_top(self, grid_metric):
        top = grid_metric.log_n
        assert grid_metric.r_u(0, top + 3) == grid_metric.r_u(0, top)

    def test_size_radius_bad_size_rejected(self, grid_metric):
        with pytest.raises(ValueError):
            grid_metric.size_radius(0, 0)
        with pytest.raises(ValueError):
            grid_metric.size_radius(0, grid_metric.n + 1)

    def test_nearest_in(self):
        metric = GraphMetric(path_graph(7))
        assert metric.nearest_in(0, [3, 5, 6]) == 3

    def test_nearest_in_tie_break_by_id(self):
        metric = GraphMetric(path_graph(5))
        assert metric.nearest_in(2, [1, 3]) == 1

    def test_nearest_in_empty_rejected(self, grid_metric):
        with pytest.raises(ValueError):
            grid_metric.nearest_in(0, [])


class TestNextHops:
    def test_next_hop_is_neighbour(self, any_metric, any_family):
        graph = FAMILY_GRAPHS[any_family]()
        for u in range(0, any_metric.n, 5):
            for v in range(0, any_metric.n, 3):
                if u == v:
                    continue
                hop = any_metric.next_hop(u, v)
                assert graph.has_edge(u, hop)

    def test_next_hop_to_self(self, grid_metric):
        assert grid_metric.next_hop(3, 3) == 3

    def test_shortest_path_cost_matches_distance(self, any_metric):
        for u in range(0, any_metric.n, 4):
            for v in range(0, any_metric.n, 6):
                path = any_metric.shortest_path(u, v)
                cost = sum(
                    any_metric.edge_weight(a, b)
                    for a, b in zip(path, path[1:])
                )
                want = any_metric.distance(u, v)
                assert cost == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("factor", [1.5, 0.25])
    def test_edge_weights_match_the_graph_before_and_after_an_edit(
        self, any_metric, any_family, factor
    ):
        def check(metric, graph):
            keys, weights = metric.edge_table()
            table = dict(zip(keys.tolist(), weights.tolist()))
            assert len(table) == 2 * graph.number_of_edges()
            for u, v, data in graph.edges(data=True):
                want = float(data.get("weight", 1.0)) / metric.scale
                assert metric.edge_weight(u, v) == want
                assert metric.edge_weight(v, u) == want
                assert table[u * metric.n + v] == table[v * metric.n + u] == want

        graph = FAMILY_GRAPHS[any_family]()
        check(any_metric, graph)
        # A heavier weight keeps the scale; a lighter one may change it:
        # a cold build after either must read the edited weights.
        u, v, data = next(iter(graph.edges(data=True)))
        weight = float(data.get("weight", 1.0)) * factor
        edit = GraphEdit(EditKind.WEIGHT, edge=(u, v), weight=weight)
        apply_edit_to_graph(graph, edit)
        edited = GraphMetric(graph, strategy=any_metric.strategy)
        check(edited, graph)
        assert edited.edge_weight(u, v) == weight / edited.scale

    def test_paths_from_one_source_form_tree(self, grid_metric):
        # Consistency: next hops toward a fixed target never cycle.
        target = grid_metric.n - 1
        for u in grid_metric.nodes:
            seen = {u}
            current = u
            while current != target:
                current = grid_metric.next_hop(current, target)
                assert current not in seen
                seen.add(current)


class TestStretchOf:
    def test_direct_path(self, grid_metric):
        cost, optimal = stretch_of(grid_metric, [0, grid_metric.n - 1])
        assert cost == pytest.approx(optimal)

    def test_detour_costs_more(self, grid_metric):
        far = grid_metric.n - 1
        cost, optimal = stretch_of(grid_metric, [0, far, 0, far])
        assert cost == pytest.approx(3 * optimal)

    def test_empty_rejected(self, grid_metric):
        with pytest.raises(ValueError):
            stretch_of(grid_metric, [])
