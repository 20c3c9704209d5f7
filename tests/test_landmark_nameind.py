"""Tests for the Internet-scale landmark name-independent scheme."""

import math

import numpy as np
import pytest

from repro.core.types import PreprocessingError, RouteFailure
from repro.engine import BatchRouter
from repro.graphs.generators import (
    exponential_path,
    grid_2d,
    preferential_attachment,
    random_geometric,
)
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme


@pytest.fixture(scope="module")
def grid_scheme():
    metric = GraphMetric(grid_2d(5))
    naming = list(np.random.default_rng(3).permutation(metric.n))
    return LandmarkNameIndependentScheme(metric, naming=naming), metric


class TestConstruction:
    def test_landmark_count_defaults_to_sqrt_n(self, grid_scheme):
        scheme, metric = grid_scheme
        assert len(scheme.landmarks) == 5  # isqrt(24) + 1

    def test_homes_are_nearest_landmarks(self, grid_scheme):
        scheme, metric = grid_scheme
        for v in metric.nodes:
            home = scheme.home_landmark(v)
            assert metric.distance(v, home) == min(
                metric.distance(v, l) for l in scheme.landmarks
            )

    def test_directory_partitions_names_mod_k(self, grid_scheme):
        scheme, metric = grid_scheme
        k = len(scheme.landmarks)
        for name in range(metric.n):
            assert (
                scheme.directory_landmark(name)
                == scheme.landmarks[name % k]
            )

    def test_vicinity_is_size_bounded(self):
        metric = GraphMetric(grid_2d(6))
        scheme = LandmarkNameIndependentScheme(metric, vicinity_size=4)
        for u in metric.nodes:
            assert len(scheme.vicinity_names(u)) <= 4

    def test_bad_parameters_rejected(self):
        metric = GraphMetric(grid_2d(3))
        with pytest.raises(PreprocessingError):
            LandmarkNameIndependentScheme(metric, landmark_count=0)
        with pytest.raises(PreprocessingError):
            LandmarkNameIndependentScheme(metric, vicinity_size=100)

    def test_no_stretch_guarantee_claimed(self, grid_scheme):
        scheme, _ = grid_scheme
        assert scheme.stretch_guarantee() is None


class TestRouting:
    @pytest.mark.parametrize(
        "graph",
        [grid_2d(5), random_geometric(40, seed=2), exponential_path(12)],
        ids=["grid", "geometric", "exp-path"],
    )
    def test_every_pair_delivered_along_real_edges(self, graph):
        metric = GraphMetric(graph)
        naming = list(np.random.default_rng(9).permutation(metric.n))
        scheme = LandmarkNameIndependentScheme(metric, naming=naming)
        for u in metric.nodes:
            for v in metric.nodes:
                result = scheme.route(u, v)
                assert result.path[0] == u and result.path[-1] == v
                assert result.cost >= result.optimal - 1e-9
                for a, b in zip(result.path, result.path[1:]):
                    assert metric.graph.has_edge(a, b)

    def test_self_route_is_free(self, grid_scheme):
        scheme, metric = grid_scheme
        result = scheme.route(7, 7)
        assert result.path == [7] and result.cost == 0.0

    def test_vicinity_pairs_route_optimally(self, grid_scheme):
        # A target inside the source's vicinity is reached on the
        # shortest path — the vicinity table stores exact next hops.
        scheme, metric = grid_scheme
        for u in metric.nodes:
            for name in scheme.vicinity_names(u):
                result = scheme.route_to_name(u, name)
                assert result.cost == pytest.approx(result.optimal)

    def test_unknown_name_raises(self, grid_scheme):
        scheme, metric = grid_scheme
        with pytest.raises(RouteFailure):
            scheme.route_to_name(0, metric.n + 5)

    def test_routes_identical_across_strategies(self):
        graph = random_geometric(40, seed=2)
        results = []
        for strategy in ("dense", "lazy"):
            metric = GraphMetric(graph, strategy=strategy)
            scheme = LandmarkNameIndependentScheme(metric)
            results.append(
                [
                    (r.path, r.cost)
                    for u in range(0, metric.n, 3)
                    for v in range(0, metric.n, 3)
                    for r in [scheme.route(u, v)]
                ]
            )
        assert results[0] == results[1]

    def test_naming_permutation_does_not_change_delivery(self):
        metric = GraphMetric(grid_2d(4))
        for seed in (0, 1, 2):
            naming = list(
                np.random.default_rng(seed).permutation(metric.n)
            )
            scheme = LandmarkNameIndependentScheme(metric, naming=naming)
            for u in metric.nodes:
                for v in metric.nodes:
                    assert scheme.route(u, v).path[-1] == v


class TestAccounting:
    def test_header_bits_positive_and_bounded(self, grid_scheme):
        scheme, metric = grid_scheme
        bits = scheme.header_bits()
        unit = metric.n.bit_length()
        assert bits > 0
        # name + label + flags + one tree-depth source route.
        assert bits <= (3 + metric.n) * unit + 2

    def test_landmarks_pay_for_directory_and_tree(self, grid_scheme):
        scheme, metric = grid_scheme
        landmark_bits = min(scheme.table_bits(l) for l in scheme.landmarks)
        plain = [
            v for v in metric.nodes if v not in set(scheme.landmarks)
        ]
        assert landmark_bits > max(scheme.table_bits(v) for v in plain)

    def test_sublinear_tables_on_power_law_graph(self):
        # The point of the scheme: per-node state stays ~sqrt(n) even
        # on a non-doubling graph (hubs included).
        n = 1024
        metric = GraphMetric(
            preferential_attachment(n, m=2, seed=1), strategy="lazy"
        )
        scheme = LandmarkNameIndependentScheme(metric)
        unit = (n - 1).bit_length()
        non_landmarks = set(metric.nodes) - set(scheme.landmarks)
        worst = max(scheme.table_bits(v) for v in non_landmarks)
        assert worst <= 8 * int(n**0.5) * unit
        assert int(metric.substrate_stats()["rows_materialized"]) < n // 4


class TestLazyAcceptance:
    def test_builds_and_routes_without_dense_matrix(self):
        # ISSUE acceptance: a name-independent scheme on a power-law
        # graph, lazy substrate, rows materialized << n.
        n = 2000
        metric = GraphMetric(
            preferential_attachment(n, m=2, seed=1), strategy="lazy"
        )
        scheme = LandmarkNameIndependentScheme(metric)
        rng = np.random.default_rng(4)
        for u, v in rng.integers(0, n, size=(40, 2)):
            result = scheme.route(int(u), int(v))
            assert result.path[-1] == int(v)
        rows = int(metric.substrate_stats()["rows_materialized"])
        assert rows < n // 4, f"materialized {rows} rows at n={n}"


def _loop_tree_depth(landmark_pred: np.ndarray) -> int:
    """Reference: the per-node chain walk over every landmark tree."""
    depth_max = 0
    n = landmark_pred.shape[1]
    for row in landmark_pred:
        depth = np.zeros(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        for v in range(n):
            chain = []
            x = v
            while not seen[x] and row[x] >= 0:
                chain.append(x)
                x = int(row[x])
            base = depth[x]
            for i, node in enumerate(reversed(chain), start=1):
                depth[node] = base + i
                seen[node] = True
            seen[x] = True
        depth_max = max(depth_max, int(depth.max()))
    return depth_max


@pytest.fixture(scope="module")
def power_law_scheme():
    metric = GraphMetric(
        preferential_attachment(600, m=2, seed=1), strategy="lazy"
    )
    naming = list(np.random.default_rng(5).permutation(metric.n))
    return LandmarkNameIndependentScheme(metric, naming=naming), metric


class TestVicinityTables:
    def test_entries_match_per_pair_definition(self, power_law_scheme):
        # Built from one size-bounded search per node; checked against
        # per-pair queries on a separate metric.
        scheme, metric = power_law_scheme
        reference = GraphMetric(metric.graph.copy(), strategy="lazy")
        size = math.isqrt(metric.n - 1) + 1
        for u in metric.nodes:
            expected = sorted(
                (
                    scheme.name_of(v),
                    v,
                    scheme.home_landmark(v),
                    reference.next_hop(u, v),
                )
                for v in reference.size_ball(u, size)
                if v != u
            )
            assert scheme.vicinity_entries(u) == expected
            assert scheme.vicinity_names(u) == [e[0] for e in expected]

    @pytest.mark.parametrize(
        "graph",
        [grid_2d(6), exponential_path(20), random_geometric(60, seed=4)],
        ids=["grid", "exp-path", "geometric"],
    )
    def test_tree_depth_matches_per_node_walk(self, graph):
        scheme = LandmarkNameIndependentScheme(GraphMetric(graph))
        assert scheme._tree_depth == _loop_tree_depth(scheme._landmark_pred)

    def test_offsets_slice_each_nodes_vicinity(self, power_law_scheme):
        scheme, metric = power_law_scheme
        n = metric.n
        ptr, key = scheme._vic_ptr, scheme._vic_key
        assert ptr.shape == (n + 1,) and ptr[0] == 0 and ptr[-1] == key.size
        # Every slice holds exactly its owner's keys, in name order.
        owner = np.repeat(np.arange(n), np.diff(ptr))
        assert np.array_equal(key // n, owner)
        for u in metric.nodes:
            names = (key[ptr[u] : ptr[u + 1]] - u * n).tolist()
            assert names == scheme.vicinity_names(u)
            assert names == sorted(names)
            for name in names:
                pos = scheme._vicinity_entry(u, name)
                assert ptr[u] <= pos < ptr[u + 1] and key[pos] == u * n + name
        outside = set(range(n)) - set(scheme.vicinity_names(0))
        assert all(scheme._vicinity_entry(0, name) is None for name in outside)
        assert np.array_equal(scheme.compile_tables().arrays["VIC_PTR"], ptr)

    def test_tree_depth_matches_on_power_law(self, power_law_scheme):
        scheme, _ = power_law_scheme
        assert scheme._tree_depth == _loop_tree_depth(scheme._landmark_pred)

    def test_single_node_vicinities_are_empty(self):
        metric = GraphMetric(grid_2d(3))
        scheme = LandmarkNameIndependentScheme(metric, vicinity_size=1)
        assert all(scheme.vicinity_entries(u) == [] for u in metric.nodes)
        router = BatchRouter(scheme.compile_tables(), metric=metric)
        for u in metric.nodes:
            for v in metric.nodes:
                result = scheme.route(u, v)
                assert result.path[-1] == v
                assert router.route(u, v) == result


class TestEngineOnPowerLaw:
    """Engine = interpreter past the small fixtures (n = 600)."""

    @pytest.mark.parametrize("vicinity_size", [None, 4], ids=["default", "vic4"])
    def test_route_batch_matches_interpreter(self, power_law_scheme, vicinity_size):
        scheme, metric = power_law_scheme
        if vicinity_size is not None:
            # Tiny vicinities: most routes miss every vicinity and
            # descend home's tree (250 of the 300 pairs, up to 3 hops).
            scheme = LandmarkNameIndependentScheme(
                metric, naming=scheme._name_of, vicinity_size=vicinity_size
            )
        pairs = sample_ordered_pairs(metric.n, 300, seed=7)
        router = BatchRouter(scheme.compile_tables(), metric=metric)
        compiled = router.route_batch([u for u, _ in pairs], [v for _, v in pairs])
        descents = 0
        for (u, v), got in zip(pairs, compiled):
            want = scheme.route(u, v)
            assert got.path == want.path, (u, v)
            assert got.cost == want.cost, (u, v)
            assert got.legs == want.legs, (u, v)
            assert got.header_bits == want.header_bits
            descents += want.legs["descent"] > 0
        assert descents > 0
