"""Tests for search trees (Def. 3.2 / 4.2, Algorithms 1-2)."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.params import SchemeParameters
from repro.core.types import PreprocessingError
from repro.graphs.generators import exponential_path, grid_2d, random_geometric
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.searchtree.tree import SearchTree

from tests.test_rnet import random_connected_graph

EPS = 0.5


def _stored_tree(metric, center=0, radius=None, epsilon=EPS, **kwargs):
    if radius is None:
        radius = metric.diameter
    tree = SearchTree(metric, center, radius, epsilon, **kwargs)
    tree.store({v: v * 10 for v in tree.nodes})
    return tree


class TestStructure:
    def test_nodes_are_ball_members(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 3.0, EPS)
        assert tree.nodes == sorted(grid_metric.ball(0, 3.0))

    def test_explicit_members(self, grid_metric):
        members = [0, 1, 6, 7]
        tree = SearchTree(grid_metric, 0, 5.0, EPS, members=members)
        assert tree.nodes == members

    def test_center_must_be_member(self, grid_metric):
        with pytest.raises(PreprocessingError):
            SearchTree(grid_metric, 0, 5.0, EPS, members=[1, 2])

    def test_negative_radius_rejected(self, grid_metric):
        with pytest.raises(PreprocessingError):
            SearchTree(grid_metric, 0, -1.0, EPS)

    def test_root_is_center(self, grid_metric):
        assert SearchTree(grid_metric, 7, 4.0, EPS).root == 7

    def test_every_node_connected_to_root(self, any_metric):
        tree = SearchTree(any_metric, 0, any_metric.diameter, EPS)
        for v in tree.nodes:
            steps = 0
            current = v
            while current != tree.root:
                current = tree.parent_of(current)
                steps += 1
                assert steps <= tree.size

    def test_parent_child_consistent(self, grid_metric):
        tree = SearchTree(grid_metric, 0, grid_metric.diameter, EPS)
        for v in tree.nodes:
            for child in tree.children_of(v):
                assert tree.parent_of(child) == v

    def test_height_bound_eqn_3(self, any_metric):
        """Paper Eqn. 3: height <= (1+eps) r."""
        radius = any_metric.diameter / 2.0
        tree = SearchTree(any_metric, 0, radius, EPS)
        assert tree.height() <= (1 + EPS) * radius + 1e-6

    def test_degenerate_radius_flat_tree(self, grid_metric):
        # eps*r < 2: all ball members hang off the root directly.
        tree = SearchTree(grid_metric, 0, 2.0, EPS)
        for v in tree.nodes:
            if v != 0:
                assert tree.parent_of(v) == 0

    def test_singleton_ball(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 0.0, EPS)
        assert tree.nodes == [0]
        tree.store({99: "x"})
        assert tree.search(99).found


class TestStoreAndSearch:
    def test_search_before_store_rejected(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 3.0, EPS)
        with pytest.raises(PreprocessingError):
            tree.search(0)

    def test_all_keys_retrievable(self, any_metric):
        tree = _stored_tree(any_metric)
        for v in tree.nodes:
            outcome = tree.search(v)
            assert outcome.found
            assert outcome.data == v * 10

    def test_missing_key_not_found(self, grid_metric):
        tree = _stored_tree(grid_metric)
        outcome = tree.search(10**9)
        assert not outcome.found
        assert outcome.data is None

    def test_trail_round_trip(self, grid_metric):
        tree = _stored_tree(grid_metric)
        for key in (0, 17, 35):
            trail = tree.search(key).trail
            assert trail[0] == tree.root
            assert trail[-1] == tree.root

    def test_search_cost_bounded(self, any_metric):
        """Algorithm 2 costs at most 2 x height <= 2(1+eps) r."""
        radius = any_metric.diameter
        tree = _stored_tree(any_metric, radius=radius)
        for v in tree.nodes:
            assert tree.search(v).cost <= 2 * (1 + EPS) * radius + 1e-6

    def test_string_keys(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 3.0, EPS)
        pairs = {f"name-{v:03d}": v for v in tree.nodes}
        tree.store(pairs)
        for key, v in pairs.items():
            assert tree.search(key).data == v

    def test_more_pairs_than_nodes(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 2.0, EPS)
        pairs = {k: -k for k in range(4 * tree.size)}
        tree.store(pairs)
        for k in pairs:
            assert tree.search(k).data == -k

    def test_fewer_pairs_than_nodes(self, grid_metric):
        tree = SearchTree(grid_metric, 0, grid_metric.diameter, EPS)
        tree.store({1: "one", 2: "two"})
        assert tree.search(1).data == "one"
        assert tree.search(2).data == "two"
        assert not tree.search(3).found

    def test_pairs_distributed_evenly(self, grid_metric):
        """Algorithm 1: each node holds at most ceil(k/m) pairs."""
        tree = SearchTree(grid_metric, 0, grid_metric.diameter, EPS)
        pairs = {k: k for k in range(100, 100 + 2 * tree.size)}
        tree.store(pairs)
        cap = math.ceil(len(pairs) / tree.size)
        for v in tree.nodes:
            assert len(tree.pairs_at(v)) <= cap

    def test_restore_replaces(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 3.0, EPS)
        tree.store({1: "a"})
        tree.store({2: "b"})
        assert not tree.search(1).found
        assert tree.search(2).data == "b"


class TestCappedVariant:
    def test_chains_created_when_capped(self, exponential_metric):
        radius = exponential_metric.diameter
        capped = SearchTree(
            exponential_metric, 0, radius, EPS,
            level_cap=exponential_metric.log_n,
        )
        # eps * r >> n here, so Definition 4.2 (ii) chains must appear.
        assert capped.chain_edge_count > 0

    def test_capped_tree_still_retrieves(self, exponential_metric):
        tree = _stored_tree(
            exponential_metric,
            radius=exponential_metric.diameter,
            level_cap=exponential_metric.log_n,
        )
        for v in tree.nodes:
            assert tree.search(v).data == v * 10

    def test_capped_height_bound(self, exponential_metric):
        """Def 4.2 remark: height <= (1+O(eps)) r."""
        radius = exponential_metric.diameter
        tree = SearchTree(
            exponential_metric, 0, radius, EPS,
            level_cap=exponential_metric.log_n,
        )
        assert tree.height() <= (1 + 3 * EPS) * radius + 1e-6

    def test_no_chains_when_cap_not_binding(self, grid_metric):
        tree = SearchTree(
            grid_metric, 0, grid_metric.diameter, EPS, level_cap=100
        )
        assert tree.chain_edge_count == 0


class TestStorageBits:
    def test_bits_cover_all_nodes(self, grid_metric):
        tree = _stored_tree(grid_metric)
        bits = tree.storage_bits(6, 6)
        assert set(bits) == set(tree.nodes)

    def test_bits_before_store_rejected(self, grid_metric):
        tree = SearchTree(grid_metric, 0, 3.0, EPS)
        with pytest.raises(PreprocessingError):
            tree.storage_bits(6, 6)

    def test_bits_positive_and_bounded(self, grid_metric):
        tree = _stored_tree(grid_metric)
        bits = tree.storage_bits(6, 6)
        degree = tree.max_degree()
        upper = (degree + 1) * 6 + (degree + 1) * 12 + 4 * tree.size * 12
        for v, b in bits.items():
            assert 0 < b <= upper


class TestSearchTreeProperties:
    @given(graph=random_connected_graph())
    @settings(max_examples=25, deadline=None)
    def test_store_retrieve_roundtrip(self, graph):
        metric = GraphMetric(graph)
        tree = SearchTree(metric, 0, metric.diameter, EPS)
        pairs = {v * 3 + 1: str(v) for v in tree.nodes}
        tree.store(pairs)
        for key, value in pairs.items():
            outcome = tree.search(key)
            assert outcome.found and outcome.data == value
        assert not tree.search(-5).found

    @given(
        graph=random_connected_graph(),
        cap=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_capped_roundtrip(self, graph, cap):
        metric = GraphMetric(graph)
        tree = SearchTree(metric, 0, metric.diameter, EPS, level_cap=cap)
        assert sorted(tree.nodes) == sorted(metric.nodes)
        pairs = {v: v for v in tree.nodes}
        tree.store(pairs)
        for v in tree.nodes:
            assert tree.search(v).data == v


# ----------------------------------------------------------------------
# Brute-force reference: Definitions 3.2 / 4.2 and Algorithms 1-2,
# stated independently of the slot-forest representation.
# ----------------------------------------------------------------------


def _all_pairs(graph, scale):
    """Row v of one scipy all-pairs matrix of ``graph`` (weights divided
    by ``scale``): v's own distances."""
    adjacency = nx.to_scipy_sparse_array(
        graph, nodelist=range(len(graph)), weight="weight", format="csr"
    )
    return dijkstra(adjacency / scale, directed=True)


def _ref_nearest(rows, v, candidates, tol=0.0):
    """Least-id candidate within ``tol`` of v's nearest, on row v."""
    best = min(rows[v, c] for c in candidates)
    return min(c for c in candidates if rows[v, c] <= best + tol)


def _ref_ball(rows, c, radius):
    return [v for v in range(rows.shape[0]) if rows[c, v] <= radius + DISTANCE_SLACK]


def _ref_size_ball(rows, c, size):
    return sorted(range(rows.shape[0]), key=lambda v: (rows[c, v], v))[:size]


def _ref_net(rows, r, universe):
    """Greedy r-net of ``universe`` in id order (Definition 2.1)."""
    net = []
    for v in sorted(universe):
        if all(rows[v, p] >= r - DISTANCE_SLACK for p in net):
            net.append(v)
    return net


class _RefTree:
    """Definition 3.2 (4.2 with ``level_cap``) holding explicit chunks."""

    def __init__(self, rows, center, radius, epsilon, members, level_cap=None):
        members = sorted(set(members))
        scaled = epsilon * radius
        full = int(math.floor(math.log2(scaled))) if scaled >= 2 else 0
        levels = full if level_cap is None else min(full, level_cap)
        parent = {}
        remaining = [v for v in members if v != center]
        previous = [center]
        for i in range(1, levels + 1):
            tier = _ref_net(rows, 2.0 ** (full - i), remaining)
            for v in tier:
                parent[v] = _ref_nearest(rows, v, previous)
            remaining = [v for v in remaining if v not in tier]
            previous = tier
            if not remaining:
                break
        if remaining and levels == full:
            for v in remaining:
                parent[v] = _ref_nearest(rows, v, previous)
        elif remaining:
            tail = {}
            for v in remaining:
                site = _ref_nearest(rows, v, previous)
                parent[v] = tail.get(site, site)
                tail[site] = v
        self.root = center
        self.members = members
        self.parent = parent
        # Children join tier by tier in id order; a chain node has one.
        self.children = {
            v: sorted(c for c, p in parent.items() if p == v) for v in members
        }

    def store(self, pairs):
        """Algorithm 1: chunks of ⌈k/m⌉ sorted pairs in DFS visit order."""
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        keys = sorted(pairs)
        chunk = max(1, math.ceil(len(keys) / len(order)))
        self.held = {
            v: {k: pairs[k] for k in keys[p * chunk : (p + 1) * chunk]}
            for p, v in enumerate(order)
        }
        self.range = {}
        for v in reversed(order):
            below = list(self.held[v]) + [
                bound for c in self.children[v] for bound in self.range.get(c, ())
            ]
            if below:
                self.range[v] = (min(below), max(below))

    def search(self, key):
        """Algorithm 2: descend by child range, then return to the root."""
        trail, u = [self.root], self.root
        while True:
            for c in self.children[u]:
                bounds = self.range.get(c)
                if bounds is not None and bounds[0] <= key <= bounds[1]:
                    u = c
                    trail.append(u)
                    break
            else:
                break
        found = key in self.held[u]
        return found, self.held[u].get(key), trail + trail[-2::-1]


def _assert_matches_reference(tree, ref, pairs, absent):
    assert tree.root == ref.root
    assert tree.nodes == ref.members
    for v in ref.members:
        assert tree.parent_of(v) == ref.parent.get(v)
        assert tree.children_of(v) == ref.children[v]
        assert tree.pairs_at(v) == ref.held[v]
    for key in sorted(pairs) + absent:
        outcome = tree.search(key)
        found, data, trail = ref.search(key)
        assert (outcome.found, outcome.data, outcome.trail) == (found, data, trail)


def _absent(keys, n):
    gaps = [k for k in range(n) if k not in keys][:3]
    return [-1] + gaps + [n + g for g in range(1, 5 - len(gaps))]


REFERENCE_GRAPHS = {
    "grid": (lambda: grid_2d(8), "auto"),
    "geometric-lazy": (lambda: random_geometric(128, seed=11), "lazy"),
    "exponential": (lambda: exponential_path(12), "auto"),
}


@pytest.fixture(scope="module", params=sorted(REFERENCE_GRAPHS))
def reference_case(request):
    make_graph, strategy = REFERENCE_GRAPHS[request.param]
    graph = make_graph()
    metric = GraphMetric(graph, strategy=strategy)
    params = SchemeParameters(epsilon=EPS)
    simple = SimpleNameIndependentScheme(metric, params)
    scale_free = ScaleFreeNameIndependentScheme(metric, params)
    rows = _all_pairs(graph, metric.scale)
    return request.param, metric, rows, simple, scale_free


class TestReference:
    """Every tree of Theorems 1.4, 1.1 and 1.2 equals the brute force."""

    def test_theorem_1_4_trees(self, reference_case):
        _, metric, rows, scheme, _ = reference_case
        label = scheme.underlying.routing_label
        for i in scheme.hierarchy.levels:
            radius = (2.0**i) / EPS
            for x in scheme.hierarchy.net(i):
                ref = _RefTree(rows, x, radius, EPS, _ref_ball(rows, x, radius))
                pairs = {scheme.name_of(v): label(v) for v in ref.members}
                ref.store(pairs)
                _assert_matches_reference(
                    scheme.search_tree(x, i), ref, pairs, _absent(pairs, metric.n)
                )

    def test_theorem_1_1_trees(self, reference_case):
        _, metric, rows, _, scheme = reference_case
        label = scheme.underlying.routing_label
        for (i, u), tree in scheme._own_trees.items():
            radius = (2.0**i) / EPS
            ref = _RefTree(rows, u, radius, EPS, _ref_ball(rows, u, radius))
            pairs = {scheme.name_of(v): label(v) for v in ref.members}
            ref.store(pairs)
            _assert_matches_reference(tree, ref, pairs, _absent(pairs, metric.n))
        for (j, c), tree in scheme._packed_trees.items():
            members = _ref_size_ball(rows, c, min(metric.n, 1 << j))
            radius = rows[c, members[-1]]
            ref = _RefTree(rows, c, radius, EPS, members)
            extended = _ref_size_ball(rows, c, min(metric.n, 1 << (j + 2)))
            pairs = {scheme.name_of(v): label(v) for v in extended}
            ref.store(pairs)
            _assert_matches_reference(tree, ref, pairs, _absent(pairs, metric.n))

    def test_theorem_1_2_searchers(self, reference_case):
        name, metric, rows, _, scale_free = reference_case
        scheme = scale_free.underlying
        chains = 0
        for j, searchers in enumerate(scheme._searchers):
            for c, tree in searchers.items():
                members = _ref_size_ball(rows, c, min(metric.n, 1 << j))
                radius = rows[c, members[-1]]
                ref = _RefTree(rows, c, radius, EPS, members, metric.log_n)
                router = scheme._routers[j][c]
                bigger = set(_ref_size_ball(rows, c, min(metric.n, 1 << (j + 1))))
                pairs = {
                    scheme.routing_label(v): router.label(v)
                    for v in router.tree.nodes
                    if v in bigger
                }
                ref.store(pairs)
                _assert_matches_reference(tree, ref, pairs, _absent(pairs, metric.n))
                chains += tree.chain_edge_count
        if name == "exponential":
            assert chains > 0  # Definition 4.2 (ii) chains are exercised


NEAREST_GRAPHS = {
    "grid": lambda: grid_2d(8),
    "geometric": lambda: random_geometric(128, seed=11),
}


@pytest.mark.parametrize("family", sorted(NEAREST_GRAPHS))
@pytest.mark.parametrize("strategy", ["dense", "lazy"])
@pytest.mark.parametrize("tol", [0.0, DISTANCE_SLACK])
@pytest.mark.parametrize("hint", [None, 0.25, 64.0])
def test_nearest_many_matches_per_source_brute_force(family, strategy, tol, hint):
    """One call answers every source from its own row, ties by least id,
    whatever the first reach (0.25 covers no candidate)."""
    graph = NEAREST_GRAPHS[family]()
    metric = GraphMetric(graph, strategy=strategy)
    rows = _all_pairs(graph, metric.scale)
    candidates = list(range(3, metric.n, 7))
    sources = list(metric.nodes)
    found = metric.nearest_many(sources, candidates, tol=tol, hint=hint)
    assert found.tolist() == [
        _ref_nearest(rows, v, candidates, tol) for v in sources
    ]
    assert metric.nearest_among(5, candidates, tol=tol, hint=hint) == found[5]
