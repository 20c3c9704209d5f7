"""Substrate property suite: lazy must equal dense, bitwise.

``GraphMetric`` sits on one row store (``repro.metric.substrate``),
filled up front ("dense") or on demand ("lazy"); the contract is that
every query answers *byte-identically* on both — distances, balls,
size-radii, next hops, digests, and the churn dirty-set machinery.
These tests hold that contract on every fixture family and across the
n = 512 switch, hold both fillings to an independent scipy oracle, and
exercise the lazy-only surfaces (row-store budget/eviction, partial-row
reuse, copy-on-write mutation, the iFUB diameter's exactness and row
count, pickling of materialized rows).
"""

from __future__ import annotations

import math
import pickle
import random

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.chaos.audit import CorruptionInjector
from repro.core.edits import EditKind, GraphEdit, apply_edit_to_graph
from repro.core.types import RouteFailure
from repro.graphs.generators import (
    exponential_path,
    grid_2d,
    grid_with_holes,
    preferential_attachment,
    random_geometric,
    uniform_random_weights,
)
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.metric.substrate import (
    DENSE_NODE_LIMIT,
    RowStore,
    _Row,
)
from repro.packing.ballpacking import BallPacking

FAMILIES = {
    "grid": lambda: grid_2d(6),
    "holes": lambda: grid_with_holes(7, hole_fraction=0.25, seed=3),
    "geometric": lambda: random_geometric(48, seed=2),
    "exponential": lambda: exponential_path(14),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def metric_pair(request):
    graph = FAMILIES[request.param]()
    dense = GraphMetric(graph, strategy="dense")
    lazy = GraphMetric(graph.copy(), strategy="lazy")
    return dense, lazy


# ----------------------------------------------------------------------
# Query-surface bit-identity
# ----------------------------------------------------------------------


def test_strategy_resolution():
    grid = grid_2d(4)
    assert GraphMetric(grid).strategy == "dense"  # auto, small n
    assert GraphMetric(grid, strategy="lazy").strategy == "lazy"
    assert 16 <= DENSE_NODE_LIMIT  # auto keeps every fixture dense
    from repro.core.types import PreprocessingError

    with pytest.raises(PreprocessingError):
        GraphMetric(grid, strategy="bogus")


def test_distances_rows_and_eccentricity_match(metric_pair):
    dense, lazy = metric_pair
    for u in dense.nodes:
        assert np.array_equal(dense.distances_from(u), lazy.distances_from(u))
        assert np.array_equal(
            dense.predecessors_from(u), lazy.predecessors_from(u)
        )
        assert dense.eccentricity(u) == lazy.eccentricity(u)
    rng = random.Random(7)
    for _ in range(200):
        u = rng.randrange(dense.n)
        v = rng.randrange(dense.n)
        assert dense.distance(u, v) == lazy.distance(u, v)


def test_balls_match(metric_pair):
    dense, lazy = metric_pair
    rng = random.Random(11)
    radii = [0.0, 1.0, dense.diameter / 3.0, dense.diameter, 2 * dense.diameter]
    radii += [rng.uniform(0, dense.diameter) for _ in range(5)]
    for u in dense.nodes:
        for r in radii:
            assert dense.ball(u, r) == lazy.ball(u, r)
            assert dense.ball_size(u, r) == lazy.ball_size(u, r)
            assert dense.ball_set(u, r) == lazy.ball_set(u, r)
        ids_d, dist_d = dense.ball_with_distances(u, radii[2])
        ids_l, dist_l = lazy.ball_with_distances(u, radii[2])
        assert np.array_equal(ids_d, ids_l)
        assert np.array_equal(dist_d, dist_l)


def test_size_radii_match(metric_pair):
    dense, lazy = metric_pair
    for u in dense.nodes:
        for size in range(1, dense.n + 1):
            assert dense.size_radius(u, size) == lazy.size_radius(u, size)
            assert dense.size_ball(u, size) == lazy.size_ball(u, size)
        for j in range(dense.log_n + 1):
            assert dense.r_u(u, j) == lazy.r_u(u, j)
        r, members = lazy.size_ball_with_radius(u, max(1, dense.n // 2))
        assert r == dense.size_radius(u, max(1, dense.n // 2))
        assert members == dense.size_ball(u, max(1, dense.n // 2))
    for bad in (0, dense.n + 1):
        with pytest.raises(ValueError):
            lazy.size_radius(0, bad)
        with pytest.raises(ValueError):
            lazy.size_ball(0, bad)


def test_nearest_and_max_distance_match(metric_pair):
    dense, lazy = metric_pair
    rng = random.Random(13)
    for _ in range(60):
        u = rng.randrange(dense.n)
        k = rng.randrange(1, dense.n)
        cands = rng.sample(range(dense.n), k)
        assert dense.nearest_in(u, cands) == lazy.nearest_in(u, cands)
        for tol in (0.0, DISTANCE_SLACK, 1.0):
            # A wrong hint must never change the answer, only the work.
            hint = rng.choice([None, 0.5, dense.diameter])
            assert dense.nearest_among(u, cands, tol=tol) == lazy.nearest_among(
                u, cands, tol=tol, hint=hint
            )
        assert dense.max_distance_to(u, cands) == lazy.max_distance_to(
            u, cands, hint=rng.choice([None, 1.0])
        )
    with pytest.raises(ValueError):
        lazy.nearest_in(0, [])


def test_next_hops_and_paths_match(metric_pair):
    dense, lazy = metric_pair
    for u in dense.nodes:
        for v in dense.nodes:
            assert dense.next_hop(u, v) == lazy.next_hop(u, v)
    rng = random.Random(17)
    for _ in range(40):
        u = rng.randrange(dense.n)
        v = rng.randrange(dense.n)
        assert dense.shortest_path(u, v) == lazy.shortest_path(u, v)


# ----------------------------------------------------------------------
# Vectorized first hops and the directed search
# ----------------------------------------------------------------------

#: The fixtures plus random-weight and tie-heavy graphs for the
#: first-hop and directed-search references.
HOP_FAMILIES = {
    **FAMILIES,
    "weighted-grid": lambda: uniform_random_weights(grid_2d(7), seed=5),
    "weighted-geometric": lambda: uniform_random_weights(
        random_geometric(40, seed=4), seed=6
    ),
    "tie-grid": lambda: grid_2d(9, 4),
    "power-law": lambda: preferential_attachment(60, m=2, seed=3),
}


def _chain_walk_hops(pred: np.ndarray, source: int) -> list:
    """Reference first hops: walk each predecessor chain toward source."""
    hops = []
    for v in range(pred.shape[0]):
        node = v
        while node != source and int(pred[node]) != source:
            node = int(pred[node])
        hops.append(node)
    return hops


def test_next_hops_from_equals_chain_walk(metric_pair):
    for metric in metric_pair:
        for u in metric.nodes:
            expected = _chain_walk_hops(metric.predecessors_from(u), u)
            assert metric.next_hops_from(u).tolist() == expected


@pytest.mark.parametrize("family", sorted(HOP_FAMILIES))
def test_next_hop_on_partial_rows_equals_chain_walk(family):
    graph = HOP_FAMILIES[family]()
    reference = GraphMetric(graph, strategy="dense")
    lazy = GraphMetric(graph.copy(), strategy="lazy")
    near = math.isqrt(lazy.n - 1) + 1
    expected = {
        u: _chain_walk_hops(reference.predecessors_from(u), u)
        for u in reference.nodes
    }
    # Near targets first: most of these are answered from partial rows.
    for u in lazy.nodes:
        for v in reference.size_ball(u, near):
            assert lazy.next_hop(u, v) == expected[u][v]
    assert lazy.substrate_stats()["rows_materialized"] < lazy.n // 2
    for u in lazy.nodes:
        for v in lazy.nodes:
            assert lazy.next_hop(u, v) == expected[u][v]


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
@pytest.mark.parametrize("family", sorted(HOP_FAMILIES))
def test_size_ball_with_hops_matches_per_member_queries(family, strategy):
    graph = HOP_FAMILIES[family]()
    metric = GraphMetric(graph, strategy=strategy)
    reference = GraphMetric(graph.copy(), strategy="dense")
    n = metric.n
    for size in sorted({1, math.isqrt(n - 1) + 1, n // 2, n}):
        for u in metric.nodes:
            ids, dists, hops = metric.size_ball_with_hops(u, size)
            members = reference.size_ball(u, size)
            assert ids.tolist() == members
            assert dists.tolist() == [reference.distance(u, v) for v in members]
            assert hops.tolist() == [reference.next_hop(u, v) for v in members]
    with pytest.raises(ValueError):
        metric.size_ball_with_hops(0, 0)


@pytest.mark.parametrize("family", sorted(HOP_FAMILIES))
def test_directed_search_on_symmetric_csr_matches_undirected(family):
    # _csr() stores both directions of every edge, so the directed
    # search relaxes exactly the edges the undirected one does, in the
    # same order, without scipy's per-call transpose.
    matrix = GraphMetric(HOP_FAMILIES[family](), strategy="lazy")._csr()
    for limit in (np.inf, 3.0, 7.5):
        undirected = dijkstra(
            matrix, directed=False, return_predecessors=True, limit=limit
        )
        directed = dijkstra(
            matrix, directed=True, return_predecessors=True, limit=limit
        )
        assert np.array_equal(undirected[0], directed[0])
        assert np.array_equal(undirected[1], directed[1])


def test_digests_diameter_and_scalars_match(metric_pair):
    dense, lazy = metric_pair
    assert dense.diameter == lazy.diameter
    assert dense.log_diameter == lazy.log_diameter
    assert dense.log_n == lazy.log_n
    assert dense.scale == lazy.scale
    for u in dense.nodes:
        assert dense.row_digest(u) == lazy.row_digest(u)


def test_lazy_stats_track_materialization(metric_pair):
    dense, lazy = metric_pair
    stats = lazy.substrate_stats()
    assert stats["strategy"] == "lazy"
    assert 0 < stats["rows_materialized"] <= dense.n
    assert stats["stored_bytes"] > 0
    dense_stats = dense.substrate_stats()
    assert dense_stats["strategy"] == "dense"
    assert dense_stats["rows_materialized"] == dense.n


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_store_matches_independent_oracle(family, strategy):
    # "dense" and "lazy" are two fillings of one row store, so their
    # agreement alone proves little; hold both to answers computed here
    # from one all-pairs scipy call.
    metric = GraphMetric(FAMILIES[family](), strategy=strategy)
    dist, pred = dijkstra(metric._csr(), directed=True, return_predecessors=True)
    n = metric.n
    ids = np.arange(n)
    rng = random.Random(3)
    for u in metric.nodes:
        order = np.lexsort((ids, dist[u]))
        ranked = dist[u][order]
        # Bounded queries first, so the lazy filling answers them from
        # partial rows before anything materializes u's full row.
        for r in (0.0, 1.0, rng.uniform(0.0, ranked[-1]), ranked[n // 2]):
            assert metric.ball(u, r) == order[ranked <= r + DISTANCE_SLACK].tolist()
        for size in range(1, n + 1):
            assert metric.size_radius(u, size) == ranked[size - 1]
            assert metric.size_ball(u, size) == order[:size].tolist()
        cands = rng.sample(range(n), rng.randrange(1, n))
        assert metric.nearest_in(u, cands) == min(
            cands, key=lambda c: (dist[u, c], c)
        )
        assert [metric.distance(u, v) for v in metric.nodes] == dist[u].tolist()
        assert np.array_equal(metric.distances_from(u), dist[u])
        assert np.array_equal(metric.predecessors_from(u), pred[u])
        assert metric.next_hops_from(u).tolist() == _chain_walk_hops(pred[u], u)
        assert metric.eccentricity(u) == dist[u].max()
    assert metric.diameter == dist.max()


@pytest.mark.parametrize(
    "n, resolved", [(511, "dense"), (512, "dense"), (513, "lazy")]
)
def test_fillings_agree_across_the_dense_switch(n, resolved):
    graph = preferential_attachment(n, m=2, seed=1)
    auto = GraphMetric(graph)
    assert auto.strategy == resolved
    other = GraphMetric(
        graph.copy(), strategy="lazy" if resolved == "dense" else "dense"
    )
    rng = random.Random(n)
    for _ in range(40):
        u, v = rng.randrange(n), rng.randrange(n)
        r = rng.choice([0.0, 1.0, 2.0, 3.0])
        size = rng.randrange(1, n + 1)
        cands = rng.sample(range(n), rng.randrange(1, 100))
        assert auto.distance(u, v) == other.distance(u, v)
        assert auto.ball(u, r) == other.ball(u, r)
        assert auto.size_radius(u, size) == other.size_radius(u, size)
        assert auto.next_hop(u, v) == other.next_hop(u, v)
        assert auto.nearest_in(u, cands) == other.nearest_in(u, cands)


def test_lazy_distance_reads_only_the_source_row():
    # Weighted Dijkstra sums edges in path order, so d(u, v) and d(v, u)
    # can differ in the last bit.  With only v's row resident, the lazy
    # answer must still be u's own row, as the dense filling reads it.
    graph = random_geometric(64, seed=11)
    dense = GraphMetric(graph.copy(), strategy="dense")
    rows = np.array([dense.distances_from(u) for u in dense.nodes])
    asymmetric = np.argwhere(rows != rows.T)[:50].tolist()
    assert asymmetric
    for u, v in asymmetric:
        lazy = GraphMetric(graph.copy(), strategy="lazy")
        lazy.distances_from(v)
        assert lazy.distance(u, v) == rows[u, v]


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
def test_degenerate_radii_and_hints_answer_alike(strategy):
    # A zero or NaN hint would keep the lazy doubling loop at 0 forever
    # and a negative one would reach scipy, so both fillings reject
    # them alike.  A NaN radius has no ball; a negative one has the
    # empty ball.
    metric = GraphMetric(grid_2d(10), strategy=strategy)
    for hint in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="hint"):
            metric.nearest_among(0, [50], hint=hint)
        with pytest.raises(ValueError, match="hint"):
            metric.max_distance_to(0, [50], hint=hint)
    for query in (metric.ball, metric.ball_size, metric.ball_with_distances):
        with pytest.raises(ValueError, match="NaN"):
            query(0, math.nan)
    assert metric.ball(0, -1.0) == []
    assert metric.ball_size(0, -1.0) == 0
    ids, dists = metric.ball_with_distances(0, -1.0)
    assert ids.shape == dists.shape == (0,)
    assert metric.ball(0, 0.0) == [0]
    assert metric.nearest_among(0, [50], hint=math.inf) == 50
    assert metric.max_distance_to(0, [50], hint=0.5) == 5.0


# ----------------------------------------------------------------------
# Bounded searches really are bounded
# ----------------------------------------------------------------------


def test_small_balls_do_not_materialize_full_rows():
    metric = GraphMetric(grid_2d(12), strategy="lazy")
    for u in range(metric.n):
        metric.ball(u, 1.0)
        metric.size_radius(u, 4)
    stats = metric.substrate_stats()
    assert stats["rows_materialized"] == 0
    assert stats["bounded_searches"] >= metric.n
    # Partial entries answer within their limit without re-searching.
    searches = stats["bounded_searches"]
    metric.ball(0, 1.0)
    assert metric.substrate_stats()["bounded_searches"] == searches


def test_first_size_queries_settle_a_few_times_size():
    # The landmark vicinity pattern: one size query per source, none of
    # whose rows is resident.  Starting each search at the largest
    # covering radius seen so far settles 10.9 x size per node here,
    # the median start 5.6 x.
    metric = GraphMetric(
        preferential_attachment(1024, m=2, seed=1), strategy="lazy"
    )
    for u in metric.nodes:
        metric.size_ball_with_hops(u, 32)
    assert metric.substrate_stats()["nodes_settled"] <= 8 * 32 * metric.n


#: ``BallPacking``'s ``(bounded_searches, nodes_settled)`` on a lazy
#: metric.  Its level sweep re-queries resident partial rows, which keep
#: the largest-radius start, so the median start must not move these.
SWEEP_WORK = {
    "grid": (lambda: grid_2d(12), 672, 43_444),
    "holes": (lambda: grid_with_holes(7, hole_fraction=0.25, seed=3), 137, 2_793),
    "geometric": (lambda: random_geometric(200, seed=2), 1_161, 85_724),
    "power-law": (
        lambda: preferential_attachment(256, m=2, seed=1), 990, 127_520
    ),
    "exponential": (lambda: exponential_path(14), 79, 466),
}


@pytest.mark.parametrize("family", sorted(SWEEP_WORK))
def test_ball_packing_sweep_work_is_pinned(family):
    build, searches, settled = SWEEP_WORK[family]
    metric = GraphMetric(build(), strategy="lazy")
    BallPacking(metric)
    stats = metric.substrate_stats()
    assert (stats["bounded_searches"], stats["nodes_settled"]) == (
        searches,
        settled,
    )


def test_evicting_sweep_settles_no_more_than_the_largest_start():
    # A 16 KiB budget evicts the sweep's rows between levels, so its
    # re-queries arrive as first queries.  Their balls overshoot little
    # from the largest start, which keeps the median start off: the
    # largest start alone settles 157,808 nodes here, and trying the
    # median start regardless settles 188,613.
    metric = GraphMetric(grid_2d(12), strategy="lazy", row_budget_bytes=2**14)
    BallPacking(metric)
    assert metric.substrate_stats()["nodes_settled"] <= 157_808


def test_row_store_budget_evicts_but_answers_stay_exact():
    graph = grid_2d(8)
    dense = GraphMetric(graph, strategy="dense")
    n = dense.n
    # Budget fits only a couple of full rows (each row stores 4 arrays).
    tiny = GraphMetric(graph.copy(), strategy="lazy", row_budget_bytes=4096)
    assert tiny.row_budget_bytes == 4096
    for u in range(n):
        assert np.array_equal(dense.distances_from(u), tiny.distances_from(u))
    stats = tiny.substrate_stats()
    assert stats["evictions"] > 0
    assert stats["stored_bytes"] <= 4096
    # Evicted rows recompute identically.
    assert np.array_equal(dense.distances_from(0), tiny.distances_from(0))
    assert dense.ball(0, 3.0) == tiny.ball(0, 3.0)


def test_row_blocks_keep_or_stream_across_the_budget():
    """``row_blocks`` installs the rows it solves only when the row
    budget holds every row asked for; otherwise it streams them and
    leaves the store as it found it.  Both sides of the switch yield the
    same blocks, byte for byte, equal to a fresh metric's rows."""
    graph = uniform_random_weights(grid_2d(20), seed=1)
    n = graph.number_of_nodes()
    sources = np.asarray(sorted(random.Random(5).sample(range(n), 300)))
    fresh = GraphMetric(graph.copy(), strategy="lazy")
    # 300 full rows of a 400-node graph take ~3.4 MB: the default
    # 64 MiB budget holds them, 1 MiB does not.
    yields = {}
    for mode, budget in (("keep", None), ("stream", 2**20)):
        metric = GraphMetric(graph.copy(), strategy="lazy", row_budget_bytes=budget)
        for u in sources[::37].tolist():  # some resident full rows
            metric.distances_from(u)
        for u in sources[5::41].tolist():  # and some partial ones
            metric.ball(u, 2.0)
        store = metric._strategy.store
        resident = {u: entry.full for u, entry in store.items()}
        stats = metric.substrate_stats()
        yields[mode] = list(metric.row_blocks(sources))
        after = metric.substrate_stats()
        assert after["rows_materialized"] > stats["rows_materialized"]
        if mode == "keep":
            assert all(store.get(u).full for u in sources.tolist())
        else:
            assert {u: e.full for u, e in store.items()} == resident
            for key in ("stored_bytes", "evictions"):
                assert after[key] == stats[key]
    assert len(yields["keep"]) == len(yields["stream"]) > 1
    for kept, streamed in zip(yields["keep"], yields["stream"]):
        for a, b in zip(kept, streamed):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    block, dist, hops = (np.concatenate(parts) for parts in zip(*yields["keep"]))
    assert np.array_equal(block, sources)
    for k, u in enumerate(sources.tolist()):
        assert dist[k].tobytes() == fresh.distances_from(u).tobytes()
        assert hops[k].tobytes() == fresh.next_hops_from(u).tobytes()


def test_row_store_admits_oversized_single_entry():
    store = RowStore(budget_bytes=1)
    dist = np.arange(64, dtype=float)
    pred = np.arange(64, dtype=np.int32)
    store.put(0, _Row(dist, pred, float("inf"), True))
    assert store.get(0) is not None  # never livelocks on one huge row
    store.put(1, _Row(dist.copy(), pred.copy(), float("inf"), True))
    assert store.get(1) is not None
    assert store.get(0) is None  # LRU victim
    assert store.evictions == 1


# ----------------------------------------------------------------------
# Churn: updated() dirty sets and spliced rows
# ----------------------------------------------------------------------


def _random_edit(graph: nx.Graph, rng: random.Random) -> GraphEdit:
    n = graph.number_of_nodes()
    while True:
        kind = rng.choice(
            [EditKind.WEIGHT, EditKind.WEIGHT, EditKind.EDGE_ADD,
             EditKind.EDGE_REMOVE]
        )
        if kind is EditKind.WEIGHT:
            u, v = rng.choice(sorted(graph.edges()))
            w = graph[u][v].get("weight", 1.0) * rng.uniform(0.6, 2.5)
            return GraphEdit(kind=kind, edge=(u, v), weight=w)
        if kind is EditKind.EDGE_ADD:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not graph.has_edge(u, v):
                return GraphEdit(
                    kind=kind, edge=(u, v), weight=rng.uniform(1.0, 4.0)
                )
            continue
        u, v = rng.choice(sorted(graph.edges()))
        trial = graph.copy()
        trial.remove_edge(u, v)
        if nx.is_connected(trial):
            return GraphEdit(kind=kind, edge=(u, v))


def _stacked_rows(metric: GraphMetric):
    """Every distance and predecessor row of ``metric``, stacked."""
    return (
        np.array([metric.distances_from(u) for u in metric.nodes]),
        np.array([metric.predecessors_from(u) for u in metric.nodes]),
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_updated_matches_dense_and_cold(family):
    graph = FAMILIES[family]()
    dense = GraphMetric(graph.copy(), strategy="dense")
    lazy = GraphMetric(graph.copy(), strategy="lazy")
    rng = random.Random(hash(family) % (2**32))
    # Warm the lazy store with a mix of partial and full rows so the
    # dirty-set machinery must invalidate through real cached state.
    for u in range(0, lazy.n, 3):
        lazy.ball(u, 2.0)
    for u in range(0, lazy.n, 5):
        lazy.distances_from(u)
        lazy.next_hop(u, (u + 1) % lazy.n)
    for step in range(6):
        edit = _random_edit(dense.graph, rng)
        post_dense = dense.graph.copy()
        post_lazy = lazy.graph.copy()
        apply_edit_to_graph(post_dense, edit)
        apply_edit_to_graph(post_lazy, edit)
        dense, dirty_dense = dense.updated(post_dense, edit)
        lazy, dirty_lazy = lazy.updated(post_lazy, edit)
        assert dirty_dense == dirty_lazy
        cold = GraphMetric(post_dense.copy(), strategy="dense")
        dense_dist, dense_pred = _stacked_rows(dense)
        cold_dist, cold_pred = _stacked_rows(cold)
        assert np.array_equal(dense_dist, cold_dist)
        assert np.array_equal(dense_pred, cold_pred)
        for u in range(0, dense.n, 4):
            assert np.array_equal(
                cold.distances_from(u), lazy.distances_from(u)
            )
            assert cold.row_digest(u) == lazy.row_digest(u)
        assert dense.diameter == lazy.diameter == cold.diameter


def test_updated_carries_clean_lazy_rows_without_research():
    graph = grid_2d(6)
    metric = GraphMetric(graph.copy(), strategy="lazy")
    far_corner = metric.n - 1
    metric.distances_from(far_corner)
    # Reweight an edge near node 0; the far corner's row may or may not
    # change, but if it is clean it must be carried, not re-searched.
    edit = GraphEdit(kind=EditKind.WEIGHT, edge=(0, 1), weight=5.0)
    post = metric.graph.copy()
    apply_edit_to_graph(post, edit)
    new_metric, dirty = metric.updated(post, edit)
    if far_corner not in dirty:
        searches = new_metric.substrate_stats()["bounded_searches"]
        new_metric.distances_from(far_corner)
        assert new_metric.substrate_stats()["bounded_searches"] == searches


def test_splice_rows_equivalent_across_strategies(metric_pair):
    dense, lazy = metric_pair
    dense = GraphMetric(dense.graph.copy(), strategy="dense")
    lazy = GraphMetric(lazy.graph.copy(), strategy="lazy")
    rows = [0, dense.n // 2, dense.n - 1]
    dense.splice_rows(rows)
    lazy.splice_rows(rows)
    for u in rows:
        assert np.array_equal(dense.distances_from(u), lazy.distances_from(u))
        assert dense.row_digest(u) == lazy.row_digest(u)
    from repro.core.types import PreprocessingError

    with pytest.raises(PreprocessingError):
        lazy.splice_rows([dense.n])


# ----------------------------------------------------------------------
# Mutation (chaos injector) surface
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
def test_mutable_row_feeds_derived_caches(strategy):
    metric = GraphMetric(grid_2d(5), strategy=strategy)
    reference = GraphMetric(grid_2d(5), strategy="dense")
    before = metric.row_digest(3)
    dist_row, pred_row = metric.mutable_row(3)
    dist_row[7] *= 10.0
    metric.invalidate_derived(3)
    assert metric.row_digest(3) != before
    # Derived views must read the corrupted value, not a stale cache.
    assert metric.distances_from(3)[7] == reference.distances_from(3)[7] * 10.0
    assert 7 in metric.ball(3, reference.distances_from(3)[7] * 10.0)
    metric.splice_rows([3])
    assert metric.row_digest(3) == before


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
def test_corrupted_predecessor_cycle_raises_route_failure(strategy):
    # The injected predecessor write closes a cycle; the first-hop pass
    # must stop and name the source instead of walking it forever.
    metric = GraphMetric(grid_2d(6), strategy=strategy)
    CorruptionInjector(seed=0).corrupt(metric, [7])
    with pytest.raises(RouteFailure, match="source 7"):
        metric.next_hop(7, 18)
    metric.splice_rows([7])
    assert metric.next_hop(7, 18) == GraphMetric(grid_2d(6)).next_hop(7, 18)


def test_lazy_mutable_row_is_copy_on_write():
    metric = GraphMetric(grid_2d(6), strategy="lazy")
    for u in range(metric.n):
        metric.distances_from(u)  # materialize, then snapshot via updated()
    edit = GraphEdit(kind=EditKind.WEIGHT, edge=(0, 1), weight=3.0)
    post = metric.graph.copy()
    apply_edit_to_graph(post, edit)
    snapshot, dirty = metric.updated(post, edit)
    carried = sorted(set(metric.nodes) - dirty)
    assert carried  # a local reweight cannot dirty every source
    victim = carried[0]
    before = metric.distances_from(victim).copy()
    dist_row, _ = metric.mutable_row(victim)
    dist_row[4] *= 7.0
    metric.invalidate_derived(victim)
    # The shared snapshot must not see the corruption.
    assert np.array_equal(snapshot.distances_from(victim), before)


# ----------------------------------------------------------------------
# Diameter: iFUB, exact at every n
# ----------------------------------------------------------------------


def _all_pairs_maximum(metric: GraphMetric) -> float:
    return float(dijkstra(metric._csr(), directed=True).max())


def test_lazy_diameter_exact_below_limit(metric_pair):
    dense, lazy = metric_pair
    assert lazy.diameter == dense.diameter


@pytest.mark.parametrize("n", [2047, 2048, 2049])
def test_diameter_is_the_all_pairs_maximum_around_2048(n):
    # n = 2048 used to switch the lazy diameter from exact to a
    # double-sweep bound; there is no switch left to cross.
    lazy = GraphMetric(preferential_attachment(n, m=2, seed=1), strategy="lazy")
    assert lazy.diameter == _all_pairs_maximum(lazy)


def test_diameter_is_the_all_pairs_maximum_on_hard_graphs():
    # A plain grid makes iFUB read about half the rows (many nodes tie
    # for the eccentricity); the weighted tree sums each path in two
    # orders, so d(x, y) and d(y, x) can differ in the last bit; the
    # exponential path has a normalized diameter of 2^23 - 1.  On the
    # last two graphs an unread row tops the read rows' maximum by one
    # bit, which only the certification pass finds.
    tree = uniform_random_weights(
        nx.random_labeled_tree(300, seed=4), low=1.0, high=9.0, seed=4
    )
    last_bit = (
        uniform_random_weights(grid_2d(12), low=1.0, high=9.0, seed=16),
        uniform_random_weights(
            random_geometric(150, seed=21), low=1.0, high=9.0, seed=21
        ),
    )
    for graph in (grid_2d(32), tree, exponential_path(24), *last_bit):
        for strategy in ("dense", "lazy"):
            metric = GraphMetric(graph.copy(), strategy=strategy)
            assert metric.diameter == _all_pairs_maximum(metric)


def test_diameter_reads_few_rows_and_installs_none(monkeypatch):
    import repro.metric.substrate as substrate

    solved = []

    def counting_dijkstra(matrix, *args, indices=None, **kwargs):
        solved.append(matrix.shape[0] if indices is None else len(indices))
        return dijkstra(matrix, *args, indices=indices, **kwargs)

    monkeypatch.setattr(substrate, "dijkstra", counting_dijkstra)
    lazy = GraphMetric(random_geometric(1024, seed=11), strategy="lazy")
    before = lazy.substrate_stats()
    assert lazy.diameter == _all_pairs_maximum(lazy)
    assert sum(solved) <= 64
    assert lazy.substrate_stats() == before
    dense = GraphMetric(grid_2d(8), strategy="dense")
    solved.clear()
    assert dense.diameter == 14.0
    assert solved == []


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["dense", "lazy"])
def test_pickle_round_trip(strategy):
    metric = GraphMetric(random_geometric(32, seed=9), strategy=strategy)
    metric.distances_from(3)
    metric.ball(5, 1.0)
    clone = pickle.loads(pickle.dumps(metric))
    assert clone.strategy == strategy
    assert clone.n == metric.n
    assert clone.scale == metric.scale
    for u in range(metric.n):
        assert np.array_equal(
            clone.distances_from(u), metric.distances_from(u)
        )
        assert clone.row_digest(u) == metric.row_digest(u)
    assert clone.diameter == metric.diameter


def test_lazy_pickle_stores_only_materialized_rows():
    metric = GraphMetric(random_geometric(40, seed=1), strategy="lazy")
    metric.distances_from(0)
    metric.distances_from(7)
    for u in range(metric.n):
        metric.ball(u, 0.5)  # partial entries: not persisted
    clone = pickle.loads(pickle.dumps(metric))
    assert clone.substrate_stats()["rows_materialized"] == 2
    reference = GraphMetric(metric.graph.copy(), strategy="dense")
    assert np.array_equal(clone.distances_from(7), reference.distances_from(7))
    assert clone.ball(3, 0.5) == reference.ball(3, 0.5)
