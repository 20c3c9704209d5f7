"""Tests for the compiled batch routing engine (PR 9, E20 substrate).

The anchor property: for every scheme with a compiled lowering, the
batch engine's output is **bit-identical** to the interpreted
``route()`` — same path, same cost (exact float equality, not
approximate), same legs breakdown, same header bits, same delivered
node — and agrees with RouteTrace replay.  Also covers: a degraded
overlay rebuild, the input contract and sweep cap, the determinism
contract (injection-index ordering), and BuildContext caching of
compiled artifacts.
"""

import dataclasses
import random

import pytest

import numpy as np

from repro.core.types import RouteFailure
from repro.engine import (
    BatchRouter,
    EngineUnsupported,
    NonEdgeHop,
    compile_scheme,
)
from repro.engine.compiler import DENSE_LIMIT
from repro.graphs.generators import grid_2d, preferential_attachment
from repro.metric.graph_metric import GraphMetric
from repro.observability.trace import replay
from repro.pipeline.context import BuildContext
from repro.resilience import EventKind, FailureEvent
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.repair import surviving_graph
from repro.schemes.base import RoutingScheme
from repro.schemes.cowen_landmark import CowenLandmarkScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.trees.heavy_path import HeavyPathRouter
from repro.trees.tree_router import TreeRouter


def _all_pairs(metric, limit=None, seed=0):
    nodes = list(metric.nodes)
    pairs = [(s, t) for s in nodes for t in nodes]
    if limit is not None and len(pairs) > limit:
        pairs = random.Random(seed).sample(pairs, limit)
    return pairs


def assert_bit_identical(scheme, pairs, metric=None, record_paths=True):
    """Compiled results must equal interpreted route() bit for bit."""
    metric = metric if metric is not None else scheme.metric
    router = BatchRouter(scheme.compile_tables(), metric=metric)
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    compiled = router.route_batch(sources, targets, record_paths=record_paths)
    for (s, t), got in zip(pairs, compiled):
        want = scheme.route(s, t)
        assert got.target == want.target, (s, t)
        assert got.cost == want.cost, (s, t, got.cost, want.cost)
        assert got.legs == want.legs, (s, t, got.legs, want.legs)
        assert got.header_bits == want.header_bits
        if record_paths:
            assert got.path == want.path, (s, t)
    return router


#: The compact schemes, Lemma 3.1 and Theorems 1.2, 1.4 and 1.1.
COMPACT = {
    "labeled_nonsf": NonScaleFreeLabeledScheme,
    "labeled_sf": ScaleFreeLabeledScheme,
    "nameind_simple": SimpleNameIndependentScheme,
    "nameind_sf": ScaleFreeNameIndependentScheme,
}


@pytest.fixture(scope="module")
def weighted_compact(request, params):
    """``(kind, metric fixture) -> scheme``, each built once per module
    on a weighted fixture: unit weights would hide a weight read at the
    wrong entry."""
    built = {}

    def build(kind, fixture):
        if (kind, fixture) not in built:
            metric = request.getfixturevalue(fixture)
            built[kind, fixture] = COMPACT[kind](metric, params)
        return built[kind, fixture]

    return build


# ----------------------------------------------------------------------
# Bit-identity: every scheme x fixture
# ----------------------------------------------------------------------


class TestBitIdentity:
    def test_shortest_path_all_fixtures(self, any_metric):
        scheme = ShortestPathScheme(any_metric)
        assert_bit_identical(scheme, _all_pairs(any_metric, limit=600))

    def test_cowen(self, grid_metric, params):
        scheme = CowenLandmarkScheme(grid_metric, params)
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_cowen_geometric(self, geometric_metric, params):
        scheme = CowenLandmarkScheme(geometric_metric, params)
        assert_bit_identical(
            scheme, _all_pairs(geometric_metric, limit=600)
        )

    def test_labeled_nonsf(self, labeled_nonsf):
        assert_bit_identical(labeled_nonsf, _all_pairs(labeled_nonsf.metric))

    def test_labeled_sf(self, labeled_sf):
        assert_bit_identical(labeled_sf, _all_pairs(labeled_sf.metric))

    def test_nameind_simple(self, nameind_simple):
        assert_bit_identical(
            nameind_simple, _all_pairs(nameind_simple.metric)
        )

    def test_nameind_sf(self, nameind_sf):
        assert_bit_identical(nameind_sf, _all_pairs(nameind_sf.metric))

    @pytest.mark.parametrize("fixture", ["geometric_metric", "exponential_metric"])
    @pytest.mark.parametrize("kind", sorted(COMPACT))
    def test_compact_on_weighted_metrics(self, kind, fixture, weighted_compact):
        """The compact machines on weighted graphs.  On
        ``exponential_path(14)`` Algorithm 5's Voronoi phases run (the
        greedy ring walk stops short), so Theorems 1.2 and 1.1 charge
        tree moves in both directions."""
        scheme = weighted_compact(kind, fixture)
        assert_bit_identical(scheme, _all_pairs(scheme.metric, limit=600))

    def test_landmark(self, grid_metric, params):
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_landmark_geometric(self, geometric_metric, params):
        scheme = LandmarkNameIndependentScheme(geometric_metric, params)
        assert_bit_identical(
            scheme, _all_pairs(geometric_metric, limit=600)
        )

    def test_landmark_nontrivial_naming(self, grid_metric, params):
        n = grid_metric.n
        naming = [(v * 7 + 3) % n for v in range(n)]
        scheme = LandmarkNameIndependentScheme(
            grid_metric, params, naming=naming
        )
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_weighted_metric(self, exponential_metric, params):
        scheme = ShortestPathScheme(exponential_metric)
        assert_bit_identical(scheme, _all_pairs(exponential_metric))
        landmark = LandmarkNameIndependentScheme(exponential_metric, params)
        assert_bit_identical(landmark, _all_pairs(exponential_metric))


class TestTraceReplay:
    """Compiled hop sequences must agree with RouteTrace replay."""

    def test_replay_agreement(self, labeled_sf, nameind_simple, params):
        grid = labeled_sf.metric
        schemes = [
            ShortestPathScheme(grid),
            labeled_sf,
            nameind_simple,
            LandmarkNameIndependentScheme(grid, params),
        ]
        pairs = _all_pairs(grid, limit=80, seed=4)
        for scheme in schemes:
            router = BatchRouter(scheme.compile_tables(), metric=grid)
            for s, t in pairs:
                want, trace = scheme.trace_route(s, t)
                got = router.route(s, t)
                rep = replay(trace)
                assert rep.matches(want.path, want.cost)
                assert got.path == rep.path
                assert got.cost == want.cost


class TestDegradedOverlay:
    """A scheme rebuilt on the surviving subgraph compiles bit-identical."""

    def test_degraded_rebuild(self, grid_metric, params):
        degraded = DegradedNetwork(grid_metric)
        for u, v in ((0, 1), (7, 8), (14, 20)):
            degraded.apply(
                FailureEvent(0.0, EventKind.LINK_DOWN, edge=(u, v))
            )
        metric = GraphMetric(surviving_graph(degraded))
        for scheme in (
            ShortestPathScheme(metric),
            LandmarkNameIndependentScheme(metric, params),
        ):
            assert_bit_identical(scheme, _all_pairs(metric), metric=metric)


# ----------------------------------------------------------------------
# Input contract and sweep cap
# ----------------------------------------------------------------------


class TestInputContract:
    @pytest.mark.parametrize("mode", ["batch", "route_batch"])
    def test_rejects_bad_inputs(self, grid_metric, mode):
        """Malformed batches raise ValueError before any sweep runs,
        through ``route_arrays`` ("batch") and ``route_batch`` alike;
        non-integer ids are rejected, never truncated."""
        router = BatchRouter(
            ShortestPathScheme(grid_metric).compile_tables(),
            metric=grid_metric,
        )
        route = router.route_arrays if mode == "batch" else router.route_batch
        n = router.tables.n
        with pytest.raises(ValueError, match="equal-length"):
            route([0, 1], [2])
        for bad_sources, bad_targets, message in (
            ([-1], [0], "node id out of range"),
            ([0], [n], "node id out of range"),
            ([n], [0], "node id out of range"),
            ([0, 1], [1, -5], "node id out of range"),
            ([1.7], [2], "node ids must be integers"),
            ([True], [False], "node ids must be integers"),
        ):
            with pytest.raises(ValueError, match=message):
                route(bad_sources, bad_targets)

    def test_sweep_cap_raises_route_failure(self, grid_metric):
        """Packets still live after ``max_sweeps`` sweeps fail with the
        same typed error the interpreter raises."""
        tables = ShortestPathScheme(grid_metric).compile_tables()
        capped = dataclasses.replace(
            tables, scalars={**tables.scalars, "max_sweeps": 1}
        )
        with pytest.raises(RouteFailure, match="still live after 1 sweeps"):
            BatchRouter(capped).route_arrays([0], [grid_metric.n - 1])


# ----------------------------------------------------------------------
# Determinism contract (satellite 2 regression)
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_injection_index_order(self, grid_metric, params):
        """Results come back in injection-index order: shuffling the
        batch permutes outputs identically — per-pair results do not
        depend on batch composition or position."""
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        router = BatchRouter(scheme.compile_tables(), metric=grid_metric)
        pairs = _all_pairs(grid_metric, limit=150, seed=7)
        base = router.route_batch(
            [s for s, _ in pairs], [t for _, t in pairs]
        )
        perm = list(range(len(pairs)))
        random.Random(13).shuffle(perm)
        shuffled = router.route_batch(
            [pairs[i][0] for i in perm], [pairs[i][1] for i in perm]
        )
        for slot, i in enumerate(perm):
            assert shuffled[slot] == base[i]

    def test_batch_equals_singleton(self, labeled_sf):
        router = BatchRouter(
            labeled_sf.compile_tables(), metric=labeled_sf.metric
        )
        pairs = _all_pairs(labeled_sf.metric, limit=40, seed=8)
        batch = router.route_batch(
            [s for s, _ in pairs], [t for _, t in pairs]
        )
        for (s, t), got in zip(pairs, batch):
            assert router.route(s, t) == got

    def test_repeated_runs_stable(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        pairs = _all_pairs(grid_metric, limit=100, seed=9)
        a = router.route_arrays([s for s, _ in pairs], [t for _, t in pairs])
        b = router.route_arrays([s for s, _ in pairs], [t for _, t in pairs])
        np.testing.assert_array_equal(a["target"], b["target"])
        np.testing.assert_array_equal(a["cost"], b["cost"])


# ----------------------------------------------------------------------
# Compiler edges and caching
# ----------------------------------------------------------------------


class TestDenseTables:
    """The dense next-hop table at the ``DENSE_LIMIT`` switch, on lazy
    power-law graphs whose rows outgrow the row store's budget, and the
    compact schemes, which compile from their own rows past it."""

    def test_compact_kinds_compile_without_dense_tables(
        self, labeled_nonsf, labeled_sf, nameind_simple, nameind_sf
    ):
        for scheme in (labeled_nonsf, labeled_sf, nameind_simple, nameind_sf):
            assert not {"NH", "D"} & set(compile_scheme(scheme).arrays)

    def test_compact_scheme_compiles_past_the_limit(self):
        metric = GraphMetric(grid_2d(46), strategy="lazy")
        assert metric.n > DENSE_LIMIT
        scheme = NonScaleFreeLabeledScheme(metric)
        tables = compile_scheme(scheme)
        assert not {"NH", "D"} & set(tables.arrays)
        assert_bit_identical(scheme, _all_pairs(metric, limit=150, seed=3))

    def test_fill_solves_each_row_once_at_the_limit(self):
        n = DENSE_LIMIT
        metric = GraphMetric(
            preferential_attachment(n, m=2, seed=1), strategy="lazy"
        )
        before = metric.substrate_stats()["rows_materialized"]
        tables = compile_scheme(ShortestPathScheme(metric))
        assert metric.substrate_stats()["rows_materialized"] - before == n
        for u in random.Random(7).sample(range(n), 32):
            assert np.array_equal(tables.arrays["NH"][u], metric.next_hops_from(u))

    def test_fill_refused_past_the_limit(self):
        metric = GraphMetric(
            preferential_attachment(DENSE_LIMIT + 1, m=2, seed=1),
            strategy="lazy",
        )
        with pytest.raises(EngineUnsupported, match="dense LUT"):
            compile_scheme(ShortestPathScheme(metric))
        stats = metric.substrate_stats()
        assert (stats["rows_materialized"], stats["bounded_searches"]) == (0, 0)


class TestWeightColumns:
    """Each compact next-hop column has a weight column beside it, filled
    at compile time; no compact kind carries the global edge table."""

    @pytest.mark.parametrize("kind", sorted(COMPACT))
    def test_ring_and_tree_weights_are_the_hops_edges(
        self, kind, weighted_compact
    ):
        scheme = weighted_compact(kind, "geometric_metric")
        metric = scheme.metric
        A = compile_scheme(scheme).arrays
        assert not {"EKEY", "EW"} & set(A)
        for u in metric.nodes:
            real = A["R_LO"][u] <= A["R_HI"][u]
            for hop, weight, live in zip(A["R_NH"][u], A["R_W"][u], real):
                moves = live and hop != u
                assert weight == (metric.edge_weight(u, hop) if moves else 0.0)
        if "T_W" in A:
            for slot, parent in enumerate(A["T_PARENT"].tolist()):
                node, up = A["T_NODE"][slot], A["T_NODE"][parent]
                want = metric.edge_weight(node, up) if parent >= 0 else 0.0
                assert A["T_W"][slot] == want

    def test_landmark_weights_are_the_hops_edges(self, geometric_metric, params):
        metric = geometric_metric
        scheme = LandmarkNameIndependentScheme(metric, params)
        A = compile_scheme(scheme).arrays
        assert not {"EKEY", "EW"} & set(A)
        assert A["PRED"] is scheme._landmark_pred  # handed over, not copied
        for i, landmark in enumerate(scheme.landmarks):
            for v in metric.nodes:
                parent = int(A["PRED"][i, v])
                want = 0.0 if v == landmark else metric.edge_weight(v, parent)
                assert A["PRED_W"][i, v] == want
        for u in metric.nodes:
            lo, hi = A["VIC_PTR"][u], A["VIC_PTR"][u + 1]
            for hop, weight in zip(A["VIC_HOP"][lo:hi], A["VIC_W"][lo:hi]):
                assert weight == metric.edge_weight(u, hop)


class TestNonEdgeHop:
    """A stored hop that is not its owner's neighbour fails the compile,
    naming both nodes, before any packet is routed."""

    @staticmethod
    def _stranger(metric, u):
        """The least node that is neither ``u`` nor a neighbour of it."""
        return next(
            v for v in metric.nodes
            if v != u and not metric.graph.has_edge(u, v)
        )

    def test_landmark_vicinity_hop(self, grid_metric, params):
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        u = 7
        entry = int(scheme._vic_ptr[u]) + 2
        bad = self._stranger(grid_metric, u)
        scheme._vic_hop = scheme._vic_hop.copy()
        scheme._vic_hop[entry] = bad
        with pytest.raises(NonEdgeHop, match=f"node {u} .* {bad}\\b") as info:
            scheme.compile_tables()
        assert (info.value.node, info.value.hop) == (u, bad)

    def test_ring_hop(self, grid_metric, params):
        scheme = NonScaleFreeLabeledScheme(grid_metric, params)
        u = 9
        rows = scheme._rings._rows
        col = next(c for c, entry in enumerate(rows[u]) if entry[-1] != u)
        bad = self._stranger(grid_metric, u)
        rows[u] = list(rows[u])
        rows[u][col] = rows[u][col][:-1] + (bad,)
        with pytest.raises(NonEdgeHop, match=f"node {u} .* {bad}\\b") as info:
            scheme.compile_tables()
        assert (info.value.node, info.value.hop) == (u, bad)


class TestCompiler:
    def test_unsupported_scheme_raises(self, grid_metric):
        class Opaque(RoutingScheme):
            name = "opaque"

            def route(self, source, target):  # pragma: no cover
                raise NotImplementedError

            def table_bits(self):  # pragma: no cover
                return [0] * self._metric.n

            def header_bits(self):  # pragma: no cover
                return 0

        with pytest.raises(EngineUnsupported):
            compile_scheme(Opaque(grid_metric))

    def test_tables_report_size(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        assert tables.kind == "shortest_path"
        assert tables.n == grid_metric.n
        assert tables.nbytes() > 0
        assert "max_sweeps" in tables.scalars

    def test_empty_batch(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        out = router.route_arrays([], [])
        assert out["target"].size == 0
        assert out["sweeps"] == 0

    def test_mismatched_batch_rejected(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        with pytest.raises(ValueError):
            router.route_arrays([0, 1], [2])
        with pytest.raises(ValueError):
            router.route_arrays([0], [grid_metric.n])

    def test_route_batch_needs_metric(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        from repro.engine import EngineError

        with pytest.raises(EngineError):
            router.route_batch([0], [1])

    def test_context_caches_compiled(self, grid_metric, params):
        context = BuildContext()
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        first = context.compiled(scheme)
        second = context.compiled(scheme)
        assert first is second

    def test_context_keys_compiled_by_vicinity(self, params):
        # Two landmark schemes that differ only in vicinity size must
        # never share compiled tables.
        context = BuildContext()
        metric = context.metric(grid_2d(6))
        small = context.scheme(
            LandmarkNameIndependentScheme, metric, params, vicinity_size=4
        )
        default = context.scheme(LandmarkNameIndependentScheme, metric, params)
        small_keys = context.compiled(small).arrays["VIC_KEY"]
        default_keys = context.compiled(default).arrays["VIC_KEY"]
        assert not np.array_equal(small_keys, default_keys)
        assert np.array_equal(small_keys, small.compile_tables().arrays["VIC_KEY"])
        assert np.array_equal(
            default_keys, default.compile_tables().arrays["VIC_KEY"]
        )

    def test_context_keys_compiled_by_tree_router(self, params):
        # Two Theorem 1.2 schemes that differ only in their tree router
        # must never share compiled tables; the heavy-path router has no
        # lowering, so its scheme must fail typed, not borrow tables.
        context = BuildContext()
        metric = context.metric(grid_2d(6))
        interval = context.scheme(
            ScaleFreeLabeledScheme, metric, params, tree_router_cls=TreeRouter
        )
        heavy = context.scheme(
            ScaleFreeLabeledScheme,
            metric,
            params,
            tree_router_cls=HeavyPathRouter,
        )
        router = BatchRouter(context.compiled(interval), metric=metric)
        rng = random.Random(4)
        for _ in range(40):
            u, v = rng.randrange(metric.n), rng.randrange(metric.n)
            assert router.route(u, v) == interval.route(u, v)
        with pytest.raises(EngineUnsupported, match="HeavyPathRouter"):
            context.compiled(heavy)
        with pytest.raises(EngineUnsupported, match="HeavyPathRouter"):
            heavy.compile_tables()
