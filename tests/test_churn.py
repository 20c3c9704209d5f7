"""Tests for the churn subsystem (E17) and edit invalidation.

Covers: content keys across edits against full rehashes, the edit
stream's invariants (determinism, connectivity, scale preservation),
what an edit drops from the build context (the metric included), the
acceptance property — after a single-edge weight change on every
fixture graph the warm context rebuilds tables bit-identical to a cold
build — and the :class:`ChurnDriver` service loop (determinism, overlay
semantics, cold-rebuild verification).
"""

import gc
import weakref

import networkx as nx
import pytest

from repro.churn import ChurnDriver, ChurnVerificationError, EditStream
from repro.core.edits import EditKind, GraphEdit, apply_edit_to_graph
from repro.core.params import SchemeParameters
from repro.experiments.churn import run as run_e17
from repro.experiments.harness import standard_suite
from repro.graphs.generators import grid_2d, random_geometric
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext, graph_content_key
from repro.pipeline.registry import run_experiment
from repro.pipeline.sampling import sample_ordered_pairs
from repro.resilience.failure_plan import EventKind
from repro.resilience.repair import measure_repair, rebuild_through_context
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme

SCHEMES = [
    ShortestPathScheme,
    SimpleNameIndependentScheme,
    ScaleFreeNameIndependentScheme,
]

PARAMS = SchemeParameters(epsilon=0.5)


def _rehash_key(graph: nx.Graph) -> str:
    """Content key of a fresh copy of ``graph``, rebuilt edge by edge."""
    clone = nx.Graph()
    clone.add_nodes_from(graph.nodes())
    for u, v, data in graph.edges(data=True):
        clone.add_edge(u, v, weight=data.get("weight", 1.0))
    return graph_content_key(clone)


# -- content keys -----------------------------------------------------------


class TestContentKey:
    def test_incremental_key_matches_full_rehash(self):
        """The keys ``apply_edit`` reports track a rehash of a fresh
        copy of the graph, edit by edit."""
        graph = grid_2d(4)
        context = BuildContext()
        context.metric(graph)
        stream = EditStream(seed=11)
        for _ in range(25):
            edit = stream.draw(graph)
            before = graph_content_key(graph)
            report = context.apply_edit(graph, edit)
            assert report.old_key == before
            assert report.new_key == graph_content_key(graph)
            assert report.new_key == _rehash_key(graph), (
                f"key diverged after {edit.describe()}"
            )

    def test_out_of_band_weight_poke_changes_key(self):
        """A weight changed behind the context's back changes the key:
        there is no cached key to go stale."""
        graph = grid_2d(3)
        before = graph_content_key(graph)
        u, v = next(iter(graph.edges()))
        graph[u][v]["weight"] = 9.0
        after = graph_content_key(graph)
        assert after != before
        assert after == _rehash_key(graph)

    def test_key_ignores_edge_insertion_order(self):
        graph = grid_2d(4)
        edges = list(graph.edges(data="weight", default=1.0))
        reverse = nx.Graph()
        reverse.add_nodes_from(reversed(list(graph.nodes())))
        for u, v, w in reversed(edges):
            reverse.add_edge(v, u, weight=w)
        assert graph_content_key(reverse) == graph_content_key(graph)

    def test_removed_and_readded_edge_keeps_key(self):
        graph = random_geometric(40, seed=2)
        before = graph_content_key(graph)
        u, v, w = next(iter(graph.edges(data="weight", default=1.0)))
        graph.remove_edge(u, v)
        assert graph_content_key(graph) != before
        graph.add_edge(u, v, weight=w)
        assert graph_content_key(graph) == before

    def test_key_is_label_sensitive(self):
        graph = grid_2d(3)
        shifted = nx.relabel_nodes(graph, {v: v + 1 for v in graph})
        assert graph_content_key(shifted) != graph_content_key(graph)

    def test_tuple_labels_get_a_key(self):
        key = graph_content_key(nx.grid_2d_graph(3, 3))
        assert key == graph_content_key(nx.grid_2d_graph(3, 3))
        assert key != graph_content_key(grid_2d(3))


# -- the edit stream --------------------------------------------------------


class TestEditStream:
    def test_deterministic_replay(self):
        a_graph, b_graph = grid_2d(4), grid_2d(4)
        a = [e.describe() for e in EditStream(seed=3).take(a_graph, 30)]
        b = [e.describe() for e in EditStream(seed=3).take(b_graph, 30)]
        assert a == b
        assert a != [
            e.describe() for e in EditStream(seed=4).take(grid_2d(4), 30)
        ]

    def test_invariants_hold_along_the_stream(self):
        graph = grid_2d(4)
        min_before = min(
            d.get("weight", 1.0) for _, _, d in graph.edges(data=True)
        )
        stream = EditStream(seed=7)
        for _ in range(60):
            edit = stream.draw(graph)
            apply_edit_to_graph(graph, edit)
            assert nx.is_connected(graph)
            weights = [
                d.get("weight", 1.0) for _, _, d in graph.edges(data=True)
            ]
            # Scale preservation: the minimum raw weight never moves, so
            # a normalized metric's scale divisor survives every edit.
            assert min(weights) == pytest.approx(min_before)
            assert set(graph.nodes()) == set(range(graph.number_of_nodes()))

    def test_weight_only_mix_restricts_kinds(self):
        graph = grid_2d(4)
        stream = EditStream(seed=5, mix={EditKind.WEIGHT: 1.0})
        kinds = {e.kind for e in stream.take(graph, 20)}
        assert kinds == {EditKind.WEIGHT}


# -- acceptance: single-edge weight change on every fixture ----------------


def _weight_edit(graph: nx.Graph) -> GraphEdit:
    """A single-edge weight change: the median edge, 1.5x heavier."""
    u, v = sorted(graph.edges())[graph.number_of_edges() // 2]
    weight = 1.5 * float(graph[u][v].get("weight", 1.0))
    return GraphEdit(kind=EditKind.WEIGHT, edge=(u, v), weight=weight)


def _rebuilt_after_edit(graph, classes):
    """``classes`` rebuilt by a warm context after one weight edit of
    ``graph``, and built cold on the edited graph."""
    context = BuildContext()
    rebuild_through_context(context, graph, classes, PARAMS)
    context.apply_edit(graph, _weight_edit(graph))
    warm = rebuild_through_context(
        context, graph, classes, PARAMS, keep_schemes=True
    )
    cold = rebuild_through_context(
        BuildContext(), graph.copy(), classes, PARAMS, keep_schemes=True
    )
    return warm.schemes, cold.schemes


def _assert_identical(warm, cold, pairs):
    """Same table bits and the same route result on every pair."""
    assert warm.table_bits_vector() == cold.table_bits_vector()
    for u, v in pairs:
        assert warm.route(u, v) == cold.route(u, v)


class TestEditRepairAcceptance:
    @pytest.mark.parametrize(
        "graph_name,graph",
        standard_suite("small"),
        ids=[name for name, _ in standard_suite("small")],
    )
    def test_builds_strictly_fewer_and_routes_identically(
        self, graph_name, graph
    ):
        graph = graph.copy()
        warm, cold = _rebuilt_after_edit(graph, SCHEMES)
        n = graph.number_of_nodes()
        pairs = sample_ordered_pairs(n, min(60, n * (n - 1)), seed=3)
        for warm_scheme, cold_scheme in zip(warm, cold):
            _assert_identical(warm_scheme, cold_scheme, pairs)

    def test_lazy_metric_past_the_dense_switch_routes_identically(self):
        """Warm = cold where the metric fills lazily (n > 512)."""
        graph = random_geometric(600, seed=3)
        (warm,), (cold,) = _rebuilt_after_edit(
            graph, [SimpleNameIndependentScheme]
        )
        assert warm.metric.strategy == "lazy"
        _assert_identical(
            warm, cold, sample_ordered_pairs(graph.number_of_nodes(), 60, seed=3)
        )

    def test_weight_edit_drops_the_metric(self):
        """The metric is dropped like every other artifact: the next
        ``metric(graph)`` is a cold build, counted as a miss with no row
        accounting, and the stale metric keeps its pre-edit distances."""
        graph = grid_2d(4)
        context = BuildContext()
        stale = context.metric(graph)
        edit = _weight_edit(graph)
        u, v = edit.edge
        report = context.apply_edit(graph, edit)
        assert report.dropped["metric"] == 1
        assert (report.dirty, report.rows_reused, report.full_rebuild) == (
            frozenset(range(16)), 0, True
        )
        metric = context.metric(graph)
        assert metric is not stale
        # One miss per metric build; metric rows are not counted here.
        assert (context.stats.misses, context.stats.hits) == ({"metric": 2}, {})
        assert stale.distance(u, v) == 1.0
        assert metric.distance(u, v) == 1.5

    def test_weight_edit_drops_every_derived_artifact(self):
        """Substrates, schemes and their compiled tables are all dropped
        at an edit, so the pre-edit tables die with the caller's last
        reference."""
        graph = random_geometric(64, seed=11)
        context = BuildContext()
        metric = context.metric(graph)
        classes = (SimpleNameIndependentScheme, ScaleFreeNameIndependentScheme)
        old_tables = [
            weakref.ref(context.compiled(context.scheme(cls, metric, PARAMS)))
            for cls in classes
        ]
        report = context.apply_edit(graph, _weight_edit(graph))
        assert {"hierarchy", "packing", "scheme", "engine"} <= set(report.dropped)
        metric = context.metric(graph)
        for cls in classes:
            context.compiled(context.scheme(cls, metric, PARAMS))
        gc.collect()
        assert [ref() for ref in old_tables] == [None, None]

    def test_weight_edit_leaves_stale_substrates_on_their_metric(self):
        """The stale scheme's hierarchy and packing keep answering from
        its own (pre-edit) metric, so staleness-window routing never
        mixes two metrics; the repair builds new ones on the new metric,
        equal to a cold build's."""
        graph = random_geometric(128, seed=11)
        context = BuildContext()
        cls = ScaleFreeNameIndependentScheme
        before = context.scheme(cls, context.metric(graph), PARAMS)
        context.apply_edit(graph, _weight_edit(graph))
        after = context.scheme(cls, context.metric(graph), PARAMS)

        assert before.hierarchy.metric is before.metric
        assert before.packing.metric is before.metric
        assert after.hierarchy is not before.hierarchy
        assert after.packing is not before.packing
        assert after.hierarchy.metric is after.metric
        assert after.packing.metric is after.metric

        cold = cls(GraphMetric(graph.copy()), PARAMS)
        warm_h, cold_h = after.hierarchy, cold.hierarchy
        assert warm_h.top_level == cold_h.top_level
        for i in cold_h.levels:
            assert warm_h.net(i) == cold_h.net(i)
        for i in range(1, cold_h.top_level + 1):
            for x in cold_h.net(i - 1):
                assert warm_h.parent(x, i) == cold_h.parent(x, i)
        for v in cold.metric.nodes:
            assert warm_h.label(v) == cold_h.label(v)
        assert list(after.packing.levels) == list(cold.packing.levels)
        for j in cold.packing.levels:
            assert after.packing.packing(j) == cold.packing.packing(j)


# -- schemes retention (opt-in) --------------------------------------------


class TestRepairMeasurementRetention:
    def test_schemes_dropped_by_default(self):
        graph = grid_2d(3)
        cold, incremental = measure_repair(
            graph, [SimpleNameIndependentScheme], PARAMS
        )
        assert cold.schemes == [] and incremental.schemes == []

    def test_schemes_kept_on_request(self):
        graph = grid_2d(3)
        cold, incremental = measure_repair(
            graph, [SimpleNameIndependentScheme], PARAMS, keep_schemes=True
        )
        assert len(cold.schemes) == 1 and len(incremental.schemes) == 1


# -- the churn driver -------------------------------------------------------


def _round_fingerprint(record):
    return (
        [r.edit.describe() for r in record.edits],
        record.delivered,
        record.unreachable,
        round(record.mean_stretch, 9),
        dict(record.built),
        dict(record.reused),
        record.verified,
    )


class TestChurnDriver:
    def test_deterministic_given_seed(self):
        reports = []
        for _ in range(2):
            driver = ChurnDriver(
                grid_2d(4),
                SimpleNameIndependentScheme,
                policy="local-detour",
                params=PARAMS,
                seed=6,
                edits_per_round=4,
                pairs_per_round=6,
                verify_every=2,
            )
            reports.append(driver.run(edits=12))
        a, b = reports
        assert [_round_fingerprint(r) for r in a.rounds] == [
            _round_fingerprint(r) for r in b.rounds
        ]
        assert a.final_nodes == b.final_nodes

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_random_streams_verify_bit_identical(self, scheme_cls):
        """Property: across random edit streams, every scheduled
        cold-rebuild check passes (every routed result, table_bits_vector)
        — a divergence raises ChurnVerificationError and fails this."""
        for seed in (1, 2):
            driver = ChurnDriver(
                grid_2d(4),
                scheme_cls,
                policy="fail-fast",
                params=PARAMS,
                seed=seed,
                edits_per_round=3,
                pairs_per_round=4,
                verify_every=1,
                verify_pairs=60,
            )
            report = driver.run(edits=9)
            assert [r.verified for r in report.rounds] == [True] * 3

    def test_verify_detects_divergence(self):
        """A scheme built on a different topology must be rejected."""
        driver = ChurnDriver(
            grid_2d(4), SimpleNameIndependentScheme, params=PARAMS, seed=1
        )
        other = grid_2d(4)
        u, v = next(iter(other.edges()))
        other[u][v]["weight"] = 5.0
        context = BuildContext()
        wrong = context.scheme(
            SimpleNameIndependentScheme, context.metric(other), PARAMS
        )
        with pytest.raises(ChurnVerificationError):
            driver._verify(wrong)

    def test_overlay_semantics(self):
        stale = grid_2d(3)
        factors = {}
        scale = ChurnDriver._overlay_events(
            GraphEdit(kind=EditKind.WEIGHT, edge=(0, 1), weight=2.5),
            stale,
            factors,
        )
        assert [e.kind for e in scale] == [EventKind.WEIGHT_SCALE]
        assert scale[0].factor == pytest.approx(2.5)
        down = ChurnDriver._overlay_events(
            GraphEdit(kind=EditKind.EDGE_REMOVE, edge=(0, 1)), stale, factors
        )
        assert [e.kind for e in down] == [EventKind.LINK_DOWN]
        # Genuinely new capacity is invisible to stale tables.
        assert (
            ChurnDriver._overlay_events(
                GraphEdit(kind=EditKind.EDGE_ADD, edge=(0, 4), weight=1.0),
                stale,
                factors,
            )
            == []
        )
        assert (
            ChurnDriver._overlay_events(
                GraphEdit(
                    kind=EditKind.NODE_JOIN, node=9, attach=((0, 1.0),)
                ),
                stale,
                factors,
            )
            == []
        )
        leave = ChurnDriver._overlay_events(
            GraphEdit(kind=EditKind.NODE_LEAVE, node=8), stale, factors
        )
        assert [e.kind for e in leave] == [EventKind.NODE_DOWN]

    def test_report_serializes(self):
        driver = ChurnDriver(
            grid_2d(3),
            ShortestPathScheme,
            params=PARAMS,
            seed=4,
            edits_per_round=2,
            pairs_per_round=4,
        )
        payload = driver.run(edits=4).to_dict()
        assert payload["total_edits"] == 4
        assert len(payload["rounds"]) == 2
        for record in payload["rounds"]:
            assert 0.0 <= record["delivery_rate"] <= 1.0


# -- experiment E17 ---------------------------------------------------------


class TestExperimentChurn:
    def test_serial_and_parallel_rows_agree(self):
        suite = [("grid 4x4", grid_2d(4))]
        kwargs = dict(pair_count=30, edits=12, suite=suite)
        serial = run_e17(jobs=1, **kwargs)
        parallel = run_e17(jobs=2, **kwargs)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 9  # 3 schemes x 3 policies

    def test_registry_forwards_edits_kwarg(self):
        tables = run_experiment(
            "churn", pair_count=20, edits=10, suite=[("g", grid_2d(3))]
        )
        assert len(tables) == 1
        assert all(row[3] == 10 for row in tables[0].rows)

    def test_registry_drops_unknown_kwargs_for_other_runners(self):
        tables = run_experiment("structures", pair_count=10, edits=5)
        assert tables
