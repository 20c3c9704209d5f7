"""Tests for the churn subsystem (E17) and incremental invalidation.

Covers: content keys across edits against full rehashes, the edit
stream's invariants (determinism, connectivity, scale preservation),
exactness of the dirty set (``GraphMetric.updated`` bit-identical to a
cold Dijkstra over random edit sequences), the acceptance property —
a single-edge weight change on every fixture graph rebuilds strictly
fewer artifacts than a cold build while routing bit-identically — and
the :class:`ChurnDriver` service loop (determinism, overlay semantics,
cold-rebuild verification, repair traces).
"""

import gc
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.churn import ChurnDriver, ChurnVerificationError, EditStream
from repro.core.edits import EditKind, GraphEdit, apply_edit_to_graph
from repro.core.params import SchemeParameters
from repro.experiments.churn import run as run_e17
from repro.experiments.harness import standard_suite
from repro.experiments.resilience import repair_edit_for
from repro.graphs.generators import grid_2d, random_geometric
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.pipeline.context import BuildContext, graph_content_key
from repro.pipeline.registry import run_experiment
from repro.pipeline.sampling import sample_ordered_pairs
from repro.resilience.failure_plan import EventKind
from repro.resilience.repair import measure_edit_repair, measure_repair
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


# -- exact dirty sets -------------------------------------------------------


def _stacked_rows(metric: GraphMetric):
    """Every distance and predecessor row of ``metric``, stacked."""
    return (
        np.array([metric.distances_from(u) for u in metric.nodes]),
        np.array([metric.predecessors_from(u) for u in metric.nodes]),
    )


class TestIncrementalMetric:
    def test_updated_bit_identical_to_cold_over_random_streams(self):
        """The tentpole invariant at the metric layer: after any edit
        sequence, the incrementally spliced rows (distances AND
        predecessors) are bitwise equal to a cold Dijkstra, and rows
        outside the reported dirty set were genuinely untouched."""
        for seed in (1, 2, 3):
            graph = grid_2d(4)
            metric = GraphMetric(graph)
            metric.detach_graph()
            stream = EditStream(seed=seed)
            for _ in range(10):
                edit = stream.draw(graph)
                apply_edit_to_graph(graph, edit)
                old_dist, _ = _stacked_rows(metric)
                metric, dirty = metric.updated(graph, edit)
                dist, pred = _stacked_rows(metric)
                cold_dist, cold_pred = _stacked_rows(GraphMetric(graph.copy()))
                assert np.array_equal(dist, cold_dist)
                assert np.array_equal(pred, cold_pred)
                if not edit.changes_node_set:
                    clean = [
                        s
                        for s in range(metric.n)
                        if s not in dirty
                    ]
                    assert np.array_equal(
                        dist[clean], old_dist[clean]
                    )
                metric.detach_graph()

    def test_dirty_set_is_partial_on_continuous_weights(self):
        """No ties -> a single weight edit must not dirty everything."""
        graph = random_geometric(32, seed=5)
        metric = GraphMetric(graph)
        metric.detach_graph()
        edit = repair_edit_for(graph)
        apply_edit_to_graph(graph, edit)
        _, dirty = metric.updated(graph, edit)
        assert 0 < len(dirty) < metric.n


# -- acceptance: single-edge weight change on every fixture ----------------


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
        cold, incremental, report = measure_edit_repair(
            graph,
            repair_edit_for(graph),
            SCHEMES,
            PARAMS,
            keep_schemes=True,
        )
        # Strictly fewer artifacts constructed than a cold build...
        assert incremental.built_total < cold.built_total, graph_name
        assert 0 < len(report.dirty) <= graph.number_of_nodes()
        # ...and the result is bit-identical: same table bits, same
        # routes, same costs, for every scheme in the lineup.
        n = graph.number_of_nodes()
        pairs = sample_ordered_pairs(n, min(60, n * (n - 1)), seed=3)
        for warm_scheme, cold_scheme in zip(
            incremental.schemes, cold.schemes
        ):
            assert (
                warm_scheme.table_bits_vector()
                == cold_scheme.table_bits_vector()
            )
            for u, v in pairs:
                a = warm_scheme.route(u, v)
                b = cold_scheme.route(u, v)
                assert a.path == b.path
                assert abs(a.cost - b.cost) <= DISTANCE_SLACK

    def test_weight_edit_reuses_untouched_partitions(self):
        """A single weight change splices only the dirty metric rows.
        The spliced metric and its clean rows are all the repair carries
        over the edit; everything else is built and shared exactly as in
        a cold build (the schemes share one hierarchy in both)."""
        suite = dict(standard_suite("small"))
        graph = suite["geometric n=64"].copy()
        cold, incremental, report = measure_edit_repair(
            graph, repair_edit_for(graph), SCHEMES, PARAMS
        )
        n, dirty = graph.number_of_nodes(), len(report.dirty)
        assert 0 < dirty < n
        assert incremental.reused == {
            **cold.reused, "metric": 1, "metric_row": n - dirty
        }
        assert incremental.built == {
            **{kind: count for kind, count in cold.built.items() if kind != "metric"},
            "metric_row": dirty,
        }

    def test_lazy_metric_past_the_dense_switch_routes_identically(self):
        """Warm = cold where the metric fills lazily (n > 512).  A lazy
        cold build materializes no rows up front, so the built counts
        are not compared here."""
        graph = random_geometric(600, seed=3)
        cold, incremental, report = measure_edit_repair(
            graph,
            repair_edit_for(graph),
            [SimpleNameIndependentScheme],
            PARAMS,
            keep_schemes=True,
        )
        assert not report.full_rebuild
        (warm_scheme,), (cold_scheme,) = incremental.schemes, cold.schemes
        assert warm_scheme.metric.strategy == "lazy"
        assert warm_scheme.table_bits_vector() == cold_scheme.table_bits_vector()
        for u, v in sample_ordered_pairs(graph.number_of_nodes(), 60, seed=3):
            a, b = warm_scheme.route(u, v), cold_scheme.route(u, v)
            assert a.path == b.path
            assert abs(a.cost - b.cost) <= DISTANCE_SLACK

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
        report = context.apply_edit(graph, repair_edit_for(graph))
        assert not report.full_rebuild
        assert {"hierarchy", "packing", "scheme", "engine"} <= set(report.dropped)
        metric = context.metric(graph)
        for cls in classes:
            context.compiled(context.scheme(cls, metric, PARAMS))
        gc.collect()
        assert [ref() for ref in old_tables] == [None, None]

    def test_weight_edit_leaves_stale_substrates_on_their_metric(self):
        """The stale scheme's hierarchy and packing keep answering from
        its own (pre-edit) metric, so staleness-window routing never
        mixes two metrics; the repair builds new ones on the spliced
        metric, equal to a cold build's."""
        graph = random_geometric(128, seed=11)
        context = BuildContext()
        cls = ScaleFreeNameIndependentScheme
        before = context.scheme(cls, context.metric(graph), PARAMS)
        report = context.apply_edit(graph, repair_edit_for(graph))
        assert not report.full_rebuild
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
        cold-rebuild check passes (paths, costs, table_bits_vector) —
        a divergence raises ChurnVerificationError and fails this."""
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

    def test_repair_traces_render(self):
        driver = ChurnDriver(
            grid_2d(4),
            ShortestPathScheme,
            params=PARAMS,
            seed=2,
            edits_per_round=3,
            pairs_per_round=4,
            trace_repairs=True,
        )
        report = driver.run(edits=6)
        assert len(report.repair_traces) == 6
        for trace in report.repair_traces:
            assert trace.events
            assert trace.to_json()

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
