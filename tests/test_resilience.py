"""Tests for the resilience subsystem (S27/E16).

Covers: deterministic failure plans, the degraded overlay, every
:class:`DeliveryStatus` outcome of the resilient router (including a
forced routing loop), stretch accounting against the *post-failure*
optimum, recovery restoring delivery, incremental-vs-cold rebuild
equivalence, and serial/parallel equality of experiment E16.
"""

import math

import networkx as nx
import pytest

from repro.core.types import DeliveryStatus
from repro.graphs.generators import grid_2d
from repro.metric.graph_metric import GraphMetric
from repro.resilience import (
    DegradedNetwork,
    EventKind,
    FailureEvent,
    FailurePlan,
    ResilientRouter,
    make_policy,
    measure_repair,
)
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme

from tests.conftest import FAMILY_GRAPHS


@pytest.fixture(scope="module")
def path4():
    """0-1-2-3 path: the minimal cut-link topology."""
    return GraphMetric(nx.path_graph(4))


@pytest.fixture(scope="module")
def cycle6():
    """6-cycle: every link failure leaves exactly one detour."""
    return GraphMetric(nx.cycle_graph(6))


class TestFailurePlan:
    def test_uniform_links_deterministic(self, grid_metric):
        a = FailurePlan.uniform_links(grid_metric, 0.2, seed=7)
        b = FailurePlan.uniform_links(grid_metric, 0.2, seed=7)
        assert a == b and len(a) > 0
        assert a != FailurePlan.uniform_links(grid_metric, 0.2, seed=8)

    def test_uniform_links_fraction(self, grid_metric):
        edges = FAMILY_GRAPHS["grid"]().number_of_edges()
        plan = FailurePlan.uniform_links(grid_metric, 0.25, seed=1)
        assert len(plan) == round(0.25 * edges)
        assert len(plan.failed_links_at(0.0)) == len(plan)

    def test_recovery_clears_failed_links(self, grid_metric):
        plan = FailurePlan.uniform_links(
            grid_metric, 0.2, seed=4, at=0.0, recover_at=10.0
        )
        assert plan.failed_links_at(5.0)
        assert plan.failed_links_at(10.0) == []

    def test_correlated_region_is_one_ball(self, grid_metric):
        plan = FailurePlan.correlated_region(grid_metric, 0.3, seed=2)
        assert plan == FailurePlan.correlated_region(grid_metric, 0.3, seed=2)
        touched = sorted({v for e in plan.failed_links_at(0.0) for v in e})
        # All failed links live inside one metric ball around some center.
        radius = max(
            grid_metric.distance(touched[0], v) for v in touched
        )
        assert radius <= 2.0 * grid_metric.size_radius(
            touched[0], len(touched)
        )

    def test_targeted_links_folds_directions(self):
        ranked = [((0, 1), 5), ((1, 0), 4), ((2, 3), 8)]
        plan = FailurePlan.targeted_links(ranked, count=1)
        # 0-1 carries 5+4=9 > 8, so it is the top target.
        assert plan.failed_links_at(0.0) == [(0, 1)]

    def test_events_validate(self):
        with pytest.raises(ValueError):
            FailureEvent(0.0, EventKind.LINK_DOWN)  # needs an edge
        with pytest.raises(ValueError):
            FailureEvent(0.0, EventKind.NODE_DOWN)  # needs a node
        with pytest.raises(ValueError):
            FailureEvent(
                0.0, EventKind.WEIGHT_SCALE, edge=(0, 1), factor=0.0
            )

    def test_merge_keeps_time_order(self):
        a = FailurePlan([FailureEvent(2.0, EventKind.NODE_DOWN, node=1)])
        b = FailurePlan([FailureEvent(1.0, EventKind.NODE_DOWN, node=2)])
        merged = a.merge(b)
        assert [e.time for e in merged] == [1.0, 2.0]


class TestDegradedNetwork:
    def test_overlay_masks_without_mutating(self, cycle6):
        degraded = DegradedNetwork(cycle6)
        degraded.apply(FailureEvent(0.0, EventKind.LINK_DOWN, edge=(0, 1)))
        assert not degraded.edge_alive(0, 1)
        assert not degraded.edge_alive(1, 0)
        assert 1 in cycle6.neighbors(0)  # intact metric untouched
        assert degraded.neighbors(0) == [5]

    def test_post_failure_distance(self, cycle6):
        degraded = DegradedNetwork(cycle6)
        degraded.apply(FailureEvent(0.0, EventKind.LINK_DOWN, edge=(0, 1)))
        # The only surviving 0->2 route is the long way round.
        assert degraded.distance(0, 2) == pytest.approx(4.0)
        assert cycle6.distance(0, 2) == pytest.approx(2.0)

    def test_disconnection_reports_inf(self, path4):
        degraded = DegradedNetwork(path4)
        degraded.apply(FailureEvent(0.0, EventKind.LINK_DOWN, edge=(1, 2)))
        assert math.isinf(degraded.distance(0, 3))
        assert not degraded.connected(0, 3)

    def test_node_crash_kills_incident_links(self, cycle6):
        degraded = DegradedNetwork(cycle6)
        degraded.apply(FailureEvent(0.0, EventKind.NODE_DOWN, node=1))
        assert not degraded.node_alive(1)
        assert not degraded.edge_alive(0, 1)
        assert not degraded.edge_alive(1, 2)
        assert degraded.neighbors(1) == []

    def test_weight_scale_applies_and_restores(self, cycle6):
        degraded = DegradedNetwork(cycle6)
        degraded.apply(
            FailureEvent(0.0, EventKind.WEIGHT_SCALE, edge=(0, 1), factor=3.0)
        )
        assert degraded.edge_weight(0, 1) == pytest.approx(3.0)
        assert degraded.distance(0, 1) == pytest.approx(3.0)
        degraded.apply(
            FailureEvent(1.0, EventKind.WEIGHT_SCALE, edge=(0, 1), factor=1.0)
        )
        assert degraded.intact

    def test_detour_path_respects_hop_budget(self, cycle6):
        degraded = DegradedNetwork(cycle6)
        degraded.apply(FailureEvent(0.0, EventKind.LINK_DOWN, edge=(0, 1)))
        assert degraded.detour_path(0, 1, max_hops=4) is None
        assert degraded.detour_path(0, 1, max_hops=5) == [0, 5, 4, 3, 2, 1]


class TestRouterOutcomes:
    """One test per DeliveryStatus value."""

    def test_delivered_via_local_detour(self, cycle6):
        scheme = ShortestPathScheme(cycle6)
        degraded = DegradedNetwork.from_plan(
            cycle6,
            FailurePlan([FailureEvent(0.0, EventKind.LINK_DOWN, edge=(0, 1))]),
        )
        result = ResilientRouter(
            scheme, degraded, policy="local-detour"
        ).route(0, 2)
        assert result.status is DeliveryStatus.DELIVERED
        assert result.path == [0, 5, 4, 3, 2]
        assert result.detours == 1

    def test_dropped_on_fail_fast(self, path4):
        scheme = ShortestPathScheme(path4)
        degraded = DegradedNetwork.from_plan(
            path4,
            FailurePlan([FailureEvent(0.0, EventKind.LINK_DOWN, edge=(1, 2))]),
        )
        result = ResilientRouter(scheme, degraded, policy="fail-fast").route(
            0, 3
        )
        assert result.status is DeliveryStatus.DROPPED
        assert "fail-fast" in result.reason
        assert math.isinf(result.post_failure_optimal)
        assert result.stretch is None

    def test_ttl_expired(self, path4):
        scheme = ShortestPathScheme(path4)
        degraded = DegradedNetwork(path4)  # intact; budget is the problem
        result = ResilientRouter(
            scheme, degraded, policy="fail-fast", ttl=1
        ).route(0, 3)
        assert result.status is DeliveryStatus.TTL_EXPIRED
        assert result.hops == 1

    def test_loop_detected_on_cyclic_stale_hops(self, monkeypatch, path4):
        # Corrupt the stale next-hop state into a 0<->1 ping-pong; the
        # visited-state set must catch the repeat, not the TTL.
        router = ResilientRouter(
            ShortestPathScheme(path4), DegradedNetwork(path4)
        )
        router.stale_plan(0, 3)  # memoize before corrupting the metric
        true_paths = {
            (u, v): path4.shortest_path(u, v)
            for u in path4.nodes
            for v in path4.nodes
        }
        real_next = path4.next_hop
        monkeypatch.setattr(
            path4, "shortest_path", lambda u, v: true_paths[(u, v)]
        )
        monkeypatch.setattr(
            path4,
            "next_hop",
            lambda u, v: 1 if u == 0 else 0 if u == 1 else real_next(u, v),
        )
        result = router.route(0, 3)
        assert result.status is DeliveryStatus.LOOP_DETECTED
        assert result.hops <= 2 * path4.n  # caught long before the TTL

    def test_every_status_is_typed_under_heavy_failure(self, grid_metric):
        scheme = ShortestPathScheme(grid_metric)
        plan = FailurePlan.uniform_links(grid_metric, 0.35, seed=9)
        degraded = DegradedNetwork.from_plan(grid_metric, plan)
        router = ResilientRouter(scheme, degraded, policy="local-detour")
        pairs = [(u, v) for u in range(0, 36, 5) for v in range(1, 36, 4)]
        report = router.evaluate(pairs)
        assert report.total == len(pairs)
        for result in report.results:
            assert isinstance(result.status, DeliveryStatus)
            if not math.isfinite(result.post_failure_optimal):
                assert result.status is not DeliveryStatus.DELIVERED
        assert sum(report.outcome_counts().values()) == report.total


class TestStretchAccounting:
    def test_stretch_uses_post_failure_optimum(self, cycle6):
        scheme = ShortestPathScheme(cycle6)
        degraded = DegradedNetwork.from_plan(
            cycle6,
            FailurePlan([FailureEvent(0.0, EventKind.LINK_DOWN, edge=(0, 1))]),
        )
        result = ResilientRouter(
            scheme, degraded, policy="local-detour"
        ).route(0, 2)
        assert result.delivered
        # The denominator is the SURVIVING-topology optimum (4), not the
        # intact one (2): a perfect detour scores stretch 1, not 2.
        assert result.post_failure_optimal == pytest.approx(
            degraded.distance(0, 2)
        )
        assert result.pre_failure_optimal == pytest.approx(2.0)
        assert result.post_failure_optimal == pytest.approx(4.0)
        assert result.stretch == pytest.approx(
            result.cost / result.post_failure_optimal
        )
        assert result.stretch == pytest.approx(1.0)


class TestPolicies:
    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("carrier-pigeon")

    def test_local_detour_beats_fail_fast_at_ten_percent(
        self, grid_metric, nameind_simple
    ):
        plan = FailurePlan.uniform_links(grid_metric, 0.10, seed=17)
        degraded = DegradedNetwork.from_plan(grid_metric, plan)
        pairs = [(u, v) for u in range(0, 36, 3) for v in range(1, 36, 3)]
        reports = {
            policy: ResilientRouter(
                nameind_simple, degraded, policy=policy
            ).evaluate(pairs)
            for policy in ("fail-fast", "local-detour")
        }
        assert (
            reports["local-detour"].delivered
            > reports["fail-fast"].delivered
        )
        # Delivered detoured packets still honestly account their cost.
        for result in reports["local-detour"].results:
            if result.delivered:
                assert result.cost >= (
                    result.post_failure_optimal - 1e-9
                )

    def test_level_escalation_recovers_some_packets(
        self, grid_metric, nameind_simple
    ):
        plan = FailurePlan.uniform_links(grid_metric, 0.10, seed=17)
        degraded = DegradedNetwork.from_plan(grid_metric, plan)
        pairs = [(u, v) for u in range(0, 36, 3) for v in range(1, 36, 3)]
        fail_fast = ResilientRouter(
            nameind_simple, degraded, policy="fail-fast"
        ).evaluate(pairs)
        escalated = ResilientRouter(
            nameind_simple, degraded, policy="level-escalation"
        ).evaluate(pairs)
        assert escalated.delivered >= fail_fast.delivered
        assert escalated.mean_detours() > 0.0


class TestRecovery:
    def test_delivery_restored_after_link_up(
        self, grid_metric, nameind_simple
    ):
        plan = FailurePlan.uniform_links(
            grid_metric, 0.20, seed=5, at=0.0, recover_at=10.0
        )
        degraded = DegradedNetwork.from_plan(grid_metric, plan, at_time=0.0)
        pairs = [(u, v) for u in range(0, 36, 4) for v in range(2, 36, 4)]
        router = ResilientRouter(nameind_simple, degraded, policy="fail-fast")
        degraded_report = router.evaluate(pairs)
        assert degraded_report.delivered < degraded_report.total

        degraded.advance_to(plan, 10.0)
        assert degraded.intact
        recovered_report = router.evaluate(pairs)
        assert recovered_report.delivered == recovered_report.total
        # With the topology healed, stale tables are exact again.
        for result in recovered_report.results:
            assert result.post_failure_optimal == pytest.approx(
                result.pre_failure_optimal
            )


class TestIncrementalRepair:
    def test_incremental_rebuild_matches_cold(self, params):
        graph = grid_2d(5)
        cold, incremental = measure_repair(
            graph, [SimpleNameIndependentScheme], params, keep_schemes=True
        )
        # The warm context reuses every substrate; the cold one builds all.
        assert incremental.built_total == 0
        assert incremental.reused_total >= 2
        assert cold.built_total >= 2
        # ... and the reused scheme routes bit-identically.
        cold_scheme = cold.schemes[0]
        incr_scheme = incremental.schemes[0]
        n = cold_scheme.metric.n
        for u in range(0, n, 3):
            for v in range(1, n, 5):
                a = cold_scheme.route(u, v)
                b = incr_scheme.route(u, v)
                assert a.path == b.path
                assert a.cost == pytest.approx(b.cost)


class TestExperimentE16:
    def test_parallel_rows_match_serial(self, params):
        from repro.experiments.resilience import run
        from repro.pipeline.context import BuildContext

        suite = [("grid 5x5", grid_2d(5))]
        context = BuildContext()
        serial = run(pair_count=24, suite=suite, context=context, jobs=1)
        twin = run(pair_count=24, suite=suite, context=context, jobs=2)
        assert serial.rows == twin.rows

    def test_registered_in_registry(self):
        from repro.pipeline.registry import REGISTRY

        spec = REGISTRY["resilience"]
        assert spec.funcs == ("run", "run_repair")
