"""Tests for the discrete-event traffic simulator."""

import pytest

from repro.core.types import TransportStatus
from repro.graphs.generators import path_graph
from repro.metric.graph_metric import GraphMetric
from repro.runtime.simulator import (
    Demand,
    TrafficSimulator,
    expand_to_physical_path,
    uniform_demands,
)
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme


@pytest.fixture(scope="module")
def path_scheme():
    return ShortestPathScheme(GraphMetric(path_graph(6)))


class TestBasics:
    def test_all_packets_delivered(self, path_scheme):
        demands = [Demand(0, 5), Demand(5, 0), Demand(2, 3)]
        report = TrafficSimulator(path_scheme).run(demands)
        assert report.delivered == 3

    def test_self_demand_delivered_instantly(self, path_scheme):
        report = TrafficSimulator(path_scheme).run([Demand(2, 2)])
        assert report.packets[0].latency == 0.0

    def test_uncongested_latency_is_propagation_plus_service(
        self, path_scheme
    ):
        report = TrafficSimulator(path_scheme, service_time=1.0).run(
            [Demand(0, 5)]
        )
        packet = report.packets[0]
        # 5 hops of distance 1, each with 1 unit serialization.
        assert packet.latency == pytest.approx(5 + 5)
        assert packet.propagation == pytest.approx(5.0)
        assert packet.queueing == 0.0

    def test_zero_service_time_is_pure_propagation(self, path_scheme):
        report = TrafficSimulator(path_scheme, service_time=0.0).run(
            [Demand(0, 5)]
        )
        assert report.packets[0].latency == pytest.approx(5.0)

    def test_negative_service_time_rejected(self, path_scheme):
        with pytest.raises(ValueError):
            TrafficSimulator(path_scheme, service_time=-1.0)


class TestQueueing:
    def test_simultaneous_packets_queue_on_shared_link(self, path_scheme):
        # Two packets injected together on the same route: the second
        # waits one service slot at every shared link.
        demands = [Demand(0, 5, 0.0), Demand(0, 5, 0.0)]
        report = TrafficSimulator(path_scheme, service_time=1.0).run(
            demands
        )
        first, second = report.packets
        assert first.queueing == 0.0
        assert second.queueing > 0.0
        assert second.delivered_at > first.delivered_at

    def test_fifo_order_preserved_per_link(self, path_scheme):
        demands = [Demand(0, 5, float(i) * 0.01) for i in range(4)]
        report = TrafficSimulator(path_scheme, service_time=1.0).run(
            demands
        )
        times = [p.delivered_at for p in report.packets]
        assert times == sorted(times)

    def test_opposite_directions_do_not_queue(self, path_scheme):
        # Directed links: 0->5 and 5->0 traffic never shares a queue.
        demands = [Demand(0, 5, 0.0), Demand(5, 0, 0.0)]
        report = TrafficSimulator(path_scheme, service_time=1.0).run(
            demands
        )
        assert all(p.queueing == 0.0 for p in report.packets)

    def test_spaced_packets_do_not_queue(self, path_scheme):
        demands = [Demand(0, 5, 0.0), Demand(0, 5, 100.0)]
        report = TrafficSimulator(path_scheme, service_time=1.0).run(
            demands
        )
        assert all(p.queueing == 0.0 for p in report.packets)


class TestReports:
    def test_busiest_links(self, path_scheme):
        demands = [Demand(0, 5), Demand(0, 3), Demand(1, 4)]
        report = TrafficSimulator(path_scheme).run(demands)
        links = dict(report.busiest_links(top=10))
        assert links[(1, 2)] == 3  # all three packets cross 1->2
        assert links[(4, 5)] == 1

    def test_total_traffic(self, path_scheme):
        report = TrafficSimulator(path_scheme).run(
            [Demand(0, 2), Demand(3, 5)]
        )
        assert report.total_traffic() == pytest.approx(4.0)

    def test_statistics(self, path_scheme):
        report = TrafficSimulator(path_scheme, service_time=0.0).run(
            [Demand(0, 1), Demand(0, 5)]
        )
        assert report.mean_latency() == pytest.approx(3.0)
        assert report.max_latency() == pytest.approx(5.0)

    def test_empty_run_reports_zero_statistics(self, path_scheme):
        report = TrafficSimulator(path_scheme).run([])
        assert report.delivered == 0
        assert report.mean_latency() == 0.0
        assert report.max_latency() == 0.0
        assert report.mean_queueing() == 0.0
        assert report.total_traffic() == 0.0
        assert report.busiest_links() == []


class TestReportsWithoutChaos:
    """A run without ``chaos=`` reports what every run reports."""

    def test_one_outcome_per_demand(self, path_scheme):
        demands = [Demand(0, 5), Demand(2, 2, 1.0), Demand(4, 1, 0.5)]
        report = TrafficSimulator(path_scheme).run(demands)
        assert [o.demand for o in report.outcomes] == demands
        assert [o.seq for o in report.outcomes] == [0, 1, 2]
        assert all(
            o.status is TransportStatus.DELIVERED for o in report.outcomes
        )
        assert report.offered == 3
        assert report.retransmissions() == 0

    def test_link_transmissions_are_delivered_occupancy(
        self, grid_metric, params
    ):
        scheme = SimpleNameIndependentScheme(grid_metric, params)
        demands = uniform_demands(grid_metric.n, 40, rate=2.0, seed=3)
        report = TrafficSimulator(scheme, service_time=0.5).run(demands)
        occupancy = {}
        for packet in report.packets:
            for link in packet.links:
                occupancy[link] = occupancy.get(link, 0) + 1
        assert report.delivered == len(demands)
        assert report.link_transmissions == occupancy
        assert report.total_transmissions() == sum(occupancy.values())

    def test_horizon_is_last_delivery(self, path_scheme):
        demands = [Demand(0, 5), Demand(5, 0, 0.5), Demand(2, 3, 7.0)]
        report = TrafficSimulator(path_scheme).run(demands)
        last = max(p.delivered_at for p in report.packets)
        assert report.horizon == last == 10.5
        assert report.goodput() == 3 / last

    def test_walk_off_target_gives_up(self, path_scheme):
        demands = [Demand(0, 5), Demand(0, 3)]
        report = TrafficSimulator(path_scheme).run(
            demands, paths=[[0, 1, 2, 3, 4, 5], [0, 1]]
        )
        assert [p.demand for p in report.packets] == demands[:1]
        assert report.outcomes[1].status is TransportStatus.GAVE_UP
        assert report.delivery_rate() == 0.5
        # The dropped walk still occupied the link it crossed.
        assert report.link_transmissions[(0, 1)] == 2


class TestPhysicalExpansion:
    def test_expand_virtual_hops(self, path_scheme):
        metric = path_scheme.metric
        assert expand_to_physical_path(metric, [0, 3, 5]) == [
            0, 1, 2, 3, 4, 5,
        ]
        assert expand_to_physical_path(metric, [2]) == [2]

    def test_load_counted_on_physical_links(self, grid_metric, params):
        # Compact-scheme routes contain virtual hops; link occupancy
        # must be charged to the physical edges realizing them.
        scheme = SimpleNameIndependentScheme(grid_metric, params)
        demands = uniform_demands(grid_metric.n, 40, rate=2.0, seed=3)
        report = TrafficSimulator(scheme, service_time=0.5).run(demands)
        links = report.busiest_links(top=10**9)
        assert links
        for (a, b), occupancy in links:
            assert b in grid_metric.neighbors(a)
            assert occupancy >= 1
        # Every delivered packet's physical path is edge-by-edge real.
        for packet in report.packets:
            for a, b in packet.links:
                assert b in grid_metric.neighbors(a)


class TestWithCompactScheme:
    def test_name_independent_scheme_under_load(self, grid_metric, params):
        scheme = SimpleNameIndependentScheme(grid_metric, params)
        demands = uniform_demands(grid_metric.n, 60, rate=2.0, seed=3)
        report = TrafficSimulator(scheme, service_time=0.5).run(demands)
        assert report.delivered == 60
        # Compact-routing detours inflate traffic versus the oracle.
        oracle = ShortestPathScheme(grid_metric, params)
        oracle_report = TrafficSimulator(oracle, service_time=0.5).run(
            demands
        )
        assert report.total_traffic() >= oracle_report.total_traffic()


class TestUniformDemands:
    def test_deterministic(self):
        assert uniform_demands(10, 5, seed=1) == uniform_demands(
            10, 5, seed=1
        )

    def test_times_increasing(self):
        demands = uniform_demands(10, 20, seed=2)
        times = [d.inject_at for d in demands]
        assert times == sorted(times)

    def test_no_self_demands(self):
        assert all(
            d.source != d.target for d in uniform_demands(5, 50, seed=3)
        )

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            uniform_demands(1, 5)
        with pytest.raises(ValueError):
            uniform_demands(5, 5, rate=0.0)


class TestInjectionOrderTies:
    def test_midflight_packet_wins_tie_against_later_injection(self):
        """Regression: ties must break by *injection* order, as documented.

        Packet A (injected first, 0 -> 2) reaches node 1 at t = 2.0,
        exactly when packet B (injected second at t = 2.0, 1 -> 2)
        appears at node 1.  Both want link (1, 2).  The event queue used
        to order ties by a global push sequence, which hands B — whose
        injection event was pushed before A's mid-flight re-queue — the
        link first.  A was injected first, so A must transmit first.
        """
        scheme = ShortestPathScheme(GraphMetric(path_graph(3)))
        simulator = TrafficSimulator(scheme, service_time=1.0)
        report = simulator.run(
            [Demand(0, 2, inject_at=0.0), Demand(1, 2, inject_at=2.0)]
        )
        first, second = report.packets
        assert first.queueing == pytest.approx(0.0)
        assert second.queueing == pytest.approx(1.0)
        assert first.delivered_at < second.delivered_at

    def test_same_time_injections_serve_lower_index_first(self):
        scheme = ShortestPathScheme(GraphMetric(path_graph(3)))
        simulator = TrafficSimulator(scheme, service_time=1.0)
        report = simulator.run(
            [Demand(0, 2, inject_at=0.0), Demand(0, 2, inject_at=0.0)]
        )
        first, second = report.packets
        assert first.queueing == pytest.approx(0.0)
        assert second.queueing >= 1.0
