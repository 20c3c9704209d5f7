"""Tests for the chaos subsystem: lossy channels, ARQ, table auditing."""

import hashlib
import math
import random

import pytest

from repro.chaos import ArqConfig, ChaosConfig, ChaosNetwork, TransportStatus
from repro.chaos.audit import (
    CorruptionInjector,
    TableAuditor,
    TableIntegrityError,
    quarantine_and_repair,
    verify_against_cold,
)
from repro.core.seeding import derive_seed
from repro.graphs.generators import grid_2d, path_graph
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext
from repro.runtime.simulator import (
    Demand,
    SimulationReport,
    TrafficSimulator,
    uniform_demands,
)
from repro.schemes.cowen_landmark import CowenLandmarkScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme


@pytest.fixture(scope="module")
def path_scheme():
    return ShortestPathScheme(GraphMetric(path_graph(6)))


def _grid_demands(n, count=40, seed=3):
    return uniform_demands(n, count, rate=2.0, seed=seed)


# ----------------------------------------------------------------------
# Seed splitting
# ----------------------------------------------------------------------


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "chaos", 1, 2) == derive_seed(7, "chaos", 1, 2)

    def test_streams_independent(self):
        assert derive_seed(7, "chaos") != derive_seed(7, "demands")
        assert derive_seed(7, "chaos", 0) != derive_seed(7, "chaos", 1)
        assert derive_seed(7, "chaos") != derive_seed(8, "chaos")

    def test_range(self):
        for idx in range(50):
            value = derive_seed(1, "s", idx)
            assert 0 <= value < 2**64

    def test_stream_matches_one_shot_hash(self):
        # The documented convention: the first 8 bytes of
        # sha256("master|stream|i,j,...").
        for indices in [(), (0,), (5, 0, 2), (12, 7, 31, 4)]:
            tag = "-3|chaos-link|" + ",".join(str(i) for i in indices)
            expected = int.from_bytes(
                hashlib.sha256(tag.encode("ascii")).digest()[:8], "big"
            )
            assert derive_seed(-3, "chaos-link", *indices) == expected

    def test_stream_name_required(self):
        with pytest.raises(ValueError):
            derive_seed(1, "")


# ----------------------------------------------------------------------
# Channel configuration and fault draws
# ----------------------------------------------------------------------


class TestChaosConfig:
    def test_defaults_are_faultless(self):
        assert ChaosConfig().faultless

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(loss=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(loss=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(jitter=-1.0)
        with pytest.raises(ValueError):
            ChaosConfig(corruption_bits=0)

    def test_arq_validation(self):
        with pytest.raises(ValueError):
            ArqConfig(ack_timeout=0.0)
        with pytest.raises(ValueError):
            ArqConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ArqConfig(backoff_cap=0.5)
        with pytest.raises(ValueError):
            ArqConfig(max_retries=-1)


class TestLinkFaults:
    def test_faultless_network_never_faults(self, path_scheme):
        chaos = ChaosNetwork(path_scheme.metric, seed=4)
        for packet in range(20):
            faults = chaos.link_faults(packet, 0, 0, header_bits=16)
            assert not faults.dropped
            assert faults.extra_delay == 0.0
            assert not faults.duplicated
            assert faults.corrupt_bits == ()
        assert not chaos.ack_dropped(0, 0, 1)

    def test_draws_are_stateless_and_order_free(self, path_scheme):
        config = ChaosConfig(loss=0.3, jitter=1.0, duplication=0.2)
        first = ChaosNetwork(path_scheme.metric, config, seed=9)
        second = ChaosNetwork(path_scheme.metric, config, seed=9)
        keys = [(3, 0, 2), (1, 1, 0), (3, 0, 2), (0, 0, 0)]
        draws_a = [first.link_faults(*k) for k in keys]
        draws_b = [second.link_faults(*k) for k in reversed(keys)]
        assert draws_a[0] == draws_a[2]  # same key, same faults
        assert draws_a[0] == draws_b[1]  # order of queries irrelevant
        assert draws_a[3] == draws_b[0]
        assert draws_a[1] == draws_b[2]

    def test_draws_match_the_transmission_digest(self, path_scheme):
        # Every fault rate non-zero, so each of the five uniforms (and
        # the corruption sample) decides something.
        config = ChaosConfig(
            loss=0.2,
            jitter=1.5,
            duplication=0.25,
            reorder=0.3,
            corruption=0.4,
            corruption_bits=3,
        )
        chaos = ChaosNetwork(path_scheme.metric, config, seed=11)
        keys = [(p, f, h) for p in range(10) for f in range(6) for h in range(10)]
        random.Random(2).shuffle(keys)
        for packet, flight, hop in keys:
            text = f"11|chaos-link|{packet},{flight},{hop}"
            digest = hashlib.sha512(text.encode("ascii")).digest()
            drop, corrupt, dup, jitter, reorder = (
                int.from_bytes(digest[8 * i : 8 * i + 8], "big") >> 11
                for i in range(5)
            )
            dropped = drop * 2.0**-53 < config.loss
            extra = jitter * 2.0**-53 * config.jitter
            if reorder * 2.0**-53 < config.reorder:
                extra += config.reorder_delay
            bits = ()
            if corrupt * 2.0**-53 < config.corruption and not dropped:
                rng = random.Random(int.from_bytes(digest[40:], "big"))
                bits = tuple(sorted(rng.sample(range(24), 3)))
            got = chaos.link_faults(packet, flight, hop, header_bits=24)
            assert got.dropped == dropped
            assert got.extra_delay == extra
            assert got.duplicated == (
                dup * 2.0**-53 < config.duplication and not dropped
            )
            assert got.corrupt_bits == bits

    def test_ack_draw_is_one_digest_word(self, path_scheme):
        chaos = ChaosNetwork(path_scheme.metric, ChaosConfig(loss=0.05), seed=11)
        for packet in range(40):
            for ack_seq in range(5):
                for links in (1, 7, 40):
                    text = f"11|chaos-ack|{packet},{ack_seq}"
                    digest = hashlib.sha512(text.encode("ascii")).digest()
                    u = (int.from_bytes(digest[:8], "big") >> 11) * 2.0**-53
                    expected = u < 1.0 - 0.95**links
                    assert chaos.ack_dropped(packet, ack_seq, links) == expected
        assert not chaos.ack_dropped(0, 0, 0)

    def test_drops_couple_pathwise_across_loss_rates(self, path_scheme):
        metric = path_scheme.metric
        low = ChaosNetwork(
            metric, ChaosConfig(loss=0.02, jitter=1.0, duplication=0.1), seed=5
        )
        high = ChaosNetwork(
            metric, ChaosConfig(loss=0.05, jitter=1.0, duplication=0.1), seed=5
        )
        keys = [(p, f, h) for p in range(100) for f in range(4) for h in range(25)]
        drops = [0, 0]
        for key in keys:
            a, b = low.link_faults(*key), high.link_faults(*key)
            assert b.dropped or not a.dropped
            assert a.extra_delay == b.extra_delay
            if not b.dropped:
                assert a.duplicated == b.duplicated
            drops[0] += a.dropped
            drops[1] += b.dropped
        acks = [0, 0]
        for packet in range(2500):
            for ack_seq in range(4):
                lost = low.ack_dropped(packet, ack_seq, 12)
                lost_high = high.ack_dropped(packet, ack_seq, 12)
                assert lost_high or not lost
                acks[0] += lost
                acks[1] += lost_high
        assert 0 < drops[0] < drops[1] and 0 < acks[0] < acks[1]

    def test_draws_fire_at_their_rates(self, path_scheme):
        """Fixed keys, so the tallies are deterministic; 5 sigma bounds."""
        rate, count = 0.3, 200_000
        metric = path_scheme.metric
        # The draws do not depend on the rates, so the network without
        # loss shows the duplication and corruption draws of crossings
        # the lossy network drops.
        lossy = ChaosNetwork(metric, ChaosConfig(loss=rate), seed=3)
        faulty = ChaosNetwork(
            metric,
            ChaosConfig(
                duplication=rate,
                reorder=rate,
                reorder_delay=1.0,
                corruption=rate,
                corruption_bits=4,
            ),
            seed=3,
        )
        drops = dups = both = reorders = corrupts = 0
        for index in range(count):
            key = (index // 1000, index % 7, index % 1000)
            dropped = lossy.link_faults(*key).dropped
            faults = faulty.link_faults(*key, header_bits=40)
            drops += dropped
            dups += faults.duplicated
            both += dropped and faults.duplicated
            reorders += faults.extra_delay == 1.0
            bits = faults.corrupt_bits
            if bits:
                corrupts += 1
                assert len(set(bits)) == 4 and list(bits) == sorted(bits)
                assert 0 <= bits[0] and bits[-1] < 40

        def within(hits, p, n):
            return abs(hits - p * n) <= 5 * math.sqrt(n * p * (1 - p))

        for hits in (drops, dups, reorders, corrupts):
            assert within(hits, rate, count)
        assert within(both, rate * rate, count)

        acks = ChaosNetwork(metric, ChaosConfig(loss=0.05), seed=3)
        lost = sum(acks.ack_dropped(index, 0, 40) for index in range(20_000))
        assert within(lost, 1 - 0.95**40, 20_000)

    def test_distance_delegates_to_base(self, path_scheme):
        metric = path_scheme.metric
        chaos = ChaosNetwork(metric, ChaosConfig(loss=0.5), seed=1)
        assert chaos.distance(0, 1) == metric.distance(0, 1)
        assert chaos.metric is metric


# ----------------------------------------------------------------------
# Zero-fault identity (satellite 1)
# ----------------------------------------------------------------------


def _run_pair(scheme, demands, trace=False):
    sim = TrafficSimulator(scheme)
    plain = sim.run(demands, trace=trace)
    degenerate = sim.run(
        demands, trace=trace, chaos=ChaosNetwork(scheme.metric, seed=0)
    )
    return plain, degenerate


def _all_six(grid_metric, params, labeled_nonsf, labeled_sf,
             nameind_simple, nameind_sf):
    return [
        ShortestPathScheme(grid_metric, params),
        CowenLandmarkScheme(grid_metric, params),
        labeled_nonsf,
        labeled_sf,
        nameind_simple,
        nameind_sf,
    ]


class TestZeroFaultIdentity:
    def test_bit_identical_across_all_schemes(
        self, grid_metric, params, labeled_nonsf, labeled_sf,
        nameind_simple, nameind_sf,
    ):
        """A run without ``chaos=`` equals one over an explicit
        faultless ChaosNetwork bit for bit: paths, costs, latencies,
        queueing, link occupancy."""
        demands = _grid_demands(grid_metric.n)
        schemes = _all_six(
            grid_metric, params, labeled_nonsf, labeled_sf,
            nameind_simple, nameind_sf,
        )
        for scheme in schemes:
            plain, degenerate = _run_pair(scheme, demands)
            assert len(plain.packets) == len(degenerate.packets)
            for p, d in zip(plain.packets, degenerate.packets):
                assert p.path == d.path
                assert p.physical_path == d.physical_path
                assert p.delivered_at == d.delivered_at  # bitwise
                assert p.queueing == d.queueing
                assert p.propagation == d.propagation
            assert plain.busiest_links(10) == degenerate.busiest_links(10)
            assert plain.outcomes == degenerate.outcomes
            assert plain.horizon == degenerate.horizon
            assert degenerate.delivery_rate() == 1.0
            assert degenerate.retransmissions() == 0

    def test_traces_identical(self, nameind_sf):
        demands = _grid_demands(nameind_sf.metric.n, count=12)
        plain, degenerate = _run_pair(nameind_sf, demands, trace=True)
        for p, d in zip(plain.packets, degenerate.packets):
            assert (p.trace is None) == (d.trace is None)
            if p.trace is not None:
                assert p.trace.to_json() == d.trace.to_json()

    def test_self_demand(self, path_scheme):
        report = TrafficSimulator(path_scheme).run(
            [Demand(2, 2, inject_at=1.5)],
            chaos=ChaosNetwork(path_scheme.metric, seed=0),
        )
        assert report.delivery_rate() == 1.0
        assert report.packets[0].delivered_at == 1.5


# ----------------------------------------------------------------------
# Transport: loss, ARQ, duplication, corruption
# ----------------------------------------------------------------------


class TestTransport:
    def test_loss_without_arq_drops_packets(self, path_scheme):
        demands = _grid_demands(6, count=60)
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(loss=0.3), seed=2
        )
        report = TrafficSimulator(path_scheme).run(demands, chaos=chaos)
        assert report.delivery_rate() < 1.0
        counts = report.status_counts()
        assert counts["delivered"] == report.delivered
        assert counts["gave-up"] == report.offered - report.delivered
        # One attempt each: a lost packet dies on its only flight.
        assert all(o.attempts == 1 for o in report.outcomes)

    def test_arq_recovers_delivery(self, path_scheme):
        demands = _grid_demands(6, count=60)
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(loss=0.2), seed=2
        )
        report = TrafficSimulator(path_scheme).run(
            demands, chaos=chaos, arq=ArqConfig(max_retries=40)
        )
        assert report.delivery_rate() == 1.0
        assert report.retransmissions() > 0
        assert report.retransmission_overhead() > 0.0

    def test_total_loss_gives_up_after_budget(self, path_scheme):
        demands = [Demand(0, 5), Demand(4, 1, inject_at=0.5)]
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(loss=1.0), seed=2
        )
        arq = ArqConfig(max_retries=3)
        report = TrafficSimulator(path_scheme).run(
            demands, chaos=chaos, arq=arq
        )
        assert report.delivered == 0
        for outcome in report.outcomes:
            assert outcome.status is TransportStatus.GAVE_UP
            assert outcome.attempts == 1 + arq.max_retries

    def test_duplicates_suppressed_but_counted(self, path_scheme):
        demands = _grid_demands(6, count=40)
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(duplication=0.5), seed=7
        )
        report = TrafficSimulator(path_scheme).run(
            demands, chaos=chaos, arq=ArqConfig(max_retries=4)
        )
        # Duplication alone never loses anything, and the receiver
        # delivers each sequence number exactly once.
        assert report.delivery_rate() == 1.0
        assert report.delivered == len(demands)
        assert report.duplicate_deliveries() > 0

    def test_corruption_detected_with_arq(self, path_scheme):
        demands = _grid_demands(6, count=60)
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(corruption=0.3), seed=5
        )
        report = TrafficSimulator(path_scheme).run(
            demands, chaos=chaos, arq=ArqConfig(max_retries=40)
        )
        # Single-bit flips never slip past the CRC; every corrupted
        # copy is detected, dropped, and eventually retransmitted.
        assert report.corrupt_detected() > 0
        assert report.corrupt_undetected() == 0
        assert report.delivery_rate() == 1.0

    def test_corruption_fatal_without_checksum(self, path_scheme):
        demands = _grid_demands(6, count=60)
        chaos = ChaosNetwork(
            path_scheme.metric, ChaosConfig(corruption=0.3), seed=5
        )
        report = TrafficSimulator(path_scheme).run(demands, chaos=chaos)
        assert report.corrupt_undetected() > 0
        assert report.corrupt_detected() == 0
        assert report.delivery_rate() < 1.0
        statuses = {o.status for o in report.outcomes}
        assert TransportStatus.CORRUPT_UNDETECTED in statuses

    def test_delivery_monotone_in_loss(self, path_scheme):
        """Fixed-seed coupling: raising only the loss rate can never
        deliver a packet the lower rate lost."""
        demands = _grid_demands(6, count=80)
        sim = TrafficSimulator(path_scheme)
        rates = []
        for loss in (0.0, 0.1, 0.2, 0.4, 0.7, 1.0):
            chaos = ChaosNetwork(
                path_scheme.metric, ChaosConfig(loss=loss), seed=11
            )
            rates.append(sim.run(demands, chaos=chaos).delivery_rate())
        assert rates[0] == 1.0
        assert rates[-1] == 0.0
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_runs_deterministic(self, path_scheme):
        demands = _grid_demands(6, count=40)
        config = ChaosConfig(
            loss=0.15, jitter=0.8, duplication=0.1, corruption=0.05
        )
        sim = TrafficSimulator(path_scheme)

        def snapshot():
            chaos = ChaosNetwork(path_scheme.metric, config, seed=13)
            report = sim.run(
                demands, chaos=chaos, arq=ArqConfig(max_retries=10)
            )
            return [
                (
                    o.seq,
                    o.status,
                    o.attempts,
                    o.transmissions,
                    o.delivered_at,
                    o.duplicates,
                    o.corrupt_detected,
                )
                for o in report.outcomes
            ]

        assert snapshot() == snapshot()

    def test_truncated_walk_counts_as_undelivered(self, path_scheme):
        demands = [Demand(0, 5), Demand(1, 4, inject_at=0.1)]
        walks = [[0, 1, 2], [1, 2, 3, 4]]  # first stops short of 5
        chaos = ChaosNetwork(path_scheme.metric, seed=0)
        report = TrafficSimulator(path_scheme).run(
            demands, paths=walks, chaos=chaos, arq=ArqConfig(max_retries=2)
        )
        assert report.delivered == 1
        statuses = [o.status for o in report.outcomes]
        assert statuses[0] is TransportStatus.GAVE_UP
        assert statuses[1] is TransportStatus.DELIVERED

    def test_arq_requires_codec(self, grid_metric, params):
        class NoCodec(ShortestPathScheme):
            def header_codec(self):
                raise AttributeError("no codec")

        scheme = NoCodec(grid_metric, params)
        scheme.header_codec = None  # type: ignore[assignment]
        with pytest.raises(ValueError):
            TrafficSimulator(scheme).run(
                [Demand(0, 1)], arq=ArqConfig(max_retries=1)
            )


# ----------------------------------------------------------------------
# busiest_links determinism (satellite 4)
# ----------------------------------------------------------------------


class TestBusiestLinksTieBreak:
    def test_transmission_counts_tie_break_by_link_id(self):
        # Adversarial insertion order; every link has the same count.
        links = [(9, 1), (0, 3), (4, 4), (0, 2), (1, 0)]
        report = SimulationReport(
            packets=[], link_transmissions={k: 7 for k in links}
        )
        assert report.busiest_links(len(links)) == [
            ((0, 2), 7),
            ((0, 3), 7),
            ((1, 0), 7),
            ((4, 4), 7),
            ((9, 1), 7),
        ]

    def test_mixed_counts_rank_before_tie_break(self):
        report = SimulationReport(
            packets=[],
            link_transmissions={(5, 6): 1, (0, 1): 2, (3, 4): 2},
        )
        assert report.busiest_links(3) == [
            ((0, 1), 2),
            ((3, 4), 2),
            ((5, 6), 1),
        ]

    def test_plain_run_occupancy_tie_break(self, path_scheme):
        """A run without ``chaos=`` counts each path's links once; equal
        counts rank by link id, not by injection order."""
        report = TrafficSimulator(path_scheme).run(
            [Demand(4, 5), Demand(1, 2), Demand(3, 2)]
        )
        assert report.busiest_links(3) == [
            ((1, 2), 1),
            ((3, 2), 1),
            ((4, 5), 1),
        ]


# ----------------------------------------------------------------------
# Table-integrity auditing
# ----------------------------------------------------------------------


def _fresh_grid_context():
    context = BuildContext()
    metric = context.metric(grid_2d(5))
    return context, metric


class TestTableAudit:
    def test_clean_tables_audit_clean(self):
        _, metric = _fresh_grid_context()
        auditor = TableAuditor(metric)
        assert auditor.audit() == []
        auditor.verify()  # must not raise

    def test_injector_detected_exactly(self):
        _, metric = _fresh_grid_context()
        auditor = TableAuditor(metric)
        injected = CorruptionInjector(seed=3).corrupt(metric, [11, 4, 19])
        assert injected == [4, 11, 19]
        assert auditor.audit() == [4, 11, 19]
        with pytest.raises(TableIntegrityError):
            auditor.verify()

    def test_injector_rejects_bad_node(self):
        _, metric = _fresh_grid_context()
        with pytest.raises(ValueError):
            CorruptionInjector().corrupt(metric, [metric.n])

    def test_quarantine_and_repair_heals(self):
        context, metric = _fresh_grid_context()
        auditor = TableAuditor(metric)
        victims = [2, 7, 13, 21]
        injected = CorruptionInjector(seed=8).corrupt(metric, victims)
        report = quarantine_and_repair(context, auditor, injected=injected)
        assert report.detection_rate == 1.0
        assert report.detected == sorted(victims)
        assert report.rows_respliced == len(victims)
        assert report.clean_after
        assert auditor.audit() == []

    def test_repaired_scheme_bit_identical_to_cold(self):
        context, metric = _fresh_grid_context()
        scheme = context.scheme(SimpleNameIndependentScheme, metric)
        auditor = TableAuditor(metric)
        injected = CorruptionInjector(seed=1).corrupt(metric, [6, 17])
        quarantine_and_repair(context, auditor, injected=injected)
        pairs = verify_against_cold(
            scheme, SimpleNameIndependentScheme, grid_2d(5), seed=5
        )
        assert pairs > 0

    def test_verify_against_cold_flags_divergence(self):
        context, metric = _fresh_grid_context()
        scheme = context.scheme(ShortestPathScheme, metric)
        true_route = scheme.route

        def lying_route(source, target):
            result = true_route(source, target)
            result.cost += 1.0
            return result

        scheme.route = lying_route
        try:
            with pytest.raises(TableIntegrityError):
                verify_against_cold(
                    scheme, ShortestPathScheme, grid_2d(5), seed=5
                )
        finally:
            scheme.route = true_route

    def test_repair_rows_empty_is_noop(self):
        context, metric = _fresh_grid_context()
        assert context.repair_rows(metric, []) == 0

    def test_row_digest_sensitive_and_stable(self):
        _, metric = _fresh_grid_context()
        before = metric.row_digest(3)
        assert before == metric.row_digest(3)
        rng = random.Random(0)
        CorruptionInjector(seed=rng.randrange(2**32)).corrupt(metric, [3])
        assert metric.row_digest(3) != before
        assert metric.row_digest(4) == metric.row_digest(4)
