"""Discrete-event traffic simulation over a routing scheme.

The paper evaluates schemes by worst-case stretch and table size; a
deployment additionally cares how those paths behave *under load*.  This
module provides a store-and-forward, discrete-event simulator:

* a packet injected at time ``t`` follows the exact hop sequence its
  routing scheme produces (``RouteResult.path`` — including detours into
  search trees, realized as shortest-path travel);
* virtual hops between non-adjacent nodes (search-tree detours,
  "realized as shortest-path travel") are expanded into the metric's
  actual shortest path, so serialization and per-link load are charged
  to the *physical* graph edges the packet really occupies;
* every directed physical link serializes packets: one transmission per
  ``service_time`` time units, FIFO, plus a propagation delay equal to
  the link's metric length;
* the simulator reports per-packet latency, pure propagation time, and
  queueing delay, so congestion effects of a scheme's detours (e.g.
  search-tree hot spots around net centers) are measurable.

The event queue is deterministic: ties are broken by injection order.

Unreliable channels (:mod:`repro.chaos`): passing ``chaos=`` wraps the
run in seeded per-link fault processes (drop, jitter, duplication,
reordering, header corruption), and ``arq=`` additionally turns on the
end-to-end reliability protocol — per-packet sequence numbers,
checksummed headers, receiver duplicate suppression, and sender
retransmission with exponential backoff.  Every packet then terminates
with a typed :class:`~repro.core.types.TransportStatus` recorded in
:attr:`SimulationReport.outcomes`.  There is one event loop: a run
without ``chaos=`` goes through it over the faultless
``ChaosNetwork(metric)``, which draws no faults, so every run reports
outcomes, per-link transmissions and its horizon alike.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
import statistics
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.types import NodeId, TransportStatus
from repro.metric.graph_metric import GraphMetric
from repro.observability.trace import RouteTrace, TraceEvent
from repro.pipeline.sampling import draw_pair
from repro.runtime.bitstream import flip_bits
from repro.runtime.headers import (
    ChecksumCodec,
    FieldSpec,
    HeaderCodec,
)
from repro.schemes.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: resilience.router imports this module at import time).
    from repro.chaos.channel import ChaosNetwork
    from repro.chaos.protocol import ArqConfig

#: Wire name of the reliability-mode sequence-number field.
TRANSPORT_SEQ_FIELD = "transport_seq"
#: Width of the sequence-number field (seq = packet index mod 2^16).
TRANSPORT_SEQ_BITS = 16

# Event kinds of the chaos loop, ordered so that at an equal
# (time, packet) a data hop precedes an ack, which precedes a timer —
# an ack arriving exactly at the timeout cancels the retransmission.
_HOP, _ACK, _TIMER = 0, 1, 2

#: Duplication spawns independently forwarded copies; this caps the
#: branching process per packet (deterministically) so a pathological
#: duplication rate cannot melt the event heap.
_MAX_FLIGHTS_PER_PACKET = 32


def expand_to_physical_path(
    metric: GraphMetric, path: List[NodeId]
) -> List[NodeId]:
    """Expand a scheme's hop sequence into physical graph edges.

    Scheme paths may jump between non-adjacent nodes (a virtual hop
    whose cost is the shortest-path distance); each such hop is realized
    as the metric's canonical shortest path, so every consecutive pair
    in the result is an edge of the underlying graph and the total
    length is unchanged.
    """
    if len(path) <= 1:
        return list(path)
    physical = [path[0]]
    for a, b in zip(path, path[1:]):
        if a == b:
            continue
        physical.extend(metric.shortest_path(a, b)[1:])
    return physical


@dataclasses.dataclass
class Demand:
    """One packet to inject: source, target, and injection time."""

    source: NodeId
    target: NodeId
    inject_at: float = 0.0


@dataclasses.dataclass
class DeliveredPacket:
    """Outcome of one simulated packet.

    ``path`` is the scheme's hop sequence (may contain virtual hops);
    ``physical_path`` is its expansion into actual graph edges — the
    links the packet occupied.  They coincide for schemes that only
    ever name neighbours (e.g. the shortest-path baseline).
    """

    demand: Demand
    path: List[NodeId]
    delivered_at: float
    propagation: float
    queueing: float
    physical_path: Optional[List[NodeId]] = None
    #: Route-decision trace, populated when ``run(..., trace=True)``.
    trace: Optional[RouteTrace] = None

    @property
    def latency(self) -> float:
        return self.delivered_at - self.demand.inject_at

    @property
    def physical_nodes(self) -> List[NodeId]:
        """The physical hop sequence (falls back to ``path``)."""
        return self.physical_path if self.physical_path is not None else self.path

    @property
    def links(self) -> List[Tuple[NodeId, NodeId]]:
        """Directed physical links the packet occupied, in order."""
        nodes = self.physical_nodes
        return list(zip(nodes, nodes[1:]))


@dataclasses.dataclass
class PacketOutcome:
    """End-to-end transport record of one offered packet.

    One entry per *demand* — delivered or not — where
    :class:`DeliveredPacket` only exists for arrivals.  ``attempts``
    counts sender transmissions of the whole path (1 = no retry);
    ``transmissions`` counts individual link crossings, including
    retransmissions and duplicated copies.
    """

    demand: Demand
    #: Per-packet sequence number (injection index; sent on the
    #: wire mod 2^16 in reliability mode).
    seq: int
    status: TransportStatus
    attempts: int
    transmissions: int
    #: Physical links one clean traversal of this packet's path needs.
    path_links: int
    delivered_at: Optional[float]
    #: Extra copies that reached the destination (suppressed by the
    #: receiver in reliability mode, but counted).
    duplicates: int
    #: Copies discarded because the header checksum caught a bit flip.
    corrupt_detected: int
    #: Copies whose corrupted header passed validation (no checksum,
    #: or a CRC collision) and were silently misrouted.
    corrupt_undetected: int


@dataclasses.dataclass
class SimulationReport:
    """Aggregate results of one simulation run.

    All statistics are well-defined on an empty run (zero packets):
    means and maxima report 0.0 rather than raising.

    Every run carries :attr:`outcomes` (one :class:`PacketOutcome` per
    offered demand), actual per-link transmission counts, and the
    simulated-time horizon; the reliability metrics below derive from
    those.
    """

    packets: List[DeliveredPacket]
    #: Per-demand transport outcomes, in injection order.
    outcomes: List[PacketOutcome] = dataclasses.field(default_factory=list)
    #: Actual transmissions per directed link, including retries and
    #: duplicates.
    link_transmissions: Dict[Tuple[NodeId, NodeId], int] = dataclasses.field(
        default_factory=dict
    )
    #: Simulated time of the last event processed (0.0 if none).
    horizon: float = 0.0

    @property
    def delivered(self) -> int:
        return len(self.packets)

    @property
    def offered(self) -> int:
        """Demands injected, delivered or not."""
        return len(self.outcomes)

    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 1.0

    def status_counts(self) -> Dict[str, int]:
        """Offered packets per :class:`TransportStatus` value."""
        counts = {status.value: 0 for status in TransportStatus}
        for outcome in self.outcomes:
            counts[outcome.status.value] += 1
        return counts

    def retransmissions(self) -> int:
        """Sender retransmissions across all packets (attempts - 1)."""
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    def total_transmissions(self) -> int:
        """Link crossings charged, incl. retries and duplicates."""
        return sum(o.transmissions for o in self.outcomes)

    def retransmission_overhead(self) -> float:
        """Extra link crossings per useful one: ``tx / ideal - 1``.

        ``ideal`` is the crossings one clean traversal of every
        *delivered* packet's path needs; 0.0 means every transmission
        was useful.
        """
        ideal = sum(
            o.path_links
            for o in self.outcomes
            if o.status is TransportStatus.DELIVERED
        )
        if ideal == 0:
            return 0.0
        return self.total_transmissions() / ideal - 1.0

    def duplicate_deliveries(self) -> int:
        """Extra copies that arrived (suppressed, but counted)."""
        return sum(o.duplicates for o in self.outcomes)

    def corrupt_detected(self) -> int:
        return sum(o.corrupt_detected for o in self.outcomes)

    def corrupt_undetected(self) -> int:
        return sum(o.corrupt_undetected for o in self.outcomes)

    def goodput(self) -> float:
        """Delivered packets per simulated time unit."""
        if self.horizon <= 0:
            return 0.0
        return self.delivered / self.horizon

    def mean_latency(self) -> float:
        if not self.packets:
            return 0.0
        return statistics.fmean(p.latency for p in self.packets)

    def max_latency(self) -> float:
        if not self.packets:
            return 0.0
        return max(p.latency for p in self.packets)

    def mean_queueing(self) -> float:
        if not self.packets:
            return 0.0
        return statistics.fmean(p.queueing for p in self.packets)

    def total_traffic(self) -> float:
        """Total distance travelled by all packets (network load)."""
        return sum(p.propagation for p in self.packets)

    def busiest_links(self, top: int = 5) -> List[Tuple[Tuple[NodeId, NodeId], int]]:
        """Most-occupied directed *physical* links.

        Virtual hops are expanded to the underlying graph edges before
        counting, so shared physical edges are not under-counted.  The
        count is actual transmissions, retries and duplicates included;
        a faultless run without ARQ crosses each link of each packet's
        path once.  The ranking is fully deterministic: equal counts
        tie-break by ascending link id, never by dict or heap order.
        """
        ranked = sorted(
            self.link_transmissions.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:top]


class TrafficSimulator:
    """Store-and-forward simulation of a routing scheme under load.

    Args:
        scheme: Any routing scheme; its ``route()`` defines each
            packet's hop sequence.
        service_time: Per-link serialization time (one packet per
            ``service_time`` per directed link); 0 disables queueing.
    """

    def __init__(
        self, scheme: RoutingScheme, service_time: float = 1.0
    ) -> None:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self._scheme = scheme
        self._metric = scheme.metric
        self._service_time = service_time

    def run(
        self,
        demands: Iterable[Demand],
        trace: bool = False,
        paths: Optional[Sequence[List[NodeId]]] = None,
        chaos: Optional["ChaosNetwork"] = None,
        arq: Optional["ArqConfig"] = None,
    ) -> SimulationReport:
        """Simulate all demands to completion.

        Args:
            demands: Packets to inject, in injection order.
            trace: When ``True``, record a route-decision trace for
                every packet (``DeliveredPacket.trace``) by routing via
                ``scheme.trace_route``; hop sequences are identical
                either way.  Transport events (drops,
                retransmissions, corruption) are appended to the trace
                with zero-cost, zero-node events, so replay still
                reproduces the route.
            paths: Optional precomputed *physical* hop sequence per
                demand (consecutive entries must be graph edges),
                bypassing the scheme entirely.  The churn driver uses
                this to push the walks a :class:`ResilientRouter`
                actually took — detours, truncated drops and all —
                through the queueing model, which the scheme's own
                ``route()`` against the intact metric could not
                reproduce.  Mutually exclusive with ``trace``.  A walk
                that ends anywhere other than the demand's target
                counts as undelivered (the routing plane dropped it;
                the transport never completed).
            chaos: Optional :class:`~repro.chaos.channel.ChaosNetwork`
                injecting seeded per-link faults; omitted, it is the
                faultless ``ChaosNetwork(scheme.metric)``.  Link
                propagation is charged from the chaos network (its
                wrapped metric or degraded overlay).
            arq: Optional :class:`~repro.chaos.protocol.ArqConfig`
                switching on the end-to-end reliability protocol
                (sequence numbers, checksummed headers, duplicate
                suppression, retransmission with backoff).

        Returns:
            A :class:`SimulationReport` with one :class:`PacketOutcome`
            per demand.
        """
        metric = self._metric
        if chaos is None:
            # Imported lazily: the runtime layer must not depend on the
            # chaos package at import time (resilience.router imports
            # this module while it is still initializing).
            from repro.chaos.channel import ChaosNetwork

            chaos = ChaosNetwork(metric)
        # Precompute each packet's hop sequence from the scheme, and its
        # expansion into the physical edges it will actually occupy.
        packets: List[Tuple[Demand, List[NodeId], List[NodeId]]] = []
        traces: List[Optional[RouteTrace]] = []
        if paths is not None:
            if trace:
                raise ValueError("paths= and trace=True are exclusive")
            demands = list(demands)
            if len(paths) != len(demands):
                raise ValueError(
                    f"{len(paths)} paths for {len(demands)} demands"
                )
            for demand, given in zip(demands, paths):
                walk = list(given) if given else [demand.source]
                packets.append((demand, walk, walk))
                traces.append(None)
        else:
            for demand in demands:
                if demand.source == demand.target:
                    packets.append(
                        (demand, [demand.source], [demand.source])
                    )
                    traces.append(None)
                    continue
                if trace:
                    result, packet_trace = self._scheme.trace_route(
                        demand.source, demand.target
                    )
                    traces.append(packet_trace)
                else:
                    result = self._scheme.route(demand.source, demand.target)
                    traces.append(None)
                packets.append(
                    (
                        demand,
                        result.path,
                        expand_to_physical_path(metric, result.path),
                    )
                )
        return self._run_chaos(packets, traces, chaos, arq)

    # -- transport: wire headers and the event loop ---------------------

    def _transport_codec(
        self, chaos: "ChaosNetwork", arq: Optional["ArqConfig"]
    ) -> Optional[HeaderCodec]:
        """The on-wire codec for this run, or ``None`` if headers are
        irrelevant (no corruption process and no reliability mode).

        In reliability mode the scheme codec is extended with the
        transport sequence number and a trailing CRC
        (:class:`~repro.runtime.headers.ChecksumCodec`); with ARQ off
        the raw scheme codec is used — corruption then has nothing to
        check against and goes undetected.
        """
        if arq is None and chaos.config.corruption == 0.0:
            return None
        codec_factory = getattr(self._scheme, "header_codec", None)
        if codec_factory is None:
            raise ValueError(
                f"scheme {self._scheme.name!r} has no header_codec(); "
                "header corruption / reliability mode needs a wire format"
            )
        codec = codec_factory()
        if arq is None:
            return codec
        return ChecksumCodec(
            codec.fields
            + [FieldSpec(TRANSPORT_SEQ_FIELD, TRANSPORT_SEQ_BITS)],
            arq.checksum_bits,
        )

    def _header_values(self, target: NodeId, seq: int) -> Dict[str, int]:
        """Representative header contents for one packet.

        The transport treats the header as opaque bits — only its size
        and checksum matter to the fault model — so scheme fields are
        filled with the natural value (label / name) reduced into the
        field width, and fields the scheme fills hop-by-hop stay 0.
        """
        scheme = self._scheme
        values: Dict[str, int] = {TRANSPORT_SEQ_FIELD: seq}
        if hasattr(scheme, "routing_label"):
            values["target_label"] = int(scheme.routing_label(target))
        if hasattr(scheme, "name_of"):
            values["target_name"] = int(scheme.name_of(target))
        return values

    def _run_chaos(
        self,
        packets: List[Tuple[Demand, List[NodeId], List[NodeId]]],
        traces: List[Optional[RouteTrace]],
        chaos: "ChaosNetwork",
        arq: Optional["ArqConfig"],
    ) -> SimulationReport:
        """The simulator's event loop: per-link faults, optional ARQ.

        Every :meth:`run` ends here; one without ``chaos=`` brings the
        identity channel ``ChaosNetwork(metric)``, which draws no
        faults (``link_faults`` is never called on a faultless
        channel).  Without faults or ARQ each packet is one flight,
        flight ids follow injection order, and the event tuples
        ``(time, packet, kind, flight, hop)`` order like
        ``(time, packet, hop)``: ``kind`` and ``flight`` are constant
        per packet, so ties at equal times resolve in injection order,
        including mid-flight re-queued events.
        """
        service = self._service_time
        reliability = arq is not None
        faultless = chaos.config.faultless
        codec = self._transport_codec(chaos, arq)
        checksummed = isinstance(codec, ChecksumCodec)

        # Per-packet precomputation: link delays (from the chaos
        # network — the wrapped metric or degraded overlay), charged per
        # hop and summed into the clean-path propagation, and the
        # encoded wire header corruption flips bits of.
        delays: List[List[float]] = []
        propagation: List[float] = []
        headers: List[Optional[Tuple[bytes, int]]] = []
        for index, (demand, _, physical) in enumerate(packets):
            delays.append(
                [chaos.distance(a, b) for a, b in zip(physical, physical[1:])]
            )
            propagation.append(sum(delays[index]))
            if codec is not None and len(physical) > 1:
                values = self._header_values(
                    demand.target, index % (1 << TRANSPORT_SEQ_BITS)
                )
                clamped = {
                    f.name: (values.get(f.name, 0) % (1 << f.width))
                    for f in codec.fields
                    if f.width > 0
                }
                headers.append(codec.encode(clamped))
            else:
                headers.append(None)

        states = [_PacketState() for _ in packets]
        # Flight bookkeeping: a flight is one independently forwarded
        # copy (initial attempt, retransmission, or duplicate).  Ids
        # are assigned in creation order, which the deterministic event
        # loop makes deterministic in turn.
        flight_packet: List[int] = []
        flight_queueing: List[float] = []

        events: List[Tuple[float, int, int, int, int]] = []
        link_free_at: Dict[Tuple[NodeId, NodeId], float] = {}
        link_tx: Dict[Tuple[NodeId, NodeId], int] = {}
        # Heap pops come in non-decreasing time order, so the last pop
        # is the latest pushed event; only self-deliveries and copies
        # lost in flight (never pushed) enter the horizon by ``max``.
        horizon = 0.0

        def retransmit_timeout(index: int) -> float:
            if arq.ack_timeout is not None:
                return arq.ack_timeout
            # Textbook RTO seed: twice the packet's own no-queueing
            # round-trip (forward serialization + propagation, plus the
            # propagation-only ack), with a constant floor.
            _, _, physical = packets[index]
            links = len(physical) - 1
            rtt = links * service + 2.0 * propagation[index]
            return 2.0 * rtt + 1.0

        def launch(index: int, at: float, first: bool) -> None:
            state = states[index]
            state.attempts += 1
            state.flights += 1
            fid = len(flight_packet)
            flight_packet.append(index)
            flight_queueing.append(0.0)
            heapq.heappush(events, (at, index, _HOP, fid, 0))
            if reliability:
                delay = retransmit_timeout(index) * min(
                    arq.backoff ** (state.attempts - 1), arq.backoff_cap
                )
                heapq.heappush(
                    events, (at + delay, index, _TIMER, state.attempts - 1, 0)
                )
            packet_trace = traces[index]
            if packet_trace is not None and not first:
                packet_trace.events.append(
                    TraceEvent(
                        node=packets[index][0].source,
                        phase="retransmit",
                        entry=(
                            f"arq: attempt {state.attempts} after "
                            "ack timeout"
                        ),
                    )
                )

        for index, (demand, _, physical) in enumerate(packets):
            if len(physical) == 1:
                # Self-delivery (source == target): delivered at
                # injection; a truncated single-node walk to a
                # different target stays undelivered.
                state = states[index]
                state.attempts = 1
                if physical[0] == demand.target:
                    state.delivered_at = demand.inject_at
                horizon = max(horizon, demand.inject_at)
                continue
            launch(index, demand.inject_at, first=True)

        now = 0.0
        while events:
            now, index, kind, s1, s2 = heapq.heappop(events)
            state = states[index]
            demand, _, physical = packets[index]
            if kind == _ACK:
                state.acked = True
                continue
            if kind == _TIMER:
                if state.acked:
                    continue
                if state.attempts < 1 + arq.max_retries:
                    launch(index, now, first=False)
                else:
                    state.gave_up = True
                continue
            fid, hop = s1, s2
            if hop == len(physical) - 1:
                if physical[-1] != demand.target:
                    continue  # truncated walk: routing dropped it
                if state.delivered_at is None:
                    state.delivered_at = now
                    state.delivered_queueing = flight_queueing[fid]
                else:
                    # Receiver duplicate suppression by sequence
                    # number: counted, not re-delivered.
                    state.duplicates += 1
                if reliability:
                    links = len(physical) - 1
                    lost = chaos.ack_dropped(index, state.acks_sent, links)
                    state.acks_sent += 1
                    if not lost:
                        heapq.heappush(
                            events,
                            (
                                now + propagation[index],
                                index,
                                _ACK,
                                state.acks_sent,
                                0,
                            ),
                        )
                continue
            a, b = physical[hop], physical[hop + 1]
            free_at = link_free_at.get((a, b), now)
            start = max(now, free_at)
            flight_queueing[fid] += start - now
            link_free_at[(a, b)] = start + service
            state.transmissions += 1
            link_tx[(a, b)] = link_tx.get((a, b), 0) + 1
            arrival = start + service + delays[index][hop]
            if faultless:
                heapq.heappush(events, (arrival, index, _HOP, fid, hop + 1))
                continue
            header = headers[index]
            faults = chaos.link_faults(
                index, fid, hop, header_bits=header[1] if header else 0
            )
            arrival += faults.extra_delay
            packet_trace = traces[index]
            if faults.dropped or faults.corrupt_bits:
                horizon = max(horizon, arrival)
            if faults.dropped:
                if packet_trace is not None:
                    packet_trace.events.append(
                        TraceEvent(
                            node=a,
                            phase="drop",
                            entry=f"chaos: transmission {a}->{b} lost",
                        )
                    )
                continue
            if faults.corrupt_bits:
                # Corruption is resolved at the receiving node: a
                # checksummed header is verified and the copy discarded
                # on mismatch (ARQ recovers it); a clean verify of a
                # flipped header — CRC collision, or no checksum at all
                # — means the copy is silently misrouted and lost.
                data, bit_length = header
                flipped = flip_bits(data, faults.corrupt_bits)
                detected = checksummed and not codec.verify(
                    flipped, bit_length
                )
                if detected:
                    state.corrupt_detected += 1
                else:
                    state.corrupt_undetected += 1
                if packet_trace is not None:
                    packet_trace.events.append(
                        TraceEvent(
                            node=b,
                            phase="corrupt",
                            entry=(
                                "chaos: header bits "
                                f"{list(faults.corrupt_bits)} flipped "
                                f"{a}->{b}: "
                                + (
                                    "detected by checksum, dropped"
                                    if detected
                                    else "undetected, misrouted"
                                )
                            ),
                        )
                    )
                continue
            if (
                faults.duplicated
                and state.flights < _MAX_FLIGHTS_PER_PACKET
            ):
                state.flights += 1
                dup = len(flight_packet)
                flight_packet.append(index)
                flight_queueing.append(flight_queueing[fid])
                heapq.heappush(
                    events,
                    (
                        arrival + chaos.config.duplicate_lag,
                        index,
                        _HOP,
                        dup,
                        hop + 1,
                    ),
                )
            heapq.heappush(events, (arrival, index, _HOP, fid, hop + 1))
        horizon = max(horizon, now)

        report_packets: List[DeliveredPacket] = []
        outcomes: List[PacketOutcome] = []
        for index, (demand, path, physical) in enumerate(packets):
            state = states[index]
            if state.delivered_at is not None:
                status = TransportStatus.DELIVERED
            elif state.corrupt_undetected > 0:
                status = TransportStatus.CORRUPT_UNDETECTED
            else:
                status = TransportStatus.GAVE_UP
            outcomes.append(
                PacketOutcome(
                    demand=demand,
                    seq=index,
                    status=status,
                    attempts=max(1, state.attempts),
                    transmissions=state.transmissions,
                    path_links=max(0, len(physical) - 1),
                    delivered_at=state.delivered_at,
                    duplicates=state.duplicates,
                    corrupt_detected=state.corrupt_detected,
                    corrupt_undetected=state.corrupt_undetected,
                )
            )
            if state.delivered_at is None:
                continue
            packet = DeliveredPacket(
                demand=demand,
                path=path,
                delivered_at=float(state.delivered_at),
                propagation=propagation[index],
                queueing=state.delivered_queueing,
                physical_path=physical,
            )
            packet.trace = traces[index]
            report_packets.append(packet)
        return SimulationReport(
            packets=report_packets,
            outcomes=outcomes,
            link_transmissions=link_tx,
            horizon=horizon,
        )


@dataclasses.dataclass
class _PacketState:
    """Mutable transport state of one offered packet."""

    attempts: int = 0
    flights: int = 0
    acked: bool = False
    gave_up: bool = False
    delivered_at: Optional[float] = None
    delivered_queueing: float = 0.0
    duplicates: int = 0
    corrupt_detected: int = 0
    corrupt_undetected: int = 0
    transmissions: int = 0
    acks_sent: int = 0


def uniform_demands(
    n: int, count: int, rate: float = 1.0, seed: int = 0
) -> List[Demand]:
    """Uniform random source-target demands with Poisson-ish spacing.

    Injection times are deterministic given the seed (exponential
    inter-arrivals drawn from a seeded PRNG), making simulations
    reproducible.  Pairs come from the shared sampler in
    :mod:`repro.pipeline.sampling` (with replacement across demands —
    the same flow may recur, unlike a stretch-measurement sample).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    demands = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        source, target = draw_pair(rng, n)
        demands.append(Demand(source=source, target=target, inject_at=clock))
    return demands
