"""Long-running churn service: continuous edits under continuous load.

:class:`ChurnDriver` interleaves a deterministic edit stream with packet
load, round by round, the way a deployed routing service experiences
churn:

1. routing tables stand as of the **round start** (built, or rebuilt,
   through one shared :class:`BuildContext`);
2. a batch of edits *commits to the network* — the graph mutates, and
   :meth:`BuildContext.apply_edit` drops the cached metric, hierarchy,
   ball packings and schemes (the tables the round serves are now
   stale; they keep their pre-edit metric);
3. during this **staleness window** the round's demands are routed by a
   :class:`~repro.resilience.router.ResilientRouter` over a
   :class:`~repro.resilience.degraded.DegradedNetwork` overlay that
   mirrors the committed edits, and the walks the router actually took
   are pushed through the store-and-forward simulator for queueing
   measurements — once per fallback policy, the only step that
   differs between policies;
4. the tables are **repaired**: the metric, the hierarchy, the
   packings and every scheme are built cold through the warm context,
   once per round however many edits it committed.  Repair throughput
   is edits per second of (apply + rebuild) time.

Overlay semantics (what the stale world can and cannot see): weight
changes become ``WEIGHT_SCALE`` factors against the stale weight, edge
removals become ``LINK_DOWN``, node leaves become ``NODE_DOWN``, and an
edge *re-added* after a removal comes back as ``LINK_UP`` (the stale
tables still know that link).  Genuinely **new** edges and joined nodes
are invisible until the next rebuild — stale tables have no entries for
them, exactly as in a real network where new capacity is unusable until
routing state converges.

Optionally every ``verify_every`` rounds the repaired scheme is
checked **bit-identical** to a cold rebuild of the current graph (every
routed :class:`~repro.core.types.RouteResult` compared with ``==``,
and the per-node ``table_bits_vector``); any divergence raises.

Given several fallback policies, one run serves all of them: each round
draws, commits, repairs and verifies once, and only the staleness
window is routed per policy, so the per-policy reports share every
edit, repair and verification record.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import networkx as nx

from repro.chaos.audit import TableIntegrityError, verify_against_cold
from repro.core.edits import EditKind, GraphEdit
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError
from repro.pipeline.context import BuildContext, EditReport
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.failure_plan import EventKind, FailureEvent, edge_key
from repro.resilience.router import FallbackPolicy, ResilientRouter
from repro.runtime.simulator import Demand, TrafficSimulator, uniform_demands
from repro.schemes.base import RoutingScheme


class ChurnVerificationError(PreprocessingError):
    """Repaired state diverged from a cold rebuild (a pipeline bug)."""


@dataclasses.dataclass
class ChurnRoundRecord:
    """Everything measured in one churn round."""

    index: int
    #: Per-edit cache-surgery reports, in commit order.
    edits: List[EditReport]
    #: Artifacts constructed / served from the context cache during the
    #: rebuild, per kind.
    built: Dict[str, int]
    reused: Dict[str, int]
    apply_seconds: float
    rebuild_seconds: float
    #: Routing under stale tables, inside the staleness window.
    demand_count: int
    delivered: int
    unreachable: int
    mean_stretch: float
    max_stretch: float
    mean_detours: float
    outcomes: Dict[str, int]
    #: Queueing measurements of the walks the router actually took
    #: that reached their targets (dropped walks are undelivered).
    mean_latency: float
    mean_queueing: float
    #: Cold-rebuild bit-identity check (None = not run this round).
    verified: Optional[bool] = None

    @property
    def edit_count(self) -> int:
        return len(self.edits)

    @property
    def repair_seconds(self) -> float:
        return self.apply_seconds + self.rebuild_seconds

    @property
    def repair_throughput(self) -> float:
        """Edits committed per second of repair (apply + rebuild) time."""
        if self.repair_seconds <= 0:  # pragma: no cover - timer floor
            return float("inf")
        return self.edit_count / self.repair_seconds

    @property
    def delivery_rate(self) -> float:
        reachable = self.demand_count - self.unreachable
        if reachable <= 0:
            return 1.0
        return min(1.0, self.delivered / reachable)

    def edit_kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.edits:
            kind = report.edit.kind.value
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.index,
            "edits": self.edit_count,
            "edit_kinds": self.edit_kinds(),
            "built": dict(sorted(self.built.items())),
            "reused": dict(sorted(self.reused.items())),
            "apply_seconds": round(self.apply_seconds, 6),
            "rebuild_seconds": round(self.rebuild_seconds, 6),
            "repair_throughput_eps": round(self.repair_throughput, 3),
            "demands": self.demand_count,
            "delivered": self.delivered,
            "unreachable": self.unreachable,
            "delivery_rate": round(self.delivery_rate, 4),
            "mean_stretch": round(self.mean_stretch, 4),
            "max_stretch": round(self.max_stretch, 4),
            "mean_detours": round(self.mean_detours, 4),
            "outcomes": dict(sorted(self.outcomes.items())),
            "mean_latency": round(self.mean_latency, 4),
            "mean_queueing": round(self.mean_queueing, 4),
            "verified": self.verified,
        }


@dataclasses.dataclass
class ChurnReport:
    """Aggregate of a full churn run."""

    scheme: str
    policy: str
    rounds: List[ChurnRoundRecord]
    initial_nodes: int
    final_nodes: int

    @property
    def total_edits(self) -> int:
        return sum(r.edit_count for r in self.rounds)

    @property
    def repair_throughput(self) -> float:
        seconds = sum(r.repair_seconds for r in self.rounds)
        if seconds <= 0:  # pragma: no cover - timer floor
            return float("inf")
        return self.total_edits / seconds

    @property
    def total_built(self) -> int:
        return sum(sum(r.built.values()) for r in self.rounds)

    @property
    def total_reused(self) -> int:
        return sum(sum(r.reused.values()) for r in self.rounds)

    def mean_delivery_rate(self) -> float:
        if not self.rounds:
            return 0.0
        return sum(r.delivery_rate for r in self.rounds) / len(self.rounds)

    def mean_stretch(self) -> float:
        rounds = [r for r in self.rounds if r.delivered]
        if not rounds:
            return 0.0
        return sum(r.mean_stretch for r in rounds) / len(rounds)

    def max_stretch(self) -> float:
        return max((r.max_stretch for r in self.rounds), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "policy": self.policy,
            "total_edits": self.total_edits,
            "initial_nodes": self.initial_nodes,
            "final_nodes": self.final_nodes,
            "repair_throughput_eps": round(self.repair_throughput, 3),
            "total_built": self.total_built,
            "total_reused": self.total_reused,
            "mean_delivery_rate": round(self.mean_delivery_rate(), 4),
            "mean_stretch": round(self.mean_stretch(), 4),
            "max_stretch": round(self.max_stretch(), 4),
            "rounds": [r.to_dict() for r in self.rounds],
        }


class ChurnDriver:
    """Drive one scheme through a churn stream under continuous load.

    Args:
        graph: The evolving network; mutated in place by every edit.
        scheme_cls: Scheme under maintenance.
        policy: Fallback policy for the staleness windows, or a sequence
            of them: each window is then routed once per policy, and
            :meth:`run` returns one report per policy.
        params: Scheme parameters.
        context: Warm :class:`BuildContext` (owns all cached state);
            a fresh one is created when omitted.
        stream: Edit source; defaults to a
            :class:`~repro.churn.stream.EditStream` seeded with ``seed``
            and capped at twice the initial node count.
        seed: Master seed for the default stream and the per-round
            demand draws.
        edits_per_round: Staleness-window width, in edits.
        pairs_per_round: Demands routed inside each staleness window.
        demand_rate: Poisson intensity of the demand injection times.
        verify_every: Cold-rebuild bit-identity check cadence in rounds
            (0 disables; the check is expensive — a full cold build).
        verify_pairs: Routed pairs per verification.
    """

    def __init__(
        self,
        graph: nx.Graph,
        scheme_cls: Type[RoutingScheme],
        policy: Union[
            str, FallbackPolicy, Sequence[Union[str, FallbackPolicy]]
        ] = "fail-fast",
        params: Optional[SchemeParameters] = None,
        context: Optional[BuildContext] = None,
        stream=None,
        seed: int = 0,
        edits_per_round: int = 10,
        pairs_per_round: int = 20,
        demand_rate: float = 1.0,
        verify_every: int = 0,
        verify_pairs: int = 40,
    ) -> None:
        if edits_per_round < 1:
            raise ValueError("edits_per_round must be >= 1")
        if pairs_per_round < 1:
            raise ValueError("pairs_per_round must be >= 1")
        if stream is None:
            from repro.churn.stream import EditStream

            stream = EditStream(
                seed=seed, max_nodes=2 * graph.number_of_nodes()
            )
        self._single = isinstance(policy, (str, FallbackPolicy))
        self._policies = [policy] if self._single else list(policy)
        if not self._policies:
            raise ValueError("policy must name at least one policy")
        self._graph = graph
        self._scheme_cls = scheme_cls
        self._params = params if params is not None else SchemeParameters()
        self._context = context if context is not None else BuildContext()
        self._stream = stream
        self._seed = seed
        self._edits_per_round = edits_per_round
        self._pairs_per_round = pairs_per_round
        self._demand_rate = demand_rate
        self._verify_every = verify_every
        self._verify_pairs = verify_pairs

    @property
    def context(self) -> BuildContext:
        return self._context

    # ------------------------------------------------------------------
    # Overlay translation
    # ------------------------------------------------------------------

    @staticmethod
    def _overlay_events(
        edit: GraphEdit,
        stale_graph: nx.Graph,
        factors: Dict[Tuple[NodeId, NodeId], float],
    ) -> List[FailureEvent]:
        """Mirror one committed edit onto the stale-world overlay.

        ``factors`` accumulates per-edge weight ratios against the
        *stale* weight so several reweights of one edge inside a round
        compose correctly.  Events for edges/nodes the stale graph does
        not know are skipped — invisible until the next rebuild.
        """
        if edit.kind is EditKind.WEIGHT:
            key = edge_key(*edit.edge)
            if not stale_graph.has_edge(*key):
                return []
            stale_w = float(stale_graph[key[0]][key[1]].get("weight", 1.0))
            factor = float(edit.weight) / stale_w
            factors[key] = factor
            return [
                FailureEvent(
                    0.0, EventKind.WEIGHT_SCALE, edge=key, factor=factor
                )
            ]
        if edit.kind is EditKind.EDGE_REMOVE:
            key = edge_key(*edit.edge)
            if not stale_graph.has_edge(*key):
                return []
            return [FailureEvent(0.0, EventKind.LINK_DOWN, edge=key)]
        if edit.kind is EditKind.EDGE_ADD:
            key = edge_key(*edit.edge)
            if not stale_graph.has_edge(*key):
                return []  # genuinely new capacity: invisible when stale
            stale_w = float(stale_graph[key[0]][key[1]].get("weight", 1.0))
            factor = float(edit.weight) / stale_w
            factors[key] = factor
            return [
                FailureEvent(0.0, EventKind.LINK_UP, edge=key),
                FailureEvent(
                    0.0, EventKind.WEIGHT_SCALE, edge=key, factor=factor
                ),
            ]
        if edit.kind is EditKind.NODE_LEAVE:
            if edit.node >= stale_graph.number_of_nodes():
                return []
            return [FailureEvent(0.0, EventKind.NODE_DOWN, node=edit.node)]
        # NODE_JOIN: the stale tables have no row for the newcomer.
        return []

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def _verify(self, warm_scheme: RoutingScheme) -> bool:
        """Assert the warm scheme is bit-identical to a cold rebuild of
        the current graph (:func:`~repro.chaos.audit.verify_against_cold`)."""
        try:
            verify_against_cold(
                warm_scheme,
                self._scheme_cls,
                self._graph,
                self._params,
                pair_count=self._verify_pairs,
                seed=self._seed,
            )
        except TableIntegrityError as exc:
            raise ChurnVerificationError(f"repaired {exc}") from exc
        return True

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------

    @staticmethod
    def _window(
        stale_scheme: RoutingScheme,
        degraded: DegradedNetwork,
        policy: Union[str, FallbackPolicy],
        demands: List[Demand],
    ) -> Dict[str, object]:
        """Route one staleness window under ``policy``: the routing
        fields of a :class:`ChurnRoundRecord`."""
        router = ResilientRouter(stale_scheme, degraded, policy=policy)
        results = [router.route(d.source, d.target) for d in demands]
        simulation = TrafficSimulator(stale_scheme).run(
            demands, paths=[r.path for r in results]
        )
        stretches = [r.stretch for r in results if r.delivered]
        outcomes: Dict[str, int] = {}
        for r in results:
            outcomes[r.status.value] = outcomes.get(r.status.value, 0) + 1
        return dict(
            demand_count=len(results),
            delivered=len(stretches),
            unreachable=sum(
                1 for r in results if not _finite(r.post_failure_optimal)
            ),
            mean_stretch=(
                sum(stretches) / len(stretches) if stretches else 0.0
            ),
            max_stretch=max(stretches, default=0.0),
            mean_detours=(
                sum(r.detours for r in results) / len(results)
                if results
                else 0.0
            ),
            outcomes=outcomes,
            mean_latency=simulation.mean_latency(),
            mean_queueing=simulation.mean_queueing(),
        )

    def run(self, edits: int = 100) -> Union[ChurnReport, List[ChurnReport]]:
        """Commit ``edits`` edits under load; returns the full record:
        one report, or one per policy (in the order given) when the
        driver was given a sequence of policies."""
        if edits < 1:
            raise ValueError("edits must be >= 1")
        context = self._context
        initial_nodes = self._graph.number_of_nodes()
        metric = context.metric(self._graph)
        scheme = context.scheme(self._scheme_cls, metric, self._params)

        rounds: List[List[ChurnRoundRecord]] = [[] for _ in self._policies]
        committed = 0
        index = 0
        while committed < edits:
            batch = min(self._edits_per_round, edits - committed)
            stale_scheme = scheme
            stale_metric = stale_scheme.metric
            # The graph the stale tables were built on, for the overlay.
            stale_graph = self._graph.copy()
            degraded = DegradedNetwork(stale_metric)
            factors: Dict[Tuple[NodeId, NodeId], float] = {}

            # -- commit the batch (tables go stale) --------------------
            edit_reports: List[EditReport] = []
            apply_seconds = 0.0
            for _ in range(batch):
                edit = self._stream.draw(self._graph)
                report = context.apply_edit(self._graph, edit)
                apply_seconds += report.seconds
                edit_reports.append(report)
                for event in self._overlay_events(edit, stale_graph, factors):
                    degraded.apply(event)

            # -- staleness window: route + load, per policy ------------
            demands = uniform_demands(
                stale_metric.n,
                self._pairs_per_round,
                rate=self._demand_rate,
                seed=self._seed * 100003 + index,
            )
            windows = [
                self._window(stale_scheme, degraded, policy, demands)
                for policy in self._policies
            ]

            # -- repair: rebuild through the warm context -------------
            built_before = dict(context.stats.misses)
            reused_before = dict(context.stats.hits)
            start = time.perf_counter()
            metric = context.metric(self._graph)
            scheme = context.scheme(self._scheme_cls, metric, self._params)
            rebuild_seconds = time.perf_counter() - start
            built = _counter_delta(built_before, context.stats.misses)
            reused = _counter_delta(reused_before, context.stats.hits)

            verified: Optional[bool] = None
            if self._verify_every and (index + 1) % self._verify_every == 0:
                verified = self._verify(scheme)

            for records, window in zip(rounds, windows):
                records.append(
                    ChurnRoundRecord(
                        index=index,
                        edits=edit_reports,
                        built=built,
                        reused=reused,
                        apply_seconds=apply_seconds,
                        rebuild_seconds=rebuild_seconds,
                        verified=verified,
                        **window,
                    )
                )
            committed += batch
            index += 1

        reports = [
            ChurnReport(
                scheme=scheme.name,
                policy=policy if isinstance(policy, str) else policy.name,
                rounds=records,
                initial_nodes=initial_nodes,
                final_nodes=self._graph.number_of_nodes(),
            )
            for policy, records in zip(self._policies, rounds)
        ]
        return reports[0] if self._single else reports


def _counter_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Per-kind growth of a counter, omitting kinds that did not move."""
    return {
        kind: after.get(kind, 0) - before.get(kind, 0)
        for kind in set(before) | set(after)
        if after.get(kind, 0) - before.get(kind, 0)
    }


def _finite(x: float) -> bool:
    return x == x and x not in (float("inf"), float("-inf"))
