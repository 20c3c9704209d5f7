"""A degraded view of a :class:`GraphMetric`: failures as an overlay.

The whole point of the resilience experiments is that routing tables are
*stale*: the expensive substrates (APSP matrix, hierarchies, schemes)
were built on the intact graph and are **not** rebuilt when links fail.
:class:`DegradedNetwork` therefore wraps an existing metric and masks
failed edges/crashed nodes (and applies weight perturbations) purely as
an overlay:

* liveness and per-edge weight queries are O(1) set/dict lookups;
* post-failure shortest-path distances — needed for *honest* stretch
  accounting (a delivered packet is judged against the best it could
  have done on the surviving topology) — are computed lazily, one
  Dijkstra per queried source, and cached until the overlay changes.

Nothing here ever mutates the wrapped metric, whose own edge array is
the intact topology.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.types import NodeId
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.resilience.failure_plan import (
    EdgeKey,
    EventKind,
    FailureEvent,
    FailurePlan,
    edge_key,
)


class DegradedNetwork:
    """Failure overlay over an intact :class:`GraphMetric`."""

    def __init__(self, metric: GraphMetric) -> None:
        self._metric = metric
        self._failed_edges: Set[EdgeKey] = set()
        self._crashed_nodes: Set[NodeId] = set()
        self._weight_factor: Dict[EdgeKey, float] = {}
        self._version = 0
        self._matrix_version = -1
        self._matrix: Optional[csr_matrix] = None
        self._dist_cache: Dict[NodeId, np.ndarray] = {}

    @classmethod
    def from_plan(
        cls, metric: GraphMetric, plan: FailurePlan, at_time: float = 0.0
    ) -> "DegradedNetwork":
        """The degraded state after applying every event up to ``at_time``."""
        degraded = cls(metric)
        for event in plan.events_until(at_time):
            degraded.apply(event)
        return degraded

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def metric(self) -> GraphMetric:
        """The intact pre-failure metric this overlay masks."""
        return self._metric

    @property
    def failed_edges(self) -> Set[EdgeKey]:
        return set(self._failed_edges)

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        return set(self._crashed_nodes)

    @property
    def intact(self) -> bool:
        """True when the overlay currently masks nothing."""
        return (
            not self._failed_edges
            and not self._crashed_nodes
            and all(f == 1.0 for f in self._weight_factor.values())
        )

    def apply(self, event: FailureEvent) -> None:
        """Apply one failure/recovery event to the overlay."""
        if event.kind is EventKind.LINK_DOWN:
            self._failed_edges.add(event.edge)
        elif event.kind is EventKind.LINK_UP:
            self._failed_edges.discard(event.edge)
        elif event.kind is EventKind.NODE_DOWN:
            self._crashed_nodes.add(event.node)
        elif event.kind is EventKind.NODE_UP:
            self._crashed_nodes.discard(event.node)
        elif event.kind is EventKind.WEIGHT_SCALE:
            if event.factor == 1.0:
                self._weight_factor.pop(event.edge, None)
            else:
                self._weight_factor[event.edge] = float(event.factor)
        self._version += 1
        self._dist_cache.clear()

    def advance_to(self, plan: FailurePlan, at_time: float) -> None:
        """Re-apply ``plan`` up to ``at_time`` onto a fresh overlay."""
        self._failed_edges.clear()
        self._crashed_nodes.clear()
        self._weight_factor.clear()
        self._version += 1
        self._dist_cache.clear()
        for event in plan.events_until(at_time):
            self.apply(event)

    # ------------------------------------------------------------------
    # Liveness and local queries (what a real node could observe)
    # ------------------------------------------------------------------

    def node_alive(self, v: NodeId) -> bool:
        return v not in self._crashed_nodes

    def edge_alive(self, u: NodeId, v: NodeId) -> bool:
        """True when ``(u, v)`` is a usable physical link right now."""
        if u in self._crashed_nodes or v in self._crashed_nodes:
            return False
        if edge_key(u, v) in self._failed_edges:
            return False
        return v in self._metric.neighbors(u)

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Current (possibly perturbed) weight of a live edge."""
        base = self._metric.edge_weight(u, v)
        return base * self._weight_factor.get(edge_key(u, v), 1.0)

    def neighbors(self, u: NodeId) -> List[NodeId]:
        """Surviving neighbours of ``u``, ascending ids (deterministic)."""
        if u in self._crashed_nodes:
            return []
        return sorted(
            v for v in self._metric.neighbors(u) if self.edge_alive(u, v)
        )

    # ------------------------------------------------------------------
    # Post-failure distances (the honest stretch denominator)
    # ------------------------------------------------------------------

    def _surviving_matrix(self) -> csr_matrix:
        """Live edges at their current weights, both directions.

        Read off the metric's edge table, so the entries come in key
        order rather than edge-array order; only Dijkstra distances are
        read from the matrix, and those do not depend on entry order.
        """
        if self._matrix is not None and self._matrix_version == self._version:
            return self._matrix
        n = self._metric.n
        keys, _ = self._metric.edge_table()
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v in zip((keys // n).tolist(), (keys % n).tolist()):
            if self.edge_alive(u, v):
                rows.append(u)
                cols.append(v)
                vals.append(self.edge_weight(u, v))
        self._matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._matrix_version = self._version
        return self._matrix

    def distances_from(self, u: NodeId) -> np.ndarray:
        """Shortest-path distances from ``u`` on the surviving topology.

        Unreachable nodes (and every node, when ``u`` itself crashed)
        report ``inf``.  One Dijkstra per source, cached per overlay
        state.
        """
        cached = self._dist_cache.get(u)
        if cached is not None:
            return cached
        if u in self._crashed_nodes:
            dist = np.full(self._metric.n, np.inf)
            dist[u] = 0.0
        else:
            dist = dijkstra(
                self._surviving_matrix(), directed=False, indices=u
            )
        self._dist_cache[u] = dist
        return dist

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Post-failure shortest-path distance (``inf`` if disconnected)."""
        if u == v:
            return 0.0
        return float(self.distances_from(u)[v])

    def connected(self, u: NodeId, v: NodeId) -> bool:
        return bool(np.isfinite(self.distance(u, v)))

    # ------------------------------------------------------------------
    # Bounded detour search (what a fallback policy may buy)
    # ------------------------------------------------------------------

    def detour_path(
        self,
        source: NodeId,
        target: NodeId,
        max_hops: Optional[int] = None,
        max_cost: Optional[float] = None,
    ) -> Optional[List[NodeId]]:
        """Cheapest surviving path within a hop and/or cost budget.

        Deterministic Dijkstra over ``(node, hops)`` states with
        least-id tie-breaking; returns ``None`` when no surviving path
        fits the budget.  This is the primitive behind the
        ``local-detour`` and ``level-escalation`` fallback policies —
        the budget is what keeps the "local" in local rerouting.
        """
        if source == target:
            return [source]
        if not self.node_alive(source) or not self.node_alive(target):
            return None
        hop_limit = max_hops if max_hops is not None else self._metric.n
        # Heap entries: (cost, hops, node).  parent reconstructs paths.
        heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, source)]
        best: Dict[Tuple[NodeId, int], float] = {(source, 0): 0.0}
        parent: Dict[Tuple[NodeId, int], Tuple[NodeId, int]] = {}
        while heap:
            cost, hops, node = heapq.heappop(heap)
            if cost > best.get((node, hops), np.inf) + DISTANCE_SLACK:
                continue
            if node == target:
                path = [node]
                state = (node, hops)
                while state in parent:
                    state = parent[state]
                    path.append(state[0])
                path.reverse()
                return path
            if hops >= hop_limit:
                continue
            for nxt in self.neighbors(node):
                step = cost + self.edge_weight(node, nxt)
                if max_cost is not None and step > max_cost + DISTANCE_SLACK:
                    continue
                state = (nxt, hops + 1)
                if step + DISTANCE_SLACK < best.get(state, np.inf):
                    best[state] = step
                    parent[state] = (node, hops)
                    heapq.heappush(heap, (step, hops + 1, nxt))
        return None

    def __repr__(self) -> str:
        return (
            f"DegradedNetwork(n={self._metric.n}, "
            f"failed_edges={len(self._failed_edges)}, "
            f"crashed_nodes={len(self._crashed_nodes)}, "
            f"perturbed={len(self._weight_factor)})"
        )
