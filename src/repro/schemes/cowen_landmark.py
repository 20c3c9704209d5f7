"""Cowen-style stretch-3 landmark routing — a related-work baseline.

The paper's related-work section (§1.2) cites Cowen's stretch-3 labeled
scheme with ``Õ(n^{2/3})``-bit tables and the Thorup–Zwick refinements
as the state of the art for *general* graphs.  This module implements
the classic landmark construction so the doubling-metric schemes can be
compared against what general-graph techniques achieve on the same
networks (see ``benchmarks/bench_related_work.py``):

* choose a landmark set ``L`` (:func:`greedy_landmarks`: repeatedly
  take the node farthest from the landmarks so far; the textbook
  ``Õ(n^{2/3})`` balance comes from ``|L| ≈ n^{1/3}``);
* each node ``u`` stores a next hop for every landmark and for every
  node in its cluster ``C(u) = {v : d(u,v) < d(v, L(v))}`` (nodes
  strictly closer to ``u`` than to their own home landmark);
* ``label(v) = (v, L(v))``; routing goes directly when ``v`` is in the
  local cluster table and otherwise via ``v``'s home landmark.

Guarantee: stretch at most 3 (the classic argument: if ``v`` is not in
``C(u)`` then ``d(v, L(v)) <= d(u, v)``, so the detour
``u -> L(v) -> v`` costs at most ``d(u,v) + 2 d(v, L(v)) <= 3 d(u,v)``).
Unlike the paper's schemes it cannot reach ``1 + ε``, and its tables
are polynomial, not polylogarithmic — that contrast is the point.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.schemes.base import LabeledScheme


def greedy_landmarks(metric: GraphMetric, count: int) -> List[NodeId]:
    """Farthest-point landmark selection (deterministic), sorted.

    Starting from node 0, repeatedly add the node farthest from the
    current landmark set — the standard k-center greedy, which spreads
    landmarks so home-landmark distances (and hence detour costs and
    cluster sizes) stay balanced.  Both landmark schemes pick their
    landmarks here; fewer than ``count`` come back only when every node
    already is one.
    """
    landmarks = [0]
    mindist = np.array(metric.distances_from(0), dtype=float)
    while len(landmarks) < count:
        far = int(mindist.argmax())
        if mindist[far] <= 0:
            break
        landmarks.append(far)
        np.minimum(mindist, metric.distances_from(far), out=mindist)
    return sorted(landmarks)


class CowenLandmarkScheme(LabeledScheme):
    """Stretch-3 labeled routing via landmarks and clusters."""

    name = "Cowen landmark stretch-3 (general graphs)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        landmark_count: Optional[int] = None,
    ) -> None:
        super().__init__(metric, params)
        if landmark_count is None:
            landmark_count = max(1, round(metric.n ** (1.0 / 3.0)))
        if not 1 <= landmark_count <= metric.n:
            raise PreprocessingError(
                f"landmark_count must be in [1, {metric.n}]"
            )
        self._landmarks = greedy_landmarks(metric, landmark_count)
        self._home: List[NodeId] = metric.nearest_many(
            metric.nodes, self._landmarks
        ).tolist()
        # d(v, L(v)) once per v, from v's own row.
        home_dist = np.array(
            [metric.distance(v, home) for v, home in enumerate(self._home)]
        )
        self._clusters: List[Set[NodeId]] = [
            self._cluster_of(u, home_dist) for u in metric.nodes
        ]

    # ------------------------------------------------------------------

    def _cluster_of(self, u: NodeId, home_dist: np.ndarray) -> Set[NodeId]:
        du = self._metric.distances_from(u)
        return set(np.nonzero(du < home_dist - 1e-12)[0].tolist())

    # ------------------------------------------------------------------

    @property
    def landmarks(self) -> List[NodeId]:
        return list(self._landmarks)

    def home_landmark(self, v: NodeId) -> NodeId:
        """``L(v)``: the landmark nearest to ``v``."""
        return self._home[v]

    def cluster(self, u: NodeId) -> Set[NodeId]:
        """``C(u)``: nodes strictly closer to u than to their landmark."""
        return set(self._clusters[u])

    def routing_label(self, v: NodeId) -> int:
        """Label = (v, L(v)) packed into one integer."""
        return v * self._metric.n + self._home[v]

    def unpack_label(self, label: int) -> Tuple[NodeId, NodeId]:
        return divmod(label, self._metric.n)

    def label_bits(self) -> int:
        return 2 * bits_for_id(self._metric.n)

    def stretch_guarantee(self) -> float:
        return 3.0

    # ------------------------------------------------------------------

    def route_to_label(self, source: NodeId, label: int) -> RouteResult:
        target, home = self.unpack_label(label)
        if not 0 <= target < self._metric.n:
            raise RouteFailure(f"label {label} out of range")
        metric = self._metric
        path = [source]
        legs = {"direct": 0.0, "to_landmark": 0.0, "from_landmark": 0.0}

        current = source
        via_landmark = False
        tracer = self._tracer
        guard = 4 * metric.n
        while current != target:
            if target in self._clusters[current] or current == home or (
                target in self._landmarks
            ):
                # Direct (cluster or landmark-table) hop.
                nxt = metric.next_hop(current, target)
                key = "from_landmark" if via_landmark else "direct"
                legs[key] += metric.edge_weight(current, nxt)
                if tracer.enabled:
                    table = (
                        "landmark table"
                        if target in self._landmarks or current == home
                        else f"cluster C({current})"
                    )
                    tracer.event(
                        node=current,
                        phase=key,
                        nodes=(nxt,),
                        cost=metric.edge_weight(current, nxt),
                        entry=f"{table} entry for {target}",
                        header_after={
                            "target": target,
                            "home": home,
                            "via_landmark": int(via_landmark),
                        },
                    )
            else:
                # Head for the destination's home landmark.
                nxt = metric.next_hop(current, home)
                legs["to_landmark"] += metric.edge_weight(current, nxt)
                if tracer.enabled:
                    tracer.event(
                        node=current,
                        phase="to_landmark",
                        nodes=(nxt,),
                        cost=metric.edge_weight(current, nxt),
                        entry=f"landmark table entry for L({target})={home}",
                        header_after={
                            "target": target,
                            "home": home,
                            "via_landmark": int(nxt == home),
                        },
                    )
                if nxt == home:
                    via_landmark = True
            current = nxt
            path.append(current)
            if len(path) > guard:  # pragma: no cover - defensive
                raise RouteFailure("landmark walk failed to converge")
        return RouteResult(
            source=source,
            target=target,
            path=path,
            cost=sum(legs.values()),
            optimal=metric.distance(source, target),
            header_bits=self.header_bits(),
            legs=legs,
        )

    # ------------------------------------------------------------------

    def table_bits(self, v: NodeId) -> int:
        """Next hops for all landmarks plus the local cluster."""
        unit = bits_for_id(self._metric.n)
        entries = len(self._landmarks) + len(self._clusters[v])
        return entries * 2 * unit

    def _header_layout(self):
        """Bit-exact codec: the ``(v, L(v))`` label + via-landmark flag."""
        from repro.runtime.headers import cowen_landmark_codec

        return cowen_landmark_codec(self._metric)
