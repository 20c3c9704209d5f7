"""A ``(1+ε)``-approximate distance-labeling oracle from the net hierarchy.

The paper's introduction places compact routing among the problems that
"become easier" in doubling metrics alongside *distance estimation*
(Slivkins [24]; Kleinberg–Slivkins–Wexler [19]).  The same ring data the
labeled schemes store — ``X_i(u) = B_u(2^i/ε) ∩ Y_i`` with exact
distances — doubles as a distance *labeling*: u's label is the
``(x, d)`` pairs of its entries in the ring table
(:class:`~repro.nets.rings.Rings`, every level), and two labels alone
determine an estimate

    ``est(u, v) = min over shared ring points x of d(u,x) + d(x,v)``,

which is an upper bound by the triangle inequality and at most
``(1 + O(ε)) d(u, v)``: at the first level ``i`` where the destination's
zooming ancestor ``v(i)`` appears in both rings, the detour through it
costs at most ``d(u,v) + 2·2^{i+1}``, while a miss at level ``i-1``
certifies ``d(u,v) > 2^{i-1}(1/ε - 2)`` — the Lemma 3.4 arithmetic,
reused.  Labels hold ``(1/ε)^{O(α)}`` entries per level over
``log Δ + 1`` levels (this companion oracle is deliberately the simple,
non-scale-free variant).

Requires ``ε <= 1/2`` like the labeled schemes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.nets.rings import Rings

#: A node's distance label: level -> {net point -> exact distance}.
DistanceLabel = Dict[int, Dict[NodeId, float]]


class DistanceOracle:
    """``(1+ε)``-approximate distance labels over ``(V, d)``."""

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        hierarchy: Optional[NetHierarchy] = None,
    ) -> None:
        if params is None:
            params = SchemeParameters()
        if params.epsilon > 0.5:
            raise PreprocessingError(
                "the distance oracle requires epsilon <= 1/2"
            )
        self._metric = metric
        self._params = params
        self._hierarchy = (
            hierarchy if hierarchy is not None else NetHierarchy(metric)
        )
        # Labels are read once from the table, so estimates look up
        # dicts instead of regrouping entries per query.
        rings = Rings(metric, self._hierarchy, params.epsilon, next_hops=False)
        self._labels: List[DistanceLabel] = [{} for _ in metric.nodes]
        for u, label in enumerate(self._labels):
            for i, x, _, _, d, _ in rings.entries(u):
                label.setdefault(i, {})[x] = d

    # ------------------------------------------------------------------

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    @property
    def hierarchy(self) -> NetHierarchy:
        return self._hierarchy

    def label(self, u: NodeId) -> DistanceLabel:
        """u's distance label (level -> ring distances)."""
        return {i: dict(ring) for i, ring in self._labels[u].items()}

    def label_bits(self, u: NodeId) -> int:
        """Measured label size: one (id, distance) pair per entry."""
        unit = bits_for_id(self._metric.n)
        entries = sum(len(ring) for ring in self._labels[u].values())
        return entries * 2 * unit

    def max_label_bits(self) -> int:
        return max(self.label_bits(u) for u in self._metric.nodes)

    # ------------------------------------------------------------------

    @staticmethod
    def estimate_from_labels(
        label_u: DistanceLabel, label_v: DistanceLabel
    ) -> float:
        """Distance estimate from two labels alone (the labeling API)."""
        best = float("inf")
        for i, ring_u in label_u.items():
            ring_v = label_v.get(i)
            if not ring_v:
                continue
            for x, du in ring_u.items():
                dv = ring_v.get(x)
                if dv is not None and du + dv < best:
                    best = du + dv
        return best

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """``(1+O(ε))``-approximate ``d(u, v)``."""
        if u == v:
            return 0.0
        est = self.estimate_from_labels(self._labels[u], self._labels[v])
        if est == float("inf"):  # pragma: no cover - top ring is shared
            raise PreprocessingError(
                "labels share no ring point — corrupted hierarchy?"
            )
        return est

    def guarantee(self) -> float:
        """The approximation envelope ``1 + 8/(1/ε - 2)`` (ε < 1/2)."""
        inv = 1.0 / self._params.epsilon
        if inv <= 2.0:
            return float("inf")
        return 1.0 + 8.0 / (inv - 2.0)

    def verify(self, pairs) -> Tuple[float, float]:
        """Max and mean estimate/true ratio over the given pairs."""
        ratios = []
        for u, v in pairs:
            if u == v:
                continue
            ratios.append(
                self.estimate(u, v) / self._metric.distance(u, v)
            )
        return max(ratios), sum(ratios) / len(ratios)
