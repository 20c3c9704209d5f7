"""The underlying non-scale-free ``(1+ε)``-stretch labeled scheme.

This is our implementation of the scheme the paper cites as Lemma 3.1
(Abraham, Gavoille, Goldberg, Malkhi [2, Theorem 4]): ``⌈log n⌉``-bit
routing labels and ``(1/ε)^{O(α)} log Δ log n``-bit tables, with stretch
``1 + O(ε)`` for ``ε <= 1/2``.

Construction (paper §2 + §4.1, without the scale-free machinery):

* labels are the DFS leaf enumeration ``l(v)`` of the netting tree;
* every node ``u`` stores, for **every** level ``i ∈ [log Δ]`` (this is
  the ``log Δ`` factor that Theorem 1.2 later removes), the ring
  ``X_i(u) = B_u(2^i/ε) ∩ Y_i`` with each member's subtree range
  ``Range(x, i)`` and next hop.

Routing to label ``t``: at each node, find the minimal level ``i`` whose
ring contains the (unique) ``x`` with ``t ∈ Range(x, i)`` — that ``x`` is
``v(i)``, the level-``i`` ancestor of the destination's zooming sequence —
and take one hop along the shortest path toward it.  As the packet
approaches ``v(i)``, lower rings start hitting and the level only
decreases, until level 0 pins the destination itself.  The walk's detours
are bounded by the zooming-sequence geometry (Eqn. 2), giving stretch
``1 + O(ε)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.nets.rings import Rings
from repro.schemes.base import LabeledScheme


class NonScaleFreeLabeledScheme(LabeledScheme):
    """``(1+ε)``-stretch labeled routing with ``log Δ``-level tables."""

    name = "labeled non-scale-free (Lemma 3.1)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        hierarchy: Optional[NetHierarchy] = None,
    ) -> None:
        super().__init__(metric, params)
        if self._params.epsilon > 0.5:
            raise PreprocessingError(
                "labeled schemes require epsilon <= 1/2 (Lemma 3.1)"
            )
        self._hierarchy = hierarchy if hierarchy is not None else NetHierarchy(metric)
        # X_i(u) at every level, each entry with u's next hop toward
        # its ring point (charged in table_bits).
        self._rings = Rings(metric, self._hierarchy, self._params.epsilon)

    @classmethod
    def from_context(cls, context, metric, params=None, **kwargs):
        kwargs.setdefault("hierarchy", context.hierarchy(metric))
        return cls(metric, params, **kwargs)

    # ------------------------------------------------------------------

    @property
    def hierarchy(self) -> NetHierarchy:
        return self._hierarchy

    def routing_label(self, v: NodeId) -> int:
        return self._hierarchy.label(v)

    def label_bits(self) -> int:
        return bits_for_id(self._metric.n)

    def ring_entries(self, u: NodeId, i: int) -> Dict[NodeId, Tuple[int, int, float]]:
        """Stored ring ``X_i(u)`` as ``x -> (lo, hi, d)``."""
        return self._rings.ring(u, i)

    def min_level_hit(
        self, u: NodeId, target_label: int
    ) -> Tuple[int, NodeId, float]:
        """Minimal level whose ring at ``u`` covers ``target_label``.

        Returns ``(i, x, d(x, u))`` — ``x`` is the destination's
        zooming-sequence ancestor ``v(i)``.  Always succeeds: the top
        ring contains the netting-tree root, whose range is everything.
        """
        hit = self._rings.hit(u, target_label)
        if hit is None:  # pragma: no cover - top ring always hits
            raise RouteFailure(f"no ring at node {u} covers label {target_label}")
        i, x, _, _, dist, _ = hit
        return i, x, dist

    def walk_to_label(self, source: NodeId, label: int) -> Tuple[List[NodeId], float]:
        """The ring walk to ``label``: each hop is the stored next hop of
        the first entry covering it at the current node."""
        if not 0 <= label < self._metric.n:
            raise RouteFailure(f"label {label} out of range")
        metric = self._metric
        tracer = self._tracer
        node_label = self._hierarchy.label
        hit = self._rings.hit
        path = [source]
        current = source
        guard = 4 * metric.n * (self._hierarchy.top_level + 2)
        while node_label(current) != label:
            entry = hit(current, label)
            if entry is None:  # pragma: no cover - top ring always hits
                raise RouteFailure(f"no ring at node {current} covers label {label}")
            i, x, _, _, _, nxt = entry
            if x == current:  # pragma: no cover - impossible for eps<=1/2
                raise RouteFailure(
                    f"walk stalled at {current} (epsilon too large?)"
                )
            if tracer.enabled:
                tracer.event(
                    node=current,
                    phase="walk",
                    nodes=(nxt,),
                    cost=metric.edge_weight(current, nxt),
                    level=i,
                    entry=f"X_{i}({current}) hit x={x} covering l={label}",
                    header_before={"target_label": label},
                    header_after={"target_label": label},
                )
            current = nxt
            path.append(current)
            if len(path) > guard:  # pragma: no cover - defensive
                raise RouteFailure("labeled walk failed to converge")
        weight = metric.edge_weight
        return path, sum(weight(a, b) for a, b in zip(path, path[1:]))

    def route_to_label(self, source: NodeId, label: int) -> RouteResult:
        path, cost = self.walk_to_label(source, label)
        return RouteResult(
            source=source,
            target=path[-1],
            path=path,
            cost=cost,
            optimal=self._metric.distance(source, path[-1]),
            header_bits=self.header_bits(),
            legs={"walk": cost},
        )

    def stretch_guarantee(self) -> float:
        return 1.0

    # ------------------------------------------------------------------

    def table_breakdown(self, v: NodeId) -> "BitCounter":
        """Per-category storage ledger for node ``v``."""
        from repro.core.bitcount import BitCounter

        ledger = BitCounter()
        ledger.charge("rings (all levels)", self.table_bits(v))
        return ledger

    def table_bits(self, v: NodeId) -> int:
        """Ring storage: per entry a range (2 labels) plus a next hop."""
        return self._rings.count(v) * 3 * bits_for_id(self._metric.n)

    def _header_layout(self):
        """Bit-exact codec: the packet carries only the label."""
        from repro.runtime.headers import labeled_simple_codec

        return labeled_simple_codec(self._metric)
