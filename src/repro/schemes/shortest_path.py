"""Stretch-1 baseline: full shortest-path next-hop tables.

This is the trivial scheme the paper's introduction starts from ("this
could even be done if each source stored just the next hop of the
shortest path to each destination"): every node stores one next-hop entry
per destination, giving ``Θ(n log n)``-bit tables, ``⌈log n⌉``-bit
headers, and stretch exactly 1.  The compact schemes are measured against
it in every experiment.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.schemes.base import NameIndependentScheme


class ShortestPathScheme(NameIndependentScheme):
    """Full-table shortest-path routing (stretch 1, linear storage)."""

    name = "shortest-path (baseline)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming=None,
    ) -> None:
        super().__init__(metric, params, naming)
        # Tables are next-hop-per-destination, keyed by *name*; the
        # canonical next hops are materialized lazily by GraphMetric.

    def stretch_guarantee(self) -> float:
        return 1.0

    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        target = self.node_with_name(name)
        path = self._metric.shortest_path(source, target)
        cost = sum(
            self._metric.edge_weight(a, b) for a, b in zip(path, path[1:])
        )
        tracer = self._tracer
        if tracer.enabled:
            # One table decision per hop: the next-hop entry for `name`.
            for a, b in zip(path, path[1:]):
                tracer.event(
                    node=a,
                    phase="direct",
                    nodes=(b,),
                    cost=self._metric.edge_weight(a, b),
                    entry=f"next-hop[{name}] = {b}",
                    header_after={"target_name": name},
                )
        return RouteResult(
            source=source,
            target=target,
            path=path,
            cost=cost,
            optimal=self._metric.distance(source, target),
            header_bits=self.header_bits(),
        )

    def table_bits(self, v: NodeId) -> int:
        unit = bits_for_id(self._metric.n)
        return (self._metric.n - 1) * 2 * unit  # (name, next hop) entries

    def _header_layout(self):
        """Bit-exact codec: the packet carries only the destination name."""
        from repro.runtime.headers import shortest_path_codec

        return shortest_path_codec(self._metric)
