"""Ball packings — the Packing Lemma (paper Lemma 2.3).

For each ``j ∈ [log n]`` the packing ``ℬ_j`` is a maximal set of pairwise
disjoint balls of *size* exactly ``2^j`` (each ball is the ``2^j`` nearest
nodes of its center, ties broken by node id; its radius is the paper's
``r_c(j)``).  Following the lemma's proof, balls are selected greedily in
order of increasing radius (ties by center id), giving both properties:

1. every ball in ``ℬ_j`` has exactly ``2^j`` members, and
2. for any node ``u`` there is a ball ``B ∈ ℬ_j`` with center ``c`` such
   that ``r_c(j) <= r_u(j)`` and ``d(u, c) <= 2 r_u(j)``.

The packings are the ingredient that makes the Theorem 1.1/1.2 schemes
scale-free: there are only ``log n + 1`` of them, independent of ``Δ``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.types import NodeId
from repro.metric.graph_metric import GraphMetric


@dataclasses.dataclass(frozen=True)
class PackedBall:
    """One ball of a packing ``ℬ_j``.

    Attributes:
        center: The node ``c`` the ball is grown around.
        level: The packing index ``j`` (ball size is ``2^level``).
        radius: ``r_c(j)``, distance from ``c`` to its ``2^j``-th nearest
            node.
        members: The ``2^j`` nearest nodes of ``c`` (ties by id).
    """

    center: NodeId
    level: int
    radius: float
    members: FrozenSet[NodeId]

    @property
    def size(self) -> int:
        return len(self.members)


class BallPacking:
    """The family ``{ℬ_j : j ∈ [log n]}`` of greedy ball packings.

    Args:
        metric: The network metric.

    The packing for level ``j = log n`` always consists of the single ball
    of all ``n`` nodes centered at the node with the smallest eccentricity
    (ties by id) — sizes ``2^j`` are clamped to ``n`` at the top so the
    hierarchy is well defined when ``n`` is not a power of two.
    """

    def __init__(self, metric: GraphMetric) -> None:
        self._metric = metric
        self._levels = metric.log_n
        self._packings: List[List[PackedBall]] = [
            self._build_level(j) for j in range(self._levels + 1)
        ]
        # node -> ball-of-this-level containing it (balls are disjoint).
        self._containing: List[Dict[NodeId, PackedBall]] = []
        for packing in self._packings:
            index: Dict[NodeId, PackedBall] = {}
            for ball in packing:
                for v in ball.members:
                    index[v] = ball
            self._containing.append(index)

    @classmethod
    def rebuilt(cls, metric: GraphMetric) -> "BallPacking":
        """A cold build, ``cls(metric)``.

        Nothing in the library calls it.  The name stays only because
        every perfbench pass resolves each entry point listed in
        ``perfbench/tracing.py`` with ``inspect.getattr_static``, so a
        missing one fails every benchmark run.
        """
        return cls(metric)

    def _build_level(self, j: int) -> List[PackedBall]:
        metric = self._metric
        size = min(metric.n, 1 << j)
        candidates = sorted(
            metric.nodes, key=lambda u: (metric.size_radius(u, size), u)
        )
        taken: set = set()
        packing: List[PackedBall] = []
        for c in candidates:
            radius, members = metric.size_ball_with_radius(c, size)
            if any(v in taken for v in members):
                continue
            packing.append(
                PackedBall(
                    center=c,
                    level=j,
                    radius=radius,
                    members=frozenset(members),
                )
            )
            taken.update(members)
        return packing

    # ------------------------------------------------------------------

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    @property
    def top_level(self) -> int:
        """``log n`` — the largest packing index."""
        return self._levels

    @property
    def levels(self) -> range:
        """All packing indices ``0 .. log n``."""
        return range(self._levels + 1)

    def packing(self, j: int) -> List[PackedBall]:
        """``ℬ_j``, in greedy selection order."""
        return self._packings[j]

    def ball_containing(self, u: NodeId, j: int) -> Optional[PackedBall]:
        """The (unique) ball of ``ℬ_j`` containing ``u``, if any.

        Packings are maximal but need not cover every node; Property 2
        guarantees only a *nearby* ball.
        """
        return self._containing[j].get(u)

    def nearby_ball(self, u: NodeId, j: int) -> PackedBall:
        """A ball witnessing Lemma 2.3 Property 2 for ``u``.

        Returns the packed ball whose member set intersects
        ``B_u(r_u(j))``, minimizing ``(radius, d(u, center), center id)``.
        The lemma guarantees ``radius <= r_u(j)`` and
        ``d(u, center) <= 2 r_u(j)`` for the returned ball.
        """
        metric = self._metric
        size = min(metric.n, 1 << j)
        own = frozenset(metric.size_ball(u, size))
        best: Optional[Tuple[float, float, int, PackedBall]] = None
        for ball in self._packings[j]:
            if ball.members.isdisjoint(own):
                continue
            key = (ball.radius, metric.distance(u, ball.center), ball.center)
            if best is None or key < best[:3]:
                best = (*key, ball)
        if best is None:  # pragma: no cover - maximality forbids this
            raise RuntimeError(f"packing level {j} is not maximal")
        return best[3]

    def voronoi_center(self, u: NodeId, j: int) -> NodeId:
        """Center ``c`` of ``ℬ_j`` whose Voronoi region contains ``u``.

        Voronoi regions (paper §4.1) partition ``V`` by nearest packing
        center, ties broken by least center id.
        """
        centers = [ball.center for ball in self._packings[j]]
        return self._metric.nearest_in(u, centers)

    def centers(self, j: int) -> List[NodeId]:
        """Centers of ``ℬ_j`` in greedy selection order."""
        return [ball.center for ball in self._packings[j]]

    def __repr__(self) -> str:
        sizes = [len(p) for p in self._packings]
        return f"BallPacking(levels={self._levels}, counts={sizes})"
