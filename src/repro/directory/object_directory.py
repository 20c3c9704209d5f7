"""Locality-aware object location — the paper's motivating application.

The introduction motivates name-independent routing with "network
operations such as locating nearby copies of replicated objects and
tracking of mobile objects" (Awerbuch–Peleg [8]; LAND [7]).  This module
builds that directory service on the Theorem 1.4 machinery:

* **publish(object, holder)** registers ``(object -> l(holder))`` in the
  ball directory ``T(x, 2^i/ε)`` of *every* net point ``x ∈ Y_i`` whose
  ball contains the holder — exactly how the name-independent scheme
  indexes node names, with object ids as the keys.  When several copies
  fall in the same ball, the one nearest the ball center is kept.
* **lookup(origin, object)** runs Algorithm 3 with the object id as the
  key: climb the origin's zooming sequence, search each level's ball
  directory, and travel to the first copy found with the underlying
  labeled scheme.

Locality guarantee (the Lemma 3.4 argument, adapted): a miss at level
``i-1`` certifies that *no* copy lies within ``2^{i-1}/ε`` of
``u(i-1)``, so the distance to the nearest copy is at least
``2^{i-1}(1/ε - 2)``; the total climb + search + fetch cost is
``O(2^j/ε)``, giving a constant ``locality_ratio`` independent of the
number or placement of copies (``≈ 11 + O(ε)``; for a single copy the
found holder is the target itself and the paper's ``9 + O(ε)`` bound
applies verbatim).  Unpublish + republish supports mobile objects.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.searchtree.tree import SearchTree


@dataclasses.dataclass
class LookupResult:
    """Outcome of one object lookup."""

    object_id: Hashable
    origin: NodeId
    holder: NodeId
    cost: float
    nearest_copy_distance: float
    path: List[NodeId]

    @property
    def locality_ratio(self) -> float:
        """Lookup cost over the distance to the nearest copy."""
        if self.nearest_copy_distance <= 0:
            return 1.0
        return self.cost / self.nearest_copy_distance


class ObjectDirectory:
    """Publish/lookup directory with a constant locality guarantee."""

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        labeled: Optional[NonScaleFreeLabeledScheme] = None,
    ) -> None:
        if params is None:
            params = SchemeParameters()
        self._metric = metric
        self._params = params
        if labeled is None:
            labeled = NonScaleFreeLabeledScheme(metric, params)
        self._labeled = labeled
        self._hierarchy: NetHierarchy = labeled.hierarchy
        # One ball directory per (level, net point); the registration
        # maps keep (label, holder) while the trees store labels only.
        self._trees: List[Dict[NodeId, SearchTree]] = []
        self._registrations: List[
            Dict[NodeId, Dict[Hashable, Tuple[int, NodeId]]]
        ] = []
        self._holders: Dict[Hashable, Set[NodeId]] = {}
        for i in self._hierarchy.levels:
            radius = (2.0**i) / params.epsilon
            level_trees = {}
            level_regs = {}
            for x in self._hierarchy.net(i):
                tree = SearchTree(metric, x, radius, params.epsilon)
                tree.store({})
                level_trees[x] = tree
                level_regs[x] = {}
            self._trees.append(level_trees)
            self._registrations.append(level_regs)

    # ------------------------------------------------------------------
    # Publish / unpublish
    # ------------------------------------------------------------------

    def _directories_covering(self, holder: NodeId):
        """Yield every (level, net point) whose ball holds ``holder``."""
        eps = self._params.epsilon
        for i in self._hierarchy.levels:
            radius = (2.0**i) / eps
            # The bounded ball over-approximates (its slack is 1e-9);
            # re-filter at this directory's tighter 1e-12 tolerance.
            ids, d = self._metric.ball_with_distances(holder, radius)
            covering = {
                int(x) for x, dx in zip(ids, d) if dx <= radius + 1e-12
            }
            for x in self._hierarchy.net(i):
                if x in covering:
                    yield i, x

    def publish(self, object_id: Hashable, holder: NodeId) -> None:
        """Register a copy of ``object_id`` held at ``holder``.

        Registers in every ball directory containing the holder —
        ``(1/ε)^{O(α)}`` per level — keeping, per directory, the copy
        nearest its center (least id on ties).
        """
        if not 0 <= holder < self._metric.n:
            raise PreprocessingError(f"holder {holder} out of range")
        label = self._labeled.routing_label(holder)
        for i, x in self._directories_covering(holder):
            held = self._registrations[i][x]
            incumbent = held.get(object_id)
            if incumbent is None or self._center_prefers(
                x, holder, incumbent[1]
            ):
                held[object_id] = (label, holder)
                self._trees[i][x].store(
                    {key: value[0] for key, value in held.items()}
                )
        self._holders.setdefault(object_id, set()).add(holder)

    def _center_prefers(
        self, center: NodeId, candidate: NodeId, incumbent: NodeId
    ) -> bool:
        metric = self._metric
        return (metric.distance(center, candidate), candidate) < (
            metric.distance(center, incumbent),
            incumbent,
        )

    def unpublish(self, object_id: Hashable, holder: NodeId) -> None:
        """Remove ``holder``'s copy (mobile objects: move = un+republish)."""
        holders = self._holders.get(object_id, set())
        holders.discard(holder)
        if not holders:
            self._holders.pop(object_id, None)
        for i in self._hierarchy.levels:
            for x, held in self._registrations[i].items():
                entry = held.get(object_id)
                if entry is not None:
                    del held[object_id]
                    self._trees[i][x].store(
                        {key: value[0] for key, value in held.items()}
                    )
        for remaining in sorted(holders):
            self.publish(object_id, remaining)

    def holders(self, object_id: Hashable) -> Set[NodeId]:
        return set(self._holders.get(object_id, set()))

    def registration_count(self, object_id: Hashable) -> int:
        """Total directory entries held for ``object_id`` (space audit)."""
        return sum(
            1
            for level in self._registrations
            for held in level.values()
            if object_id in held
        )

    # ------------------------------------------------------------------
    # Lookup (Algorithm 3 with the object id as the key)
    # ------------------------------------------------------------------

    def lookup(self, origin: NodeId, object_id: Hashable) -> LookupResult:
        """Find and travel to a copy of ``object_id`` from ``origin``."""
        holders = self._holders.get(object_id)
        if not holders:
            raise RouteFailure(f"object {object_id!r} is not published")
        path = [origin]
        cost = 0.0
        current = origin
        found_label: Optional[int] = None
        for i in self._hierarchy.levels:
            outcome = self._trees[i][current].search(object_id)
            cost += outcome.cost
            path.extend(outcome.trail[1:])
            if outcome.found:
                found_label = int(outcome.data)
                break
            if i == self._hierarchy.top_level:
                break
            parent = self._hierarchy.parent(current, i + 1)
            if parent != current:
                leg, leg_cost = self._labeled.walk_to_label(
                    current, self._labeled.routing_label(parent)
                )
                cost += leg_cost
                path.extend(leg[1:])
                current = parent
        if found_label is None:  # pragma: no cover - root ball covers V
            raise RouteFailure(
                f"published object {object_id!r} not found at the root"
            )
        final, final_cost = self._labeled.walk_to_label(current, found_label)
        cost += final_cost
        path.extend(final[1:])
        holder = final[-1]
        if holder not in holders:  # pragma: no cover - defensive
            raise RouteFailure(
                f"directory delivered to non-holder {holder}"
            )
        nearest = min(
            self._metric.distance(origin, h) for h in holders
        )
        return LookupResult(
            object_id=object_id,
            origin=origin,
            holder=holder,
            cost=cost,
            nearest_copy_distance=nearest,
            path=path,
        )

    def locality_guarantee(self) -> float:
        """Cost/nearest-copy envelope ``(8(1/ε+1) + 2/ε)/(1/ε−2) + 1``.

        Requires ``ε < 1/2``; with a single published copy the tighter
        Lemma 3.4 bound ``1 + 8(1/ε+1)/(1/ε−2)`` applies.
        """
        inv = 1.0 / self._params.epsilon
        if inv <= 2.0:
            return float("inf")
        return (8.0 * (inv + 1.0) + 2.0 * inv) / (inv - 2.0) + 1.0
