"""The scale-free ``(1+ε)``-stretch labeled scheme — Theorem 1.2 (§4).

Per-node data structures (paper §4.1):

1. Rings ``X_i(u) = B_u(2^i/ε) ∩ Y_i`` — but stored **only** for the
   levels ``i ∈ R(u) = {i : ∃j, (ε/6) r_u(j) <= 2^i <= r_u(j)}``.
   ``|R(u)| = O(log n / ε)`` regardless of ``Δ``: this is what makes the
   scheme scale-free.
2. For every packing level ``j ∈ [log n]``: the Voronoi center ``c`` of
   ``u`` among the centers of ``ℬ_j``, and ``c``'s local routing label in
   the shortest-path tree ``T_c(j)`` spanning the Voronoi region.
3. Tree-routing state (Lemma 4.1 substrate) for every tree ``T_c(j)``
   containing ``u``.
4. Search trees II ``T'(c, r_c(j))`` storing, keyed by global label
   ``l(v)``, the local label ``l(v; c, j)`` of every
   ``v ∈ T_c(j) ∩ B_c(r_c(j+1))``.

Routing (Algorithm 5): walk greedily toward the lowest-ring hit while the
hit level does not increase and the hit is far (``d >= 2^{i-1}/ε - 2^i``);
once the walk stops at ``u_t``, pick ``j`` with
``r_{u_t}(j) <= 2^{i_t} < r_{u_t}(j+1)``, route on ``T_c(j)`` to the
Voronoi center ``c``, look up the destination's local tree label in
``T'(c, r_c(j))`` (Lemma 4.5 guarantees it is there), and tree-route to
the destination.  Total stretch ``1 + O(ε)`` (Lemma 4.7).

A defensive escalation path exists for inputs where floating-point ties
void Lemma 4.5's premises: the level-``log n`` packing has a single ball
whose Voronoi tree spans the graph and whose search tree stores every
node, so escalating to ``j = log n`` always succeeds.  Escalations are
counted in :attr:`fallback_count` and asserted to be rare in tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.bitcount import BitCounter, bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure, RouteResult
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.nets.rings import Rings
from repro.packing.ballpacking import BallPacking
from repro.searchtree.tree import SearchForest, SearchTree
from repro.schemes.base import LabeledScheme
from repro.trees.spt import ShortestPathTree, voronoi_partition
from repro.trees.tree_router import TreeRouter


class ScaleFreeLabeledScheme(LabeledScheme):
    """Theorem 1.2: scale-free ``(1+ε)``-stretch labeled routing."""

    name = "labeled scale-free (Theorem 1.2)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        hierarchy: Optional[NetHierarchy] = None,
        packing: Optional[BallPacking] = None,
        tree_router_cls: type = TreeRouter,
    ) -> None:
        super().__init__(metric, params)
        if self._params.epsilon > 0.5:
            raise PreprocessingError(
                "labeled schemes require epsilon <= 1/2"
            )
        # The Lemma 4.1 substrate is pluggable: TreeRouter (DFS
        # intervals, O(deg log n)/node) or HeavyPathRouter (heavy-path
        # labels, degree-independent).  Routing behaviour is identical.
        self._tree_router_cls = tree_router_cls
        self._hierarchy = hierarchy if hierarchy is not None else NetHierarchy(metric)
        self._packing = packing if packing is not None else BallPacking(metric)
        self.fallback_count = 0

        self._stored_levels: List[List[int]] = [
            self._levels_R(u) for u in metric.nodes
        ]
        self._rings = Rings(
            metric, self._hierarchy, self._params.epsilon, self._stored_levels
        )

        # Per packing level j: voronoi center of each node, the trees,
        # their routers, and the search trees II.
        self._voronoi_center: List[List[NodeId]] = []
        self._routers: List[Dict[NodeId, TreeRouter]] = []
        # _searchers[j][c] = T'(c, r_c(j)), a view into the forest.
        self._searchers: List[Dict[NodeId, SearchTree]] = []
        self._forest = SearchForest(metric)
        self._build_voronoi_layers()
        # Bits per node for everything except the rings, precomputed.
        self._struct_bits: List[int] = self._account_structures()

    @classmethod
    def from_context(cls, context, metric, params=None, **kwargs):
        kwargs.setdefault("hierarchy", context.hierarchy(metric))
        kwargs.setdefault("packing", context.packing(metric))
        return cls(metric, params, **kwargs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _levels_R(self, u: NodeId) -> List[int]:
        """``R(u)``: levels i with (ε/6) r_u(j) <= 2^i <= r_u(j)."""
        eps = self._params.epsilon
        top = self._hierarchy.top_level
        levels = set()
        for j in range(self._metric.log_n + 1):
            r = self._metric.r_u(u, j)
            if r <= 0:
                continue
            lo = math.ceil(math.log2(eps * r / 6.0) - DISTANCE_SLACK)
            hi = math.floor(math.log2(r) + DISTANCE_SLACK)
            for i in range(max(0, lo), min(top, hi) + 1):
                levels.add(i)
        return sorted(levels)

    def _build_voronoi_layers(self) -> None:
        metric = self._metric
        label_of = self._hierarchy.label
        for j in self._packing.levels:
            centers = self._packing.centers(j)
            cells = voronoi_partition(metric, centers)
            center_of = [0] * metric.n
            routers: Dict[NodeId, TreeRouter] = {}
            searchers: Dict[NodeId, SearchTree] = {}
            for c, cell in cells.items():
                for v in cell:
                    center_of[v] = c
                tree = ShortestPathTree(metric, c, cell)
                router = self._tree_router_cls(tree)
                routers[c] = router
                # Search tree II on the ball B_c(r_c(j)), holding the
                # local labels of T_c(j) ∩ B_c(r_c(j+1)).
                ball = self._packing_ball_members(c, j)
                searcher = self._forest.add(
                    c,
                    metric.r_u(c, j),
                    self._params.epsilon,
                    members=ball,
                    level_cap=metric.log_n,
                )
                bigger = set(
                    metric.size_ball(c, min(metric.n, 1 << (j + 1)))
                )
                pairs = {
                    label_of(v): router.label(v)
                    for v in tree.nodes
                    if v in bigger
                }
                searcher.store(pairs)
                searchers[c] = searcher
            self._voronoi_center.append(center_of)
            self._routers.append(routers)
            self._searchers.append(searchers)
        self._forest.fill_costs()

    def _packing_ball_members(self, c: NodeId, j: int) -> List[NodeId]:
        size = min(self._metric.n, 1 << j)
        return self._metric.size_ball(c, size)

    # ------------------------------------------------------------------
    # Labeled-scheme interface
    # ------------------------------------------------------------------

    @property
    def hierarchy(self) -> NetHierarchy:
        return self._hierarchy

    @property
    def packing(self) -> BallPacking:
        return self._packing

    def routing_label(self, v: NodeId) -> int:
        return self._hierarchy.label(v)

    def label_bits(self) -> int:
        return bits_for_id(self._metric.n)

    def stored_levels(self, u: NodeId) -> List[int]:
        """``R(u)`` (read-only view for tests)."""
        return list(self._stored_levels[u])

    @property
    def forest(self) -> SearchForest:
        """Every search tree II of the scheme, in one slot space."""
        return self._forest

    def ring_entries(self, u: NodeId, i: int) -> Dict[NodeId, Tuple[int, int, float]]:
        """Stored ring ``X_i(u)`` as ``x -> (lo, hi, d)`` (empty off R(u))."""
        return self._rings.ring(u, i)

    def stretch_guarantee(self) -> float:
        return 1.0

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------

    def _size_level_for(self, u: NodeId, power: float) -> int:
        """``j`` with ``r_u(j) <= power < r_u(j+1)`` (clamped at log n)."""
        metric = self._metric
        for j in range(metric.log_n + 1):
            upper = (
                math.inf
                if j >= metric.log_n
                else metric.r_u(u, j + 1)
            )
            if metric.r_u(u, j) <= power + DISTANCE_SLACK and power < upper:
                return j
        return metric.log_n  # pragma: no cover - loop always returns

    def route_to_label(self, source: NodeId, label: int) -> RouteResult:
        path, legs = self._route(source, label)
        cost = sum(legs.values())
        return RouteResult(
            source=source,
            target=path[-1],
            path=path,
            cost=cost,
            optimal=self._metric.distance(source, path[-1]),
            header_bits=self.header_bits(),
            legs=legs,
        )

    def walk_to_label(self, source: NodeId, label: int) -> Tuple[List[NodeId], float]:
        path, legs = self._route(source, label)
        return path, sum(legs.values())

    def _route(
        self, source: NodeId, label: int
    ) -> Tuple[List[NodeId], Dict[str, float]]:
        """Algorithm 5: the path (ending at the destination) and the
        cost of each leg."""
        if not 0 <= label < self._metric.n:
            raise RouteFailure(f"label {label} out of range")
        metric = self._metric
        eps = self._params.epsilon
        tracer = self._tracer
        path = [source]
        legs = {"walk": 0.0, "to_center": 0.0, "search": 0.0, "final": 0.0}
        current = source
        previous_level = math.inf
        guard = 4 * metric.n * (self._hierarchy.top_level + 2)

        # Phase 1 (lines 1-6): greedy ring walk.
        while self._hierarchy.label(current) != label:
            hit = self._rings.hit(current, label)
            if hit is None:
                break  # defensive: go to the Voronoi phase at top level
            i, x, lo, hi, dist, nxt = hit
            is_destination = lo == hi
            threshold = (2.0 ** (i - 1)) / eps - (2.0**i)
            # When the covering range is a singleton, x is the
            # destination itself and its next hop is stored — deliver
            # directly (the distance threshold only exists to stop
            # chasing *proxies*; see Claim 4.6, which assumes i_t >= 1).
            if x != current and (
                is_destination
                or (i <= previous_level and dist >= threshold - DISTANCE_SLACK)
            ):
                weight = metric.edge_weight(current, nxt)
                if tracer.enabled:
                    what = "destination" if is_destination else "proxy"
                    before = {"target_label": label}
                    if math.isfinite(previous_level):
                        before["prev_level"] = int(previous_level)
                    tracer.event(
                        node=current,
                        phase="walk",
                        nodes=(nxt,),
                        cost=weight,
                        level=i,
                        entry=f"ring R(u) level {i} hit x={x} ({what})",
                        header_before=before,
                        header_after={"target_label": label, "prev_level": i},
                    )
                legs["walk"] += weight
                current = nxt
                path.append(current)
                previous_level = i
                if len(path) > guard:  # pragma: no cover - defensive
                    raise RouteFailure("ring walk failed to converge")
                continue
            break

        if self._hierarchy.label(current) == label:
            return path, legs

        # Phase 2 (lines 7-10): Voronoi tree + search tree II.
        hit = self._rings.hit(current, label)
        if hit is None:
            start_j = metric.log_n
            self.fallback_count += 1
            if tracer.enabled:
                tracer.event(
                    node=current,
                    phase="fallback",
                    level=start_j,
                    entry="no ring hit: escalate to the global packing level",
                )
        else:
            start_j = self._size_level_for(current, 2.0 ** hit[0])
        for j in range(start_j, metric.log_n + 1):
            done, current = self._voronoi_phase(current, label, j, path, legs)
            if done:
                return path, legs
            self.fallback_count += 1
            if tracer.enabled and j < metric.log_n:
                tracer.event(
                    node=current,
                    phase="fallback",
                    level=j + 1,
                    entry=(
                        f"search tree II miss at packing level {j}: "
                        f"escalate to {j + 1}"
                    ),
                )
        raise RouteFailure(  # pragma: no cover - global level always hits
            f"label {label} not found even at the global level"
        )

    def _voronoi_phase(
        self,
        current: NodeId,
        label: int,
        j: int,
        path: List[NodeId],
        legs: Dict[str, float],
    ) -> Tuple[bool, NodeId]:
        """Lines 7-10 of Algorithm 5 at packing level ``j``.

        Returns ``(reached_destination, node_where_packet_is)``.
        """
        metric = self._metric
        tracer = self._tracer
        c = self._voronoi_center[j][current]
        router = self._routers[j][c]
        # Route current -> c on T_c(j) (u_t stores l(c; c, j)).
        tree_path = router.route(current, router.label(c))
        leg_cost = sum(
            metric.edge_weight(a, b)
            for a, b in zip(tree_path, tree_path[1:])
        )
        legs["to_center"] += leg_cost
        path.extend(tree_path[1:])
        if tracer.enabled:
            header = {"target_label": label, "packing_level": j}
            if isinstance(router.label(c), int):
                header["tree_center"] = router.label(c)
            tracer.event(
                node=tree_path[0],
                phase="to_center",
                nodes=tuple(tree_path[1:]),
                cost=leg_cost,
                level=j,
                entry=f"Voronoi center c={c} of B_j, tree-route on T_c({j})",
                header_after=header,
            )
        current = c
        # Look up l(v; c, j) by global label in T'(c, r_c(j)).
        outcome = self._searchers[j][c].search(label)
        legs["search"] += outcome.cost
        path.extend(outcome.trail[1:])
        if tracer.enabled:
            verdict = "hit" if outcome.found else "miss"
            tracer.event(
                node=c,
                phase="search",
                nodes=tuple(outcome.trail[1:]),
                cost=outcome.cost,
                level=j,
                entry=f"T'(c={c}, r_c({j})) lookup l={label}: {verdict}",
                header_after={"target_label": label, "packing_level": j},
            )
        if not outcome.found:
            return False, current
        # Route c -> v on T_c(j).
        final_path = router.route(c, outcome.data)
        leg_cost = sum(
            metric.edge_weight(a, b)
            for a, b in zip(final_path, final_path[1:])
        )
        legs["final"] += leg_cost
        path.extend(final_path[1:])
        if tracer.enabled:
            header = {"target_label": label, "packing_level": j}
            if isinstance(outcome.data, int):
                header["tree_target"] = outcome.data
            tracer.event(
                node=c,
                phase="final",
                nodes=tuple(final_path[1:]),
                cost=leg_cost,
                level=j,
                entry=f"tree-route on T_c({j}) to local label {outcome.data}",
                header_after=header,
            )
        return True, final_path[-1]

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def _account_structures(self) -> List[int]:
        """Per-node bits for Voronoi links, tree routing, search trees."""
        unit = bits_for_id(self._metric.n)
        bits = [0] * self._metric.n
        for j in self._packing.levels:
            # Voronoi center id + the center's local tree label.
            for v in self._metric.nodes:
                c = self._voronoi_center[j][v]
                bits[v] += unit + self._routers[j][c].label_bits()
            # Tree-routing state for every tree containing v (including
            # pass-through membership caused by distance ties).
            for router in self._routers[j].values():
                for v in router.tree.nodes:
                    bits[v] += router.storage_bits(v)
        # Search trees II.
        trees = self._forest.storage_bits(unit, unit)
        return [b + int(t) for b, t in zip(bits, trees)]

    def table_breakdown(self, v: NodeId) -> BitCounter:
        """Per-category storage ledger for node ``v``."""
        unit = bits_for_id(self._metric.n)
        ledger = BitCounter()
        ledger.charge("rings R(u)", self._rings.count(v) * 4 * unit)
        ledger.charge("voronoi + trees + search", self._struct_bits[v])
        return ledger

    def table_bits(self, v: NodeId) -> int:
        return self.table_breakdown(v).total()

    def _header_layout(self):
        """Bit-exact codec for this scheme's packet headers."""
        from repro.runtime.headers import labeled_scalefree_codec

        tree_label_bits = max(
            router.label_bits()
            for routers in self._routers
            for router in routers.values()
        )
        return labeled_scalefree_codec(
            self._metric, tree_label_bits=tree_label_bits
        )
