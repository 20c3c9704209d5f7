"""The scale-free name-independent ``(9+ε)`` scheme — Theorem 1.1 (§3.3).

The simple scheme of Theorem 1.4 keeps one search tree per node per
``r``-net level — ``Θ(log Δ)`` levels.  This scheme replaces most of them
with the ``log n + 1`` *ball packings* ``ℬ_j`` of Lemma 2.3:

* **Type ℬ** — for every packed ball ``B ∈ ℬ_j`` (center ``c``, radius
  ``r_c(j)``), a search tree over ``B``'s ``2^j`` members storing the
  ``(name, label)`` pairs of the *larger* ball ``B_c(r_c(j+2))`` — four
  pairs per tree node.
* **Type 𝒜** — a ball ``B_u(2^i/ε)`` (``u ∈ Y_i``) keeps its own search
  tree *only if* no packed ball can serve it: it is dropped whenever some
  ``B ∈ ℬ_j`` satisfies ``B ⊆ B_u(2^i(1/ε+1))`` and
  ``B_u(2^i/ε) ⊆ B_c(r_c(j+2))``.  For a dropped level ``i ∈ S(u)``,
  ``u`` stores a link (the label of ``c``) to the serving ball
  ``H(u, i)``, chosen with minimal ``j`` and then minimal ``d(u, c)``.
  Claim 3.9 shows at most ``4 log n`` such links per node, and
  Lemma 3.5 that each node appears in ``(1/ε)^{O(α)} log n`` trees.

Routing is Algorithm 3 with the ``Search()`` procedure of Algorithm 4: a
level-``i`` lookup either searches the local tree (type 𝒜) or takes a
detour to ``H(u, i)``'s center and back, at the same ``O(2^i/ε)`` cost.
Stretch is therefore still ``9 + O(ε)`` (Lemma 3.4), while the space
drops to ``(1/ε)^{O(α)} log³ n`` bits per node — independent of ``Δ``.

The underlying labeled scheme is the scale-free Theorem 1.2 scheme.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bitcount import BitCounter, bits_for_count, bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.packing.ballpacking import BallPacking
from repro.schemes.base import NameIndependentScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.searchtree.tree import SearchForest, SearchTree


class ScaleFreeNameIndependentScheme(NameIndependentScheme):
    """Theorem 1.1: scale-free ``(9+ε)``-stretch name-independent routing."""

    name = "name-independent scale-free (Theorem 1.1)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming: Optional[List[int]] = None,
        underlying: Optional[ScaleFreeLabeledScheme] = None,
    ) -> None:
        super().__init__(metric, params, naming)
        if underlying is None:
            underlying = ScaleFreeLabeledScheme(metric, self._params)
        self._underlying = underlying
        self._hierarchy: NetHierarchy = underlying.hierarchy
        self._packing: BallPacking = underlying.packing

        # Every search tree of the scheme: the type-𝒜 trees, then the
        # type-ℬ ones (the order the compiled tree ids follow).
        self._forest = SearchForest(metric)
        # Type-𝒜 search trees, keyed by (i, u).
        self._own_trees: Dict[Tuple[int, NodeId], SearchTree] = {}
        # Type-ℬ search trees, per packed ball, keyed by (j, center).
        self._packed_trees: Dict[Tuple[int, NodeId], SearchTree] = {}
        # H(u, i) links, keyed by (i, u) -> (j, center).
        self._h_links: Dict[Tuple[int, NodeId], Tuple[int, NodeId]] = {}

        self._assign_levels()
        self._build_packed_trees()
        self._forest.fill_costs()
        self._tree_bits: List[int] = self._account_trees()

    @classmethod
    def from_context(cls, context, metric, params=None, **kwargs):
        if kwargs.get("underlying") is None:
            kwargs["underlying"] = context.scheme(
                ScaleFreeLabeledScheme, metric, params
            )
        return cls(metric, params, **kwargs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _extended_ball(self, c: NodeId, j: int) -> List[NodeId]:
        """``B_c(r_c(j+2))``: the 2^{j+2} nearest nodes (clamped to n)."""
        size = min(self._metric.n, 1 << (j + 2))
        return self._metric.size_ball(c, size)

    def _build_packed_trees(self) -> None:
        eps = self._params.epsilon
        for j in self._packing.levels:
            for ball in self._packing.packing(j):
                tree = self._forest.add(
                    ball.center, ball.radius, eps, members=ball.members
                )
                pairs = {
                    self.name_of(v): self._underlying.routing_label(v)
                    for v in self._extended_ball(ball.center, j)
                }
                tree.store(pairs)
                self._packed_trees[(j, ball.center)] = tree

    def _assign_levels(self) -> None:
        """Decide, per (i, u), between a type-𝒜 tree and an H(u,i) link."""
        metric = self._metric
        eps = self._params.epsilon
        extended_cache: Dict[Tuple[int, NodeId], frozenset] = {}
        for i in self._hierarchy.levels:
            inner_radius = (2.0**i) / eps
            outer_radius = (2.0**i) * (1.0 / eps + 1.0)
            for u in self._hierarchy.net(i):
                inner = metric.ball(u, inner_radius)
                served = self._find_serving_ball(
                    u, inner, outer_radius, extended_cache
                )
                if served is not None:
                    self._h_links[(i, u)] = served
                    continue
                tree = self._forest.add(u, inner_radius, eps, members=inner)
                tree.store(
                    {
                        self.name_of(v): self._underlying.routing_label(v)
                        for v in inner
                    }
                )
                self._own_trees[(i, u)] = tree

    def _find_serving_ball(
        self,
        u: NodeId,
        inner: List[NodeId],
        outer_radius: float,
        extended_cache: Dict[Tuple[int, NodeId], frozenset],
    ) -> Optional[Tuple[int, NodeId]]:
        """First (minimal j, then nearest center) ball serving ``u``.

        A ball ``B ∈ ℬ_j`` with center ``c`` serves when
        ``B ⊆ B_u(outer_radius)`` and ``inner ⊆ B_c(r_c(j+2))``.
        """
        metric = self._metric
        # Every distance this search consults is compared against
        # outer_radius, so u's radius-bounded ball is the whole story:
        # anything outside it fails the serving condition.
        ids, dists = metric.ball_with_distances(u, outer_radius)
        du = {int(x): float(dx) for x, dx in zip(ids, dists)}
        inner_size = len(inner)
        for j in self._packing.levels:
            # inner ⊆ extended ball needs 2^{j+2} >= |inner|.
            if min(metric.n, 1 << (j + 2)) < inner_size:
                continue
            candidates = [
                ball
                for ball in self._packing.packing(j)
                if ball.center in du
            ]
            candidates.sort(key=lambda b: (du[b.center], b.center))
            for ball in candidates:
                if any(x not in du for x in ball.members):
                    continue
                key = (j, ball.center)
                extended = extended_cache.get(key)
                if extended is None:
                    extended = frozenset(
                        self._extended_ball(ball.center, j)
                    )
                    extended_cache[key] = extended
                if all(v in extended for v in inner):
                    return key
        return None

    def _account_trees(self) -> List[int]:
        unit = bits_for_id(self._metric.n)
        bits = self._forest.storage_bits(unit, unit).tolist()
        # H(u, i) links: label of the serving center + packing level.
        level_bits = bits_for_count(self._metric.log_n)
        for (_, u) in self._h_links:
            bits[u] += unit + level_bits
        return bits

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def underlying(self) -> ScaleFreeLabeledScheme:
        return self._underlying

    @property
    def hierarchy(self) -> NetHierarchy:
        return self._hierarchy

    @property
    def packing(self) -> BallPacking:
        return self._packing

    @property
    def forest(self) -> SearchForest:
        """The type-𝒜 and type-ℬ search trees, in one slot space."""
        return self._forest

    def h_link(self, u: NodeId, i: int) -> Optional[Tuple[int, NodeId]]:
        """``(j, center)`` of ``H(u, i)``, or None if ``u`` keeps a tree."""
        return self._h_links.get((i, u))

    def own_tree_count(self) -> int:
        """Number of surviving type-𝒜 search trees."""
        return len(self._own_trees)

    def h_link_count(self, u: NodeId) -> int:
        """Number of H(u, i) links stored at ``u`` (Claim 3.9 bound)."""
        return sum(1 for (i, w) in self._h_links if w == u)

    def stretch_guarantee(self) -> float:
        return 9.0

    # ------------------------------------------------------------------
    # Algorithm 4: Search(name, u, i)
    # ------------------------------------------------------------------

    def _search(
        self,
        name: int,
        u: NodeId,
        i: int,
        path: List[NodeId],
        legs: Dict[str, float],
    ) -> Optional[int]:
        """Level-``i`` lookup at ``u``; returns the label if found."""
        tracer = self._tracer
        own = self._own_trees.get((i, u))
        if own is not None:
            outcome = own.search(name)
            legs["search"] += outcome.cost
            path.extend(outcome.trail[1:])
            if tracer.enabled:
                verdict = "hit" if outcome.found else "miss"
                tracer.event(
                    node=u,
                    phase="search",
                    nodes=tuple(outcome.trail[1:]),
                    cost=outcome.cost,
                    level=i,
                    entry=f"own tree T({u}, 2^{i}/eps): {verdict}",
                    header_before={"target_name": name, "search_level": i},
                    header_after={"target_name": name, "search_level": i},
                )
            return int(outcome.data) if outcome.found else None
        j, c = self._h_links[(i, u)]
        # Detour: u -> c (labeled), search T on the packed ball, c -> u.
        out, out_cost = self._underlying.walk_to_label(
            u, self._underlying.routing_label(c)
        )
        legs["search"] += out_cost
        path.extend(out[1:])
        if tracer.enabled:
            tracer.event(
                node=u,
                phase="search",
                nodes=tuple(out[1:]),
                cost=out_cost,
                level=i,
                entry=f"H({u},{i}) link -> ball(j={j}, c={c}): detour out",
                header_before={"target_name": name, "search_level": i},
                header_after={"target_name": name, "search_level": i},
            )
        outcome = self._packed_trees[(j, c)].search(name)
        legs["search"] += outcome.cost
        path.extend(outcome.trail[1:])
        if tracer.enabled:
            verdict = "hit" if outcome.found else "miss"
            tracer.event(
                node=c,
                phase="search",
                nodes=tuple(outcome.trail[1:]),
                cost=outcome.cost,
                level=i,
                entry=f"packed-ball tree T(B in B_{j}, c={c}): {verdict}",
                header_after={"target_name": name, "search_level": i},
            )
        back, back_cost = self._underlying.walk_to_label(
            c, self._underlying.routing_label(u)
        )
        legs["search"] += back_cost
        path.extend(back[1:])
        if tracer.enabled:
            tracer.event(
                node=c,
                phase="search",
                nodes=tuple(back[1:]),
                cost=back_cost,
                level=i,
                entry=f"H({u},{i}) detour back to u={u}",
                header_after={"target_name": name, "search_level": i},
            )
        return int(outcome.data) if outcome.found else None

    # ------------------------------------------------------------------
    # Algorithm 3 with Algorithm 4 searches
    # ------------------------------------------------------------------

    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        if not 0 <= name < self._metric.n:
            raise RouteFailure(f"name {name} out of range")
        path = [source]
        legs = {"zoom": 0.0, "search": 0.0, "final": 0.0}
        current = source
        found_label: Optional[int] = None
        for i in self._hierarchy.levels:
            found_label = self._search(name, current, i, path, legs)
            if found_label is not None:
                break
            if i == self._hierarchy.top_level:
                break
            parent = self._hierarchy.parent(current, i + 1)
            if parent != current:
                leg, leg_cost = self._underlying.walk_to_label(
                    current, self._underlying.routing_label(parent)
                )
                legs["zoom"] += leg_cost
                path.extend(leg[1:])
                if self._tracer.enabled:
                    self._tracer.event(
                        node=current,
                        phase="zoom",
                        nodes=tuple(leg[1:]),
                        cost=leg_cost,
                        level=i + 1,
                        entry=(
                            f"stored parent label l(u({i + 1}))="
                            f"{self._underlying.routing_label(parent)}"
                        ),
                        header_after={
                            "target_name": name,
                            "search_level": i + 1,
                        },
                    )
                current = parent
        if found_label is None:  # pragma: no cover - top level covers V
            raise RouteFailure(f"name {name} not found at the top level")
        final, final_cost = self._underlying.walk_to_label(current, found_label)
        legs["final"] += final_cost
        path.extend(final[1:])
        if self._tracer.enabled:
            self._tracer.event(
                node=current,
                phase="final",
                nodes=tuple(final[1:]),
                cost=final_cost,
                entry=f"retrieved label l={found_label}",
                header_after={"target_name": name},
            )
        target = final[-1]
        if self.name_of(target) != name:
            # The delivered node checks the packet's destination name
            # against its own; a mismatch means corrupted routing state.
            raise RouteFailure(
                f"misdelivery: node {target} has name "
                f"{self.name_of(target)}, packet wanted {name}"
            )
        return RouteResult(
            source=source,
            target=target,
            path=path,
            cost=sum(legs.values()),
            optimal=self._metric.distance(source, target),
            header_bits=self.header_bits(),
            legs=legs,
        )

    # ------------------------------------------------------------------

    def table_breakdown(self, v: NodeId) -> BitCounter:
        """Per-category storage ledger for node ``v``."""
        unit = bits_for_id(self._metric.n)
        ledger = BitCounter()
        ledger.merge(self._underlying.table_breakdown(v))
        ledger.charge("netting-tree parent label", unit)
        level_bits = bits_for_count(self._metric.log_n)
        h_links = sum(1 for (_, w) in self._h_links if w == v)
        ledger.charge("H(u,i) links", h_links * (unit + level_bits))
        ledger.charge(
            "name search trees",
            self._tree_bits[v] - h_links * (unit + level_bits),
        )
        return ledger

    def table_bits(self, v: NodeId) -> int:
        unit = bits_for_id(self._metric.n)
        parent_label = unit
        return (
            self._underlying.table_bits(v)
            + parent_label
            + self._tree_bits[v]
        )

    def _header_layout(self):
        """Bit-exact codec: name + level + the labeled sub-header."""
        from repro.runtime.headers import name_independent_codec

        return name_independent_codec(
            self._metric, self._underlying.header_codec()
        )
