"""The simple name-independent ``(9+ε)``-stretch scheme — Theorem 1.4.

Paper §3.1-3.2.  On top of an underlying ``(1+ε)``-stretch labeled scheme
(Lemma 3.1; our :class:`NonScaleFreeLabeledScheme` by default):

* every node ``u`` can travel up its zooming sequence — each ``u(i)``
  stores the routing label of its netting-tree parent ``u(i+1)``;
* for every level ``i ∈ [log Δ]`` and net point ``x ∈ Y_i`` a search tree
  ``T(x, 2^i/ε)`` stores the pair ``(name(v), l(v))`` of every node ``v``
  in the ball ``B_x(2^i/ε)``.

Routing (Algorithm 3): starting at ``i = 0``, search ``T(u(i), 2^i/ε)``
for the destination's name; on a miss climb to ``u(i+1)`` and repeat; on
a hit route to the retrieved label with the labeled scheme.  Lemma 3.4
bounds the total cost by ``(9 + O(ε)) d(u, v)``: the zooming legs cost
``< 2^{j+1}`` (Eqn. 2), the searches ``Σ 2^{i+1}/ε``, and a miss at level
``j-1`` certifies ``d(u, v) >= 2^{j-1}(1/ε - 2)`` (Eqn. 5).

Space is ``(1/ε)^{O(α)} log Δ log n`` bits per node — the ``log Δ``
levels of search trees are exactly what Theorem 1.1 removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.bitcount import BitCounter, bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.schemes.base import LabeledScheme, NameIndependentScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.searchtree.tree import SearchForest, SearchTree


class SimpleNameIndependentScheme(NameIndependentScheme):
    """Theorem 1.4: ``(9+ε)`` stretch, ``log Δ``-dependent tables."""

    name = "name-independent simple (Theorem 1.4)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming: Optional[List[int]] = None,
        underlying: Optional[LabeledScheme] = None,
    ) -> None:
        super().__init__(metric, params, naming)
        if underlying is None:
            underlying = NonScaleFreeLabeledScheme(metric, self._params)
        self._underlying = underlying
        self._hierarchy: NetHierarchy = underlying.hierarchy
        self._build_search_trees()

    @classmethod
    def from_context(cls, context, metric, params=None, **kwargs):
        if kwargs.get("underlying") is None:
            kwargs["underlying"] = context.scheme(
                NonScaleFreeLabeledScheme, metric, params
            )
        return cls(metric, params, **kwargs)

    # ------------------------------------------------------------------

    def _build_search_trees(self) -> None:
        """Build every ``T(x, 2^i/ε)`` into one forest, in level order."""
        eps = self._params.epsilon
        label = self._underlying.routing_label
        forest = SearchForest(self._metric)
        # _trees[i][x] = T(x, 2^i/ε), x in Y_i: views into the forest.
        self._trees: List[Dict[NodeId, SearchTree]] = []
        for i in self._hierarchy.levels:
            level_trees: Dict[NodeId, SearchTree] = {}
            for x in self._hierarchy.net(i):
                tree = forest.add(x, (2.0**i) / eps, eps)
                forest.store(
                    tree.index, {self.name_of(v): label(v) for v in tree.nodes}
                )
                level_trees[x] = tree
            self._trees.append(level_trees)
        forest.fill_costs()
        self._forest = forest
        unit = bits_for_id(self._metric.n)
        self._tree_bits: List[int] = forest.storage_bits(unit, unit).tolist()

    # ------------------------------------------------------------------

    @property
    def underlying(self) -> LabeledScheme:
        """The labeled scheme used for all point-to-point legs."""
        return self._underlying

    @property
    def hierarchy(self) -> NetHierarchy:
        return self._hierarchy

    @property
    def forest(self) -> SearchForest:
        """Every search tree of the scheme, in one slot space."""
        return self._forest

    def search_tree(self, x: NodeId, i: int) -> SearchTree:
        """``T(x, 2^i/ε)`` (a view into :attr:`forest`)."""
        return self._trees[i][x]

    def stretch_guarantee(self) -> float:
        return 9.0

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------

    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        if not 0 <= name < self._metric.n:
            raise RouteFailure(f"name {name} out of range")
        path = [source]
        legs = {"zoom": 0.0, "search": 0.0, "final": 0.0}
        tracer = self._tracer
        current = source
        found_label: Optional[int] = None
        for i in self._hierarchy.levels:
            outcome = self._trees[i][current].search(name)
            legs["search"] += outcome.cost
            path.extend(outcome.trail[1:])
            if tracer.enabled:
                verdict = "hit" if outcome.found else "miss"
                tracer.event(
                    node=current,
                    phase="search",
                    nodes=tuple(outcome.trail[1:]),
                    cost=outcome.cost,
                    level=i,
                    entry=f"T(u({i})={current}, 2^{i}/eps): {verdict}",
                    header_before={"target_name": name, "search_level": i},
                    header_after={
                        "target_name": name,
                        "search_level": i if outcome.found else i + 1,
                    },
                )
            if outcome.found:
                found_label = int(outcome.data)
                break
            if i == self._hierarchy.top_level:
                break
            parent = self._hierarchy.parent(current, i + 1)
            if parent != current:
                # u(i) stores l(u(i+1)); climb with the labeled scheme.
                parent_label = self._underlying.routing_label(parent)
                leg, leg_cost = self._underlying.walk_to_label(current, parent_label)
                legs["zoom"] += leg_cost
                path.extend(leg[1:])
                if tracer.enabled:
                    tracer.event(
                        node=current,
                        phase="zoom",
                        nodes=tuple(leg[1:]),
                        cost=leg_cost,
                        level=i + 1,
                        entry=f"stored parent label l(u({i + 1}))={parent_label}",
                        header_before={
                            "target_name": name,
                            "search_level": i + 1,
                        },
                        header_after={
                            "target_name": name,
                            "search_level": i + 1,
                        },
                    )
                current = parent
        if found_label is None:  # pragma: no cover - top ball covers V
            raise RouteFailure(
                f"name {name} not found at the top level"
            )
        final, final_cost = self._underlying.walk_to_label(current, found_label)
        legs["final"] += final_cost
        path.extend(final[1:])
        if tracer.enabled:
            tracer.event(
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
        ledger = BitCounter()
        unit = bits_for_id(self._metric.n)
        if hasattr(self._underlying, "table_breakdown"):
            ledger.merge(self._underlying.table_breakdown(v))
        else:
            ledger.charge("underlying labeled", self._underlying.table_bits(v))
        ledger.charge("netting-tree parent label", unit)
        ledger.charge("name search trees", self._tree_bits[v])
        return ledger

    def table_bits(self, v: NodeId) -> int:
        unit = bits_for_id(self._metric.n)
        parent_label = unit  # label of the netting-tree parent
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
