"""Deterministic churn workloads: seeded streams of valid graph edits.

An :class:`EditStream` draws one :class:`~repro.core.edits.GraphEdit` at
a time against the *current* state of an evolving graph — feasibility
(which edges exist, which removals disconnect, which node may leave)
depends on every edit already applied, so a stream cannot be
materialized up front.  Determinism instead comes from the seed: the
same seed against the same evolving graph produces the same edit
sequence bit for bit, which is what lets churn experiments replay.

Two invariants shape the sampler:

* **Scale preservation.**  New and changed weights are drawn from
  ``[min_w, weight_span * min_w]`` and the unique minimum-weight edge is
  never reweighted or removed, so a normalized metric's scale divisor
  survives every edit.  Every repair is a cold build, so correctness
  does not need this; it stays so that a seed keeps drawing the same
  stream, edit for edit.
* **Connectivity.**  Removals skip bridges and a node only leaves when
  the remainder stays connected; the metric (and the paper's schemes)
  require a connected network.

Node churn honours the id contract of :mod:`repro.core.edits`: joins
take id ``n``, only id ``n-1`` leaves.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

from repro.core.edits import EditKind, GraphEdit
from repro.core.types import PreprocessingError

#: Default kind mix: mostly weight perturbations (the common case in a
#: live network), a fifth structural link churn, rare node churn.
DEFAULT_MIX: Dict[EditKind, float] = {
    EditKind.WEIGHT: 0.60,
    EditKind.EDGE_ADD: 0.12,
    EditKind.EDGE_REMOVE: 0.12,
    EditKind.NODE_JOIN: 0.08,
    EditKind.NODE_LEAVE: 0.08,
}

#: Tolerance when comparing raw weights against the minimum.
_WEIGHT_TOL = 1e-12


class EditStream:
    """Seeded generator of feasible edits over an evolving graph.

    Args:
        seed: PRNG seed; the only source of nondeterminism.
        mix: Relative draw weight per :class:`EditKind` (kinds that are
            infeasible on the current graph are skipped for that draw).
            Defaults to :data:`DEFAULT_MIX`.
        weight_span: New weights are uniform in
            ``[min_w, weight_span * min_w]``.
        max_nodes: Joins are suppressed at (and leaves favoured above)
            this node count, bounding the graph's drift from its seed
            size.  ``None`` leaves growth unbounded.
    """

    def __init__(
        self,
        seed: int = 0,
        mix: Optional[Dict[EditKind, float]] = None,
        weight_span: float = 3.0,
        max_nodes: Optional[int] = None,
    ) -> None:
        if weight_span <= 1.0:
            raise ValueError("weight_span must exceed 1.0")
        if mix is None:
            mix = dict(DEFAULT_MIX)
        if any(share < 0 for share in mix.values()) or not any(
            share > 0 for share in mix.values()
        ):
            raise ValueError("mix needs non-negative shares, at least one > 0")
        self._rng = random.Random(seed)
        self._mix = dict(mix)
        self._span = float(weight_span)
        self._max_nodes = max_nodes

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------

    @staticmethod
    def _weights(graph: nx.Graph) -> Tuple[float, int]:
        """``(min weight, number of edges at the minimum)``."""
        weights = [
            float(data.get("weight", 1.0))
            for _, _, data in graph.edges(data=True)
        ]
        lo = min(weights)
        at_min = sum(1 for w in weights if w <= lo + _WEIGHT_TOL)
        return lo, at_min

    def _reweight_candidates(
        self, graph: nx.Graph, lo: float, at_min: int
    ) -> List[Tuple[int, int]]:
        """Edges whose weight may change without moving the minimum."""
        return sorted(
            (min(u, v), max(u, v))
            for u, v, data in graph.edges(data=True)
            if at_min >= 2
            or float(data.get("weight", 1.0)) > lo + _WEIGHT_TOL
        )

    def _removal_candidates(
        self, graph: nx.Graph, lo: float, at_min: int
    ) -> List[Tuple[int, int]]:
        """Non-bridge edges whose removal keeps the minimum weight."""
        bridges = {
            (min(u, v), max(u, v)) for u, v in nx.bridges(graph)
        }
        return sorted(
            (min(u, v), max(u, v))
            for u, v, data in graph.edges(data=True)
            if (min(u, v), max(u, v)) not in bridges
            and (
                at_min >= 2
                or float(data.get("weight", 1.0)) > lo + _WEIGHT_TOL
            )
        )

    @staticmethod
    def _leave_allowed(graph: nx.Graph) -> bool:
        """Whether the highest-id node may leave (stays connected, n>=4)."""
        n = graph.number_of_nodes()
        if n < 4:
            return False
        victim = n - 1
        rest = graph.subgraph(v for v in graph.nodes if v != victim)
        return rest.number_of_nodes() > 0 and nx.is_connected(rest)

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------

    def _draw_weight(self, lo: float) -> float:
        return lo * (1.0 + (self._span - 1.0) * self._rng.random())

    def draw(self, graph: nx.Graph) -> GraphEdit:
        """One feasible edit against the current state of ``graph``.

        The caller is responsible for applying it (normally through
        :meth:`BuildContext.apply_edit`) before drawing the next one.
        """
        if graph.number_of_edges() == 0:
            raise PreprocessingError("cannot draw edits on an edgeless graph")
        lo, at_min = self._weights(graph)
        n = graph.number_of_nodes()
        kinds: List[EditKind] = []
        shares: List[float] = []
        for kind, share in self._mix.items():
            if share <= 0:
                continue
            if kind is EditKind.NODE_JOIN and (
                self._max_nodes is not None and n >= self._max_nodes
            ):
                continue
            kinds.append(kind)
            shares.append(share)
        # A draw may land on a kind with no feasible move on the current
        # graph (e.g. every removable edge is a bridge); rather than
        # failing, redraw among the remaining kinds.
        while kinds:
            kind = self._rng.choices(kinds, weights=shares, k=1)[0]
            edit = self._try_kind(kind, graph, lo, at_min)
            if edit is not None:
                return edit
            drop = kinds.index(kind)
            kinds.pop(drop)
            shares.pop(drop)
        raise PreprocessingError(
            "no feasible edit on this graph (all kinds exhausted)"
        )

    def _try_kind(
        self, kind: EditKind, graph: nx.Graph, lo: float, at_min: int
    ) -> Optional[GraphEdit]:
        n = graph.number_of_nodes()
        if kind is EditKind.WEIGHT:
            edges = self._reweight_candidates(graph, lo, at_min)
            if not edges:
                return None
            u, v = self._rng.choice(edges)
            old = float(graph[u][v].get("weight", 1.0))
            new = self._draw_weight(lo)
            if abs(new - old) <= _WEIGHT_TOL:  # pragma: no cover - measure 0
                new = lo + (self._span - 1.0) * lo * 0.5
            return GraphEdit(kind=kind, edge=(u, v), weight=new)
        if kind is EditKind.EDGE_ADD:
            absent = sorted(
                (min(u, v), max(u, v)) for u, v in nx.non_edges(graph)
            )
            if not absent:
                return None
            edge = self._rng.choice(absent)
            return GraphEdit(
                kind=kind, edge=edge, weight=self._draw_weight(lo)
            )
        if kind is EditKind.EDGE_REMOVE:
            edges = self._removal_candidates(graph, lo, at_min)
            if not edges:
                return None
            return GraphEdit(kind=kind, edge=self._rng.choice(edges))
        if kind is EditKind.NODE_JOIN:
            degree = self._rng.randint(1, min(3, n))
            neighbours = self._rng.sample(sorted(graph.nodes), degree)
            attach = tuple(
                (int(x), self._draw_weight(lo)) for x in sorted(neighbours)
            )
            return GraphEdit(kind=kind, node=n, attach=attach)
        if kind is EditKind.NODE_LEAVE:
            if not self._leave_allowed(graph):
                return None
            return GraphEdit(kind=kind, node=n - 1)
        raise ValueError(f"unknown edit kind {kind!r}")  # pragma: no cover

    def take(
        self, graph: nx.Graph, count: int, apply=None
    ) -> Iterator[GraphEdit]:
        """Yield ``count`` edits, applying each before drawing the next.

        ``apply`` defaults to the raw
        :func:`~repro.core.edits.apply_edit_to_graph`; pass
        ``context.apply_edit`` (wrapped to the same signature) to keep a
        build cache coherent while iterating.
        """
        from repro.core.edits import apply_edit_to_graph

        if apply is None:
            apply = apply_edit_to_graph
        for _ in range(count):
            edit = self.draw(graph)
            yield edit
            apply(graph, edit)
