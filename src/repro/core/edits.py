"""Atomic topology edits: the unit of churn.

A :class:`GraphEdit` describes one change to a weighted undirected
graph — a weight change, an edge addition or removal, or a node joining
or leaving.  Edits are the currency of the churn pipeline
(`BuildContext.apply_edit`): each edit changes the graph's content key,
so the cached metric and everything built on it are dropped and built
cold on next demand.

Edits are deliberately dumb data: validation happens here, and cache
invalidation in :class:`~repro.pipeline.context.BuildContext`.
Weights are *raw* (pre-normalization) weights, matching what is stored
on the graph.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

import networkx as nx

from repro.core.types import NodeId, PreprocessingError


class EditKind(enum.Enum):
    """The five churn primitives."""

    WEIGHT = "weight"
    EDGE_ADD = "edge_add"
    EDGE_REMOVE = "edge_remove"
    NODE_JOIN = "node_join"
    NODE_LEAVE = "node_leave"


@dataclasses.dataclass(frozen=True)
class GraphEdit:
    """One atomic change to the network topology.

    Attributes:
        kind: Which primitive this is.
        edge: The affected edge, canonicalized ``(min, max)`` — required
            for ``WEIGHT`` / ``EDGE_ADD`` / ``EDGE_REMOVE``.
        node: The joining/leaving node id — required for ``NODE_JOIN`` /
            ``NODE_LEAVE``.  Joins must use id ``n`` and leaves id
            ``n-1`` (nodes are always ``0..n-1``; allowing interior ids
            would silently relabel every node).
        weight: New raw edge weight for ``WEIGHT`` / ``EDGE_ADD``.
        attach: For ``NODE_JOIN``: ``(neighbor, raw weight)`` pairs the
            new node connects through (at least one).
    """

    kind: EditKind
    edge: Optional[Tuple[NodeId, NodeId]] = None
    node: Optional[NodeId] = None
    weight: Optional[float] = None
    attach: Tuple[Tuple[NodeId, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind in (EditKind.WEIGHT, EditKind.EDGE_ADD, EditKind.EDGE_REMOVE):
            if self.edge is None:
                raise PreprocessingError(f"{self.kind.value} edit needs an edge")
            u, v = self.edge
            if u == v:
                raise PreprocessingError("self-loop edits are not allowed")
            if (u, v) != (min(u, v), max(u, v)):
                object.__setattr__(self, "edge", (min(u, v), max(u, v)))
        if self.kind in (EditKind.WEIGHT, EditKind.EDGE_ADD):
            if self.weight is None or self.weight <= 0:
                raise PreprocessingError(
                    f"{self.kind.value} edit needs a positive weight"
                )
        if self.kind in (EditKind.NODE_JOIN, EditKind.NODE_LEAVE):
            if self.node is None:
                raise PreprocessingError(f"{self.kind.value} edit needs a node")
        if self.kind is EditKind.NODE_JOIN:
            if not self.attach:
                raise PreprocessingError("node_join needs at least one attachment")
            if any(w <= 0 for _, w in self.attach):
                raise PreprocessingError("attachment weights must be positive")

    def describe(self) -> str:
        """One-line human-readable form."""
        if self.kind is EditKind.WEIGHT:
            return f"weight{self.edge} <- {self.weight:g}"
        if self.kind is EditKind.EDGE_ADD:
            return f"add edge {self.edge} w={self.weight:g}"
        if self.kind is EditKind.EDGE_REMOVE:
            return f"remove edge {self.edge}"
        if self.kind is EditKind.NODE_JOIN:
            return f"join node {self.node} via {len(self.attach)} links"
        return f"leave node {self.node}"


def apply_edit_to_graph(graph: nx.Graph, edit: GraphEdit) -> None:
    """Mutate ``graph`` in place according to ``edit``.

    Callers that keep derived state (cached metrics and what was built
    on them) must route edits through :meth:`BuildContext.apply_edit`
    instead, which drops those caches; this function is the raw
    primitive underneath.  Content keys need nothing:
    ``graph_content_key`` hashes the graph afresh on every call.

    Raises:
        PreprocessingError: If the edit does not fit the graph (missing
            edge, duplicate edge, out-of-sequence node id, ...).
    """
    n = graph.number_of_nodes()
    if edit.kind is EditKind.WEIGHT:
        u, v = edit.edge
        if not graph.has_edge(u, v):
            raise PreprocessingError(f"no edge {edit.edge} to reweight")
        graph[u][v]["weight"] = float(edit.weight)
    elif edit.kind is EditKind.EDGE_ADD:
        u, v = edit.edge
        if graph.has_edge(u, v):
            raise PreprocessingError(f"edge {edit.edge} already present")
        if u >= n or v >= n:
            raise PreprocessingError(f"edge {edit.edge} endpoint out of range")
        graph.add_edge(u, v, weight=float(edit.weight))
    elif edit.kind is EditKind.EDGE_REMOVE:
        u, v = edit.edge
        if not graph.has_edge(u, v):
            raise PreprocessingError(f"no edge {edit.edge} to remove")
        graph.remove_edge(u, v)
    elif edit.kind is EditKind.NODE_JOIN:
        if edit.node != n:
            raise PreprocessingError(
                f"joining node must take the next id {n}, got {edit.node}"
            )
        if any(x >= n for x, _ in edit.attach):
            raise PreprocessingError("attachment endpoint out of range")
        graph.add_node(edit.node)
        for x, w in edit.attach:
            graph.add_edge(edit.node, x, weight=float(w))
    elif edit.kind is EditKind.NODE_LEAVE:
        if edit.node != n - 1:
            raise PreprocessingError(
                f"only the highest id {n - 1} may leave (ids must stay "
                f"0..n-1), got {edit.node}"
            )
        graph.remove_node(edit.node)
