"""Voronoi partitions and shortest-path trees (paper §4.1).

For each packing level ``j`` the scale-free labeled scheme partitions the
network into the Voronoi regions ``V(c, j)`` of the packing centers and
routes inside each region on a shortest-path tree ``T_c(j)`` rooted at the
center.  We build ``T_c(j)`` from the *canonical* shortest paths of
:class:`~repro.metric.graph_metric.GraphMetric` (least-id next hops), so
the union of the paths from the region's members to ``c`` is always a
tree.  With exact distance ties a canonical path may pass through a node
of a neighbouring region; such pass-through nodes are simply included in
the tree (and charged for its storage) — see DESIGN.md's faithfulness
notes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.types import NodeId
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric


def voronoi_partition(
    metric: GraphMetric, centers: Sequence[NodeId]
) -> Dict[NodeId, List[NodeId]]:
    """Partition all nodes by nearest center (least-id tie-breaking).

    Returns a map from each center to the sorted list of nodes assigned
    to it; every node (including the centers) appears exactly once.
    """
    if not centers:
        raise ValueError("need at least one center")
    cells: Dict[NodeId, List[NodeId]] = {c: [] for c in centers}
    for v, c in enumerate(metric.nearest_many(metric.nodes, centers).tolist()):
        cells[c].append(v)
    return cells


class ShortestPathTree:
    """Union of canonical shortest paths from ``members`` to ``root``.

    Attributes:
        root: The tree root (a packing center in the paper's use).
        members: The nodes the tree is required to span.
        nodes: All tree nodes — members plus any pass-through nodes on
            their canonical paths to the root.
    """

    def __init__(
        self,
        metric: GraphMetric,
        root: NodeId,
        members: Sequence[NodeId],
    ) -> None:
        self._metric = metric
        self.root = root
        self.members = sorted(set(members) | {root})
        parent: Dict[NodeId, NodeId] = {}
        nodes: Set[NodeId] = {root}
        for v in self.members:
            current = v
            while current != root and current not in parent:
                hop = metric.next_hop(current, root)
                parent[current] = hop
                nodes.add(current)
                current = hop
            nodes.add(current)
        self._parent = parent
        self.nodes = sorted(nodes)
        self._children: Dict[NodeId, List[NodeId]] = {v: [] for v in nodes}
        for child, par in parent.items():
            self._children[par].append(child)
        for v in self._children:
            self._children[v].sort()

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    def parent_of(self, v: NodeId) -> NodeId:
        """Tree parent (the root raises ``KeyError``)."""
        return self._parent[v]

    def children_of(self, v: NodeId) -> List[NodeId]:
        return list(self._children[v])

    def contains(self, v: NodeId) -> bool:
        return v in self._children

    def tree_distance(self, u: NodeId, v: NodeId) -> float:
        """Distance along the unique tree path between u and v."""
        path = self.tree_path(u, v)
        return sum(
            self._metric.edge_weight(a, b) for a, b in zip(path, path[1:])
        )

    def tree_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """The unique tree path from ``u`` to ``v``."""
        up_u = self._path_to_root(u)
        up_v = self._path_to_root(v)
        index_u = {node: k for k, node in enumerate(up_u)}
        meet = next(node for node in up_v if node in index_u)
        head = up_u[: index_u[meet] + 1]
        tail = up_v[: up_v.index(meet)]
        return head + list(reversed(tail))

    def _path_to_root(self, v: NodeId) -> List[NodeId]:
        path = [v]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return path

    def depth(self, v: NodeId) -> float:
        """Distance from ``v`` up to the root along tree edges."""
        path = self._path_to_root(v)
        return sum(
            self._metric.edge_weight(a, b) for a, b in zip(path, path[1:])
        )

    def verify_shortest(self) -> bool:
        """Check every node's tree depth equals its metric distance."""
        return all(
            abs(self.depth(v) - self._metric.distance(v, self.root))
            <= DISTANCE_SLACK * (1.0 + self._metric.distance(v, self.root))
            for v in self.nodes
        )

    def __repr__(self) -> str:
        return f"ShortestPathTree(root={self.root}, nodes={len(self.nodes)})"
